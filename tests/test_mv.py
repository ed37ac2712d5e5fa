from __future__ import annotations

import numpy as np
import pytest

from fmvscreen import (
    InputError,
    build_discrete_slices,
    build_quantile_slices,
    mv_hat,
    mv_hat_bruteforce,
)
from fmvscreen.mv import mv_hat_columns_multi, ranked_columns, slice_counts_at_runs
from fmvscreen.slicing import SliceLabels


def make_labels(g) -> SliceLabels:
    g = np.asarray(g, dtype=np.int64)
    return SliceLabels(g=g, counts=np.bincount(g - 1))


def test_two_point_hand_evaluation() -> None:
    # i=1: 0.5*(1-0.5)^2 + 0.5*(0-0.5)^2 = 0.25; i=2: 0; total/2 = 0.125
    labels = make_labels([1, 2])
    x = np.array([1.0, 2.0])
    assert mv_hat_bruteforce(x, labels) == 0.125
    assert mv_hat(x, labels) == 0.125


def test_median_split_hand_example() -> None:
    # oracle first: per-i inner sums 0.0625, 0.25, 0.0625, 0 -> 0.09375
    x = np.array([1.0, 2.0, 3.0, 4.0])
    labels = build_quantile_slices(np.array([1.0, 2.0, 3.0, 4.0]), 2)
    assert np.array_equal(labels.g, [1, 1, 2, 2])
    assert mv_hat_bruteforce(x, labels) == 0.09375
    assert mv_hat(x, labels) == 0.09375


def test_constant_predictor_is_exactly_zero() -> None:
    labels = make_labels([1, 2, 1, 2])
    x = np.full(4, 7.5)
    assert mv_hat(x, labels) == 0.0
    assert mv_hat_bruteforce(x, labels) == 0.0


def test_single_slice_is_exactly_zero() -> None:
    labels = build_discrete_slices([0.0, 0.0, 0.0], 3)
    assert labels.s_eff == 1
    x = np.array([3.0, 1.0, 2.0])
    assert mv_hat(x, labels) == 0.0
    assert mv_hat_bruteforce(x, labels) == 0.0


def test_fast_path_matches_bruteforce_randomized() -> None:
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(150):
        n = int(rng.integers(2, 101))
        x = rng.normal(size=n)
        if rng.random() < 0.4:
            x = np.round(x, 1)  # force ties
        raw = rng.integers(1, int(rng.integers(2, 9)) + 1, size=n)
        _, inv = np.unique(raw, return_inverse=True)
        labels = make_labels(inv + 1)
        diff = abs(mv_hat(x, labels) - mv_hat_bruteforce(x, labels))
        worst = max(worst, diff)
    assert worst <= 1e-12


def test_statistic_stays_in_unit_interval() -> None:
    rng = np.random.default_rng(23)
    for _ in range(60):
        n = int(rng.integers(2, 80))
        x = rng.standard_cauchy(size=n)
        raw = rng.integers(1, 5, size=n)
        _, inv = np.unique(raw, return_inverse=True)
        value = mv_hat(x, make_labels(inv + 1))
        assert 0.0 <= value <= 1.0


def test_matrix_path_matches_columnwise_oracle() -> None:
    rng = np.random.default_rng(29)
    n, p = 40, 7
    x = rng.normal(size=(n, p))
    x[:, 2] = np.round(x[:, 2], 1)
    x[:, 5] = 1.25  # constant column
    labels = build_quantile_slices(rng.normal(size=n), 3)
    cols = mv_hat_columns_multi(x, [labels])[0]
    for j in range(p):
        assert abs(cols[j] - mv_hat_bruteforce(x[:, j], labels)) <= 1e-12
    assert cols[5] == 0.0


def test_ranked_columns_give_ecdfs_at_sample_points() -> None:
    # the core shared with fks: t + 1 counts the entries <= each sorted
    # entry, and each slice's counts at t do the same within the slice
    rng = np.random.default_rng(31)
    for n in (1, 2, 9, 50):
        x = rng.normal(size=(n, 4))
        x[:, 1] = np.round(x[:, 1], 1)
        x[:, 2] = np.round(x[:, 2])
        x[:, 3] = rng.choice([-0.0, 0.0], size=n)  # one tie run of signed zeros
        labels = make_labels(rng.permutation(np.arange(n) % 3) + 1)
        order, t = ranked_columns(x)
        counts = list(slice_counts_at_runs(order, t, labels))
        assert len(counts) == labels.s_eff
        for j in range(x.shape[1]):
            xs = x[order[:, j], j]
            assert np.all(np.diff(xs) >= 0)
            leq = x[:, j][None, :] <= xs[:, None]  # leq[i, k] = I(x_k <= xs_i)
            assert np.array_equal(t[:, j] + 1, leq.sum(axis=1))
            for s, cum in enumerate(counts, start=1):
                assert np.array_equal(cum[:, j], (leq & (labels.g == s)).sum(axis=1))


def test_input_errors() -> None:
    labels = make_labels([1, 2, 1])
    with pytest.raises(InputError):
        mv_hat(np.array([1.0, 2.0]), labels)  # length mismatch
    with pytest.raises(InputError):
        mv_hat(np.array([1.0, np.nan, 3.0]), labels)
    with pytest.raises(InputError):
        mv_hat_bruteforce(np.array([1.0, np.inf, 3.0]), labels)
