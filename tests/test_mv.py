from __future__ import annotations

import numpy as np
import pytest

import fmvscreen.mv
from fmvscreen import (
    InputError,
    build_discrete_slices,
    build_quantile_slices,
    mv_hat,
    mv_hat_bruteforce,
)
from fmvscreen.mv import _label_arrays, mv_hat_columns_multi, ranked_columns, tie_starts
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


def test_equal_slice_shares_score_exactly_zero() -> None:
    # each slice holds two zeros in five, so every conditional ECDF is the
    # unconditional one; the float quotients of the kernel's exact sums
    # round this zero to -1.3e-16, below the floor of a sum of squares
    x = np.array([1, 0, 1, 1, 1, 0, 0, 1, 0, 1, 1, 0, 1, 1, 0], dtype=float)
    labels = make_labels([3, 2, 1, 1, 2, 2, 1, 2, 1, 2, 1, 3, 3, 3, 3])
    assert mv_hat_bruteforce(x, labels) == 0.0
    assert mv_hat(x, labels) == 0.0


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


def edge_columns(rng, n: int) -> np.ndarray:
    """An n-by-5 matrix: continuous, rounded, -0.0 next to 0.0, constant and
    integer-rounded columns."""
    x = rng.normal(size=(n, 5))
    x[:, 1] = np.round(x[:, 1], 1)
    x[:, 2] = rng.choice([-0.0, 0.0, 1.0], size=n)  # -0.0 ties 0.0
    x[:, 3] = 1.5
    x[:, 4] = np.round(x[:, 4])
    return x


def near_tie_columns(rng, n: int) -> np.ndarray:
    """An n-by-4 matrix of values that differ only in their lowest mantissa
    bits, where the view's row tags sit: one-ulp neighbours of 1.0,
    0.1 + 0.2 beside 0.3, the smallest subnormals beside -0.0 and 0.0, and
    one-ulp neighbours of +-1e300. Each column's first rows hold a near tie,
    so from n = 5 on every column needs the exact path."""
    up = np.nextafter
    values = [[1.0, up(1.0, 2.0), up(1.0, 0.0)],
              [0.1 + 0.2, 0.3],
              [5e-324, 0.0, -5e-324, -0.0],
              [1e300, up(1e300, 0.0), -1e300, -up(1e300, 0.0)]]
    x = np.empty((n, len(values)))
    for j, choices in enumerate(values):
        x[:, j] = rng.choice(choices, size=n)
        x[:len(choices), j] = choices[:n]
    return x


def brute_ranks(x: np.ndarray) -> np.ndarray:
    return (x[None, :, :] < x[:, None, :]).sum(axis=1).T


@pytest.mark.parametrize("n", [1, 2, 3, 9, 50, 255, 256, 257, 511, 512])
def test_competition_ranks_match_bruteforce(n) -> None:
    # the view shared by the kernel, fks and Kendall: a row's rank is the
    # count of strictly smaller values in its column, in the smallest
    # unsigned dtype holding n (one byte to n = 255)
    x = edge_columns(np.random.default_rng(41 + n), n)
    ranks = ranked_columns(x)
    assert ranks.shape == (5, n)
    assert ranks.dtype == np.min_scalar_type(n)
    assert np.array_equal(ranks, brute_ranks(x))
    assert not ranks[3].any()  # the constant column


@pytest.mark.parametrize("n", [1, 2, 3, 9, 255, 256, 257, 511, 512])
@pytest.mark.parametrize("block_columns", [None, 2])
def test_near_tie_ranks_match_bruteforce(n, block_columns, monkeypatch) -> None:
    # the row tags overwrite the lowest mantissa bits, so values one ulp
    # apart can share every bit above them; the check must find those
    # columns and rank them exactly, beside continuous, constant and
    # two-valued +-1e300 ones, also when the columns go through blocks of two
    rng = np.random.default_rng(61 + n)
    x = np.column_stack([near_tie_columns(rng, n), rng.normal(size=n), np.full(n, -3.0),
                         rng.choice([-1e300, 1e300], size=n)])
    if block_columns is not None:
        monkeypatch.setattr(fmvscreen.mv, "_BLOCK_CELLS", block_columns * n)
    ranks = ranked_columns(x)
    assert ranks.dtype == np.min_scalar_type(n)
    assert np.array_equal(ranks, brute_ranks(x))


@pytest.mark.parametrize("n", [9, 257])
def test_exact_path_runs_only_for_near_ties(n, monkeypatch) -> None:
    # the exact argsort runs for the near-tie columns alone: a continuous
    # column has no shared prefix, and a rounded one's shared prefixes are
    # all exact ties; x is left as it was, in bytes and in flags
    rng = np.random.default_rng(71 + n)
    near = near_tie_columns(rng, n)
    x = np.column_stack([rng.normal(size=n), near[:, :2], np.round(rng.normal(size=n), 1),
                         near[:, 2:], np.full(n, 2.0)])
    x.flags.writeable = False
    flags = {k: x.flags[k] for k in ("C_CONTIGUOUS", "F_CONTIGUOUS", "OWNDATA", "WRITEABLE")}
    before = x.tobytes()
    seen = []
    argsort = np.argsort

    def spy(a, axis=-1):
        seen.extend(a.tolist())
        return argsort(a, axis=axis)

    monkeypatch.setattr(np, "argsort", spy)
    ranks = ranked_columns(x)
    assert np.array_equal(ranks, brute_ranks(x))
    assert sorted(seen) == sorted(x[:, [1, 2, 4, 5]].T.tolist())
    assert x.tobytes() == before
    assert {k: x.flags[k] for k in flags} == flags


@pytest.mark.parametrize("n", [1, 2, 9, 50, 256])
def test_tie_starts_match_bruteforce(n) -> None:
    # the tied columns, and at each sorted position of one the first sorted
    # position holding the same value
    x = edge_columns(np.random.default_rng(51 + n), n)
    ranks = ranked_columns(x)
    tied, starts = tie_starts(ranks)
    expect_tied = [j for j in range(5) if np.unique(x[:, j]).size < n]
    assert tied.tolist() == expect_tied
    assert starts.shape == (len(expect_tied), n)
    assert starts.dtype == ranks.dtype
    for k, j in enumerate(tied):
        xs = np.sort(x[:, j])
        assert starts[k].tolist() == [np.flatnonzero(xs == v)[0] for v in xs]


def test_ranked_columns_sorts_a_copy_and_keeps_signed_zero_runs() -> None:
    # x.T of an F-ordered x is already contiguous, and the column sort runs
    # in place: it must run on a copy. -0.0 and 0.0 sit in one tie run.
    rng = np.random.default_rng(32)
    x = np.asfortranarray(rng.normal(size=(12, 3)))
    x[:, 1] = [0.0, -0.0, 1.5, 0.0, -1.0, -0.0, 2.0, 0.0, -0.0, 1.5, -1.0, 0.0]
    before = x.copy()
    ranks = ranked_columns(x)
    assert x.tobytes() == before.tobytes() and x.flags.f_contiguous
    assert ranks[1].tolist() == [2, 2, 9, 2, 0, 2, 11, 2, 2, 9, 0, 2]
    tied, starts = tie_starts(ranks)
    assert tied.tolist() == [1]
    assert starts[0].tolist() == [0, 0] + [2] * 7 + [9, 9, 11]


@pytest.mark.parametrize("n, s_values", [
    (255, [3, 7]),  # positions and counts just fit one byte
    (256, [3, 7]),  # and here they no longer do
    (600, None),  # 300 categorical labels: two-byte slice labels
    (2000, [3, 13]),  # n^3 > 2^31: a 32-bit sum would overflow
])
def test_kernel_matches_oracle_at_dtype_edges(n, s_values) -> None:
    rng = np.random.default_rng(n)
    x = rng.normal(size=(n, 3))
    x[:, 1] = np.round(x[:, 1], 1)
    if s_values is None:
        g = rng.permutation(np.arange(n) % 300) + 1
        labels_list = [make_labels(g)]
        assert labels_list[0].s_eff == 300
    else:
        y = x[:, 0] + rng.normal(size=n)
        labels_list = [build_quantile_slices(y, s) for s in s_values]
    got = mv_hat_columns_multi(x, labels_list)
    for k, labels in enumerate(labels_list):
        for j in range(x.shape[1]):
            assert abs(got[k, j] - mv_hat_bruteforce(x[:, j], labels)) <= 1e-12
    # the label arrays built once, as fmv_scores passes them to every block,
    # score the same bits; a degenerate slicing scores a zero row
    labels_list = [None, *labels_list]
    shared = mv_hat_columns_multi(x, labels_list, label_arrays=_label_arrays(labels_list, n))
    assert shared[1:].tobytes() == got.tobytes() and not shared[0].any()


def test_exact_sums_beyond_int64_agree(monkeypatch) -> None:
    # from n = 2^21 on, n^3 overflows int64 and the sums run on Python ints;
    # force that path at a small n and compare with the int64 one
    assert fmvscreen.mv._exact_int(2 ** 21 - 1) is np.int64
    assert fmvscreen.mv._exact_int(2 ** 21) is object
    rng = np.random.default_rng(37)
    x = rng.normal(size=(90, 4))
    x[:, 1] = np.round(x[:, 1], 1)
    labels_list = [build_quantile_slices(rng.normal(size=90), s) for s in (3, 4, 5)]
    fast = mv_hat_columns_multi(x, labels_list)
    monkeypatch.setattr(fmvscreen.mv, "_exact_int", lambda n: object)
    wide = mv_hat_columns_multi(x, labels_list)
    assert wide.dtype == np.float64
    assert np.max(np.abs(wide - fast)) <= 1e-15


def test_input_errors() -> None:
    labels = make_labels([1, 2, 1])
    with pytest.raises(InputError):
        mv_hat(np.array([1.0, 2.0]), labels)  # length mismatch
    with pytest.raises(InputError):
        mv_hat(np.array([1.0, np.nan, 3.0]), labels)
    with pytest.raises(InputError):
        mv_hat_bruteforce(np.array([1.0, np.inf, 3.0]), labels)
