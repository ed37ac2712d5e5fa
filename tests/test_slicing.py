from __future__ import annotations

import numpy as np
import pytest

from fmvscreen import (
    DegenerateSlicesError,
    InputError,
    build_categorical_slices,
    build_discrete_slices,
    build_quantile_slices,
    default_schemes,
)


def sorted_block_labels(y, s):
    """Reference for tie-free data: walk the sorted sample and hand out label g
    to the observations holding sorted positions floor(n(g-1)/s)..floor(ng/s)-1."""
    n = len(y)
    order = np.argsort(y)
    labels = np.empty(n, dtype=int)
    for g in range(1, s + 1):
        lo, hi = (n * (g - 1)) // s, (n * g) // s
        labels[order[lo:hi]] = g
    return labels


def test_quantile_three_slices_balanced() -> None:
    y = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    labels = build_quantile_slices(y, 3)
    assert np.array_equal(labels.g, [1, 1, 2, 2, 3, 3])
    assert np.array_equal(labels.g, sorted_block_labels(y, 3))
    assert labels.s_eff == 3


def test_quantile_median_split_sizes() -> None:
    rng = np.random.default_rng(0)
    for n in (4, 5, 9, 20, 31):
        y = rng.permutation(np.arange(n, dtype=float))
        labels = build_quantile_slices(y, 2)
        assert sorted(labels.counts, reverse=True) == [-(-n // 2), n // 2]
        assert np.array_equal(labels.g, sorted_block_labels(y, 2))


def test_quantile_random_tie_free_matches_block_reference() -> None:
    rng = np.random.default_rng(1)
    for _ in range(30):
        n = int(rng.integers(6, 60))
        s = int(rng.integers(2, min(8, n) + 1))
        y = rng.normal(size=n)
        labels = build_quantile_slices(y, s)
        assert np.array_equal(labels.g, sorted_block_labels(y, s))


def test_quantile_duplicate_cuts_merge() -> None:
    y = np.array([0.0, 0.0, 0.0, 0.0, 1.0, 2.0])
    labels = build_quantile_slices(y, 3)
    assert labels.s_eff == 2
    assert np.array_equal(labels.g, [1, 1, 1, 1, 2, 2])


def test_quantile_label_interval_consistency() -> None:
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = int(rng.integers(6, 50))
        y = np.round(rng.normal(size=n), 1)
        try:
            labels = build_quantile_slices(y, 4)
        except DegenerateSlicesError:
            continue
        # slices are intervals of y: labels never decrease along sorted y,
        # and tied responses share a slice
        order = np.argsort(y)
        step = np.diff(labels.g[order])
        assert np.all(step >= 0)
        assert np.all(step[np.diff(y[order]) == 0] == 0)
        assert labels.counts.min() >= 1
        assert labels.counts.sum() == n


def test_quantile_errors() -> None:
    with pytest.raises(InputError):
        build_quantile_slices([1.0, 2.0, 3.0], 4)
    with pytest.raises(InputError):
        build_quantile_slices([1.0, 2.0, 3.0], 1)
    with pytest.raises(DegenerateSlicesError):
        build_quantile_slices([5.0, 5.0, 5.0, 5.0], 2)


def test_discrete_capped_map() -> None:
    labels = build_discrete_slices([0.0, 1.0, 2.0, 7.0, 0.0], 3)
    assert np.array_equal(labels.g, [1, 2, 3, 3, 1])
    assert np.array_equal(labels.counts, [2, 1, 2])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_discrete_caps_a_count_past_int64() -> None:
    # cast to int64 first, such a count wrapped to a negative label
    labels = build_discrete_slices([0.0, 1.0, 1e200, 2.0 ** 63, 7.0], 3)
    assert np.array_equal(labels.g, [1, 2, 3, 3, 3])


def test_discrete_collapses_to_single_slice() -> None:
    assert build_discrete_slices([0.0, 0.0, 0.0], 3).s_eff == 1
    assert build_discrete_slices([5.0, 6.0, 7.0], 2).s_eff == 1  # cap absorbs all


def test_discrete_rejects_bad_counts() -> None:
    # the one count rule Dataset applies too
    with pytest.raises(InputError, match="^count response must be nonnegative integer-valued$"):
        build_discrete_slices([-1.0, 2.0], 3)
    with pytest.raises(InputError, match="^count response must be nonnegative integer-valued$"):
        build_discrete_slices([0.5, 2.0], 3)


def test_categorical_slices() -> None:
    labels = build_categorical_slices(np.array(["a", "b", "a", "b"]))
    assert np.array_equal(labels.g, [1, 2, 1, 2])
    assert np.array_equal(labels.props, [0.5, 0.5])

    labels = build_categorical_slices(np.array(["c", "a", "b"]))
    assert np.array_equal(labels.g, [3, 1, 2])

    labels = build_categorical_slices(np.array(["a", "a", "a", "b"]))
    assert np.array_equal(labels.props, [0.75, 0.25])


def test_categorical_single_label_degenerate() -> None:
    with pytest.raises(DegenerateSlicesError):
        build_categorical_slices(np.array(["a", "a", "a"]))


def test_default_schemes() -> None:
    assert default_schemes(200) == [3, 4, 5, 6]
    assert default_schemes(350) == [3, 4, 5, 6, 7, 8]
    assert default_schemes(27) == [3]
    assert default_schemes(1000) == [3, 4, 5, 6, 7, 8, 9, 10]


def test_default_schemes_warns_below_minimum() -> None:
    with pytest.warns(RuntimeWarning):
        assert default_schemes(20) == [3]
