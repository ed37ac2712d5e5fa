"""Property tests for the rank kernels: Kendall, the MV kernel, fused fmv
and fks against their O(n^2) oracles, bit-identity under row permutation,
and fks and fmv bit-identical under a strictly increasing map of y, over
tied, tiny (n = 2, 3), count and categorical inputs with -0.0 next to 0.0.
Also sis (Pearson): each column scored alone, bit for bit, over any column
blocks, and within 1e-12 of ``np.corrcoef``."""

from __future__ import annotations

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

import fmvscreen.baselines  # noqa: E402
from fmvscreen import ResponseKind, fmv_scores, mv_hat_bruteforce  # noqa: E402
from fmvscreen.baselines import (  # noqa: E402
    fks_scores,
    kendall_score_bruteforce,
    kendall_scores,
    pearson_score,
    pearson_scores,
)
from fmvscreen.mv import mv_hat_columns_multi, ranked_columns  # noqa: E402
from fmvscreen.screening import labels_for_schemes  # noqa: E402
from fmvscreen.slicing import SliceLabels  # noqa: E402
from test_baselines import fks_oracle  # noqa: E402

SETTINGS = settings(max_examples=150, deadline=None)

# few distinct values, so ties are common, with -0.0 next to 0.0
TIED = st.sampled_from([-2.5, -1.0, -0.0, 0.0, 0.5, 3.0])
FREE = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False, allow_subnormal=False)
COUNTS = st.integers(0, 4).map(float)
SIZES = st.one_of(st.sampled_from([2, 3]), st.integers(2, 40))


@st.composite
def columns(draw, n: int) -> np.ndarray:
    elements = draw(st.sampled_from([TIED, FREE, st.one_of(TIED, FREE), COUNTS]))
    return draw(arrays(np.float64, n, elements=elements))


@st.composite
def matrices(draw) -> np.ndarray:
    n = draw(SIZES)
    p = draw(st.integers(1, 4))
    return np.column_stack([draw(columns(n)) for _ in range(p)])


@st.composite
def kendall_cases(draw):
    x = draw(matrices())
    return x, draw(columns(x.shape[0]))


@st.composite
def mv_cases(draw):
    """A matrix and a list of live slicings of its rows: quantile slices of a
    (possibly tied) response, count slices, or categorical labels."""
    x = draw(matrices())
    n = x.shape[0]
    source = draw(st.sampled_from(["quantile", "count", "categorical"]))
    if source == "categorical":
        raw = draw(arrays(np.int64, n, elements=st.integers(0, min(n, 7))))
        _, g = np.unique(raw, return_inverse=True)
        labels_list = [SliceLabels(g=g + 1, counts=np.bincount(g))]
    else:
        kind = ResponseKind.COUNT if source == "count" else ResponseKind.CONTINUOUS
        y = draw(columns(n)) if source == "quantile" else draw(
            arrays(np.float64, n, elements=COUNTS))
        schemes = draw(st.lists(st.integers(2, n), min_size=1, max_size=3))
        labels_list = labels_for_schemes(y, kind, schemes)
    live = [lab for lab in labels_list if lab is not None]
    return x, live


@st.composite
def response_cases(draw, kinds=tuple(ResponseKind)):
    """A matrix, a response of a kind drawn from ``kinds`` (categorical
    labels, counts, or a possibly tied continuous column) and slice counts
    for it."""
    x = draw(matrices())
    n = x.shape[0]
    kind = draw(st.sampled_from(kinds))
    if kind is ResponseKind.CATEGORICAL:
        y = draw(arrays(np.float64, n, elements=st.integers(0, min(n, 7)).map(float)))
    elif kind is ResponseKind.COUNT:
        y = draw(arrays(np.float64, n, elements=COUNTS))
    else:
        y = draw(columns(n))
    schemes = draw(st.lists(st.integers(2, n), min_size=1, max_size=3))
    return x, y, kind, schemes


# sis columns: multiples of 1/8 in [-125, 125], whose spread, when not
# constant, is never small against their size, so two summation orders agree
# to 1e-12; ties; and constant columns, exact or not in binary, with -0.0
# next to 0.0
EIGHTHS = st.integers(-1000, 1000).map(lambda k: k / 8)
CONSTANTS = st.sampled_from([0.1, math.pi, 1 / 3, 1.1, -2.5, 1e6 / 3, 0.0])


@st.composite
def sis_cases(draw):
    """A matrix, a non-constant response, a block width in columns, and a
    subset of the columns; p reaches past two block edges at that width."""
    n = draw(SIZES)
    width = draw(st.integers(1, 3))
    p = draw(st.integers(1, 3 * width + 1))
    columns = []
    for _ in range(p):
        shape = draw(st.sampled_from(["eighths", "tied", "constant", "signed zeros"]))
        if shape == "constant":
            columns.append(np.full(n, draw(CONSTANTS)))
        elif shape == "signed zeros":
            columns.append(draw(arrays(np.float64, n, elements=st.sampled_from([-0.0, 0.0]))))
        else:
            elements = EIGHTHS if shape == "eighths" else TIED
            columns.append(draw(arrays(np.float64, n, elements=elements)))
    y = draw(arrays(np.float64, n, elements=EIGHTHS).filter(lambda v: v.min() < v.max()))
    subset = draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=p, unique=True))
    return np.column_stack(columns), y, width, subset


def permuted(labels: SliceLabels, perm: np.ndarray) -> SliceLabels:
    return SliceLabels(g=labels.g[perm], counts=labels.counts)


@SETTINGS
@given(kendall_cases())
def test_kendall_matches_pairwise_oracle(case) -> None:
    x, y = case
    scores = kendall_scores(x, y)
    for j in range(x.shape[1]):
        assert abs(scores[j] - kendall_score_bruteforce(x[:, j], y)) <= 1e-12


@SETTINGS
@given(mv_cases())
def test_mv_kernel_matches_bruteforce(case) -> None:
    x, labels_list = case
    got = mv_hat_columns_multi(x, labels_list)
    for k, labels in enumerate(labels_list):
        for j in range(x.shape[1]):
            assert abs(got[k, j] - mv_hat_bruteforce(x[:, j], labels)) <= 1e-12


@SETTINGS
@given(kendall_cases(), st.randoms(use_true_random=False))
def test_kendall_bit_identical_under_row_permutation(case, rnd) -> None:
    x, y = case
    perm = np.array(rnd.sample(range(x.shape[0]), x.shape[0]))
    base = kendall_scores(x, y).tobytes()
    assert kendall_scores(x, y, ranked=ranked_columns(x)).tobytes() == base
    assert kendall_scores(x[perm], y[perm]).tobytes() == base
    assert kendall_scores(x[perm], y[perm], ranked=ranked_columns(x[perm])).tobytes() == base


@SETTINGS
@given(mv_cases(), st.randoms(use_true_random=False))
def test_mv_kernel_bit_identical_under_row_permutation(case, rnd) -> None:
    x, labels_list = case
    perm = np.array(rnd.sample(range(x.shape[0]), x.shape[0]))
    moved = [permuted(labels, perm) for labels in labels_list]
    base = mv_hat_columns_multi(x, labels_list).tobytes()
    assert mv_hat_columns_multi(x, labels_list, ranked=ranked_columns(x)).tobytes() == base
    assert mv_hat_columns_multi(x[perm], moved).tobytes() == base
    assert mv_hat_columns_multi(x[perm], moved,
                                ranked=ranked_columns(x[perm])).tobytes() == base


@SETTINGS
@given(response_cases())
def test_fused_fmv_matches_bruteforce_sum(case) -> None:
    x, y, kind, schemes = case
    fused = fmv_scores(x, y, kind, schemes)[0]
    live = [lab for lab in labels_for_schemes(y, kind, schemes) if lab is not None]
    for j in range(x.shape[1]):
        want = sum(mv_hat_bruteforce(x[:, j], labels) for labels in live)
        assert abs(fused[j] - want) <= 1e-12


@SETTINGS
@given(response_cases())
def test_fks_matches_pairwise_oracle(case) -> None:
    x, y, kind, schemes = case
    scores = fks_scores(x, y, kind, schemes)
    labels_list = labels_for_schemes(y, kind, schemes)
    for j in range(x.shape[1]):
        assert abs(scores[j] - fks_oracle(x[:, j], labels_list)) <= 1e-12


@SETTINGS
@given(response_cases(), st.randoms(use_true_random=False))
def test_fks_bit_identical_under_row_permutation(case, rnd) -> None:
    x, y, kind, schemes = case
    perm = np.array(rnd.sample(range(x.shape[0]), x.shape[0]))
    base = fks_scores(x, y, kind, schemes).tobytes()
    assert fks_scores(x, y, kind, schemes, ranked=ranked_columns(x)).tobytes() == base
    assert fks_scores(x[perm], y[perm], kind, schemes).tobytes() == base
    assert fks_scores(x[perm], y[perm], kind, schemes,
                      ranked=ranked_columns(x[perm])).tobytes() == base


@SETTINGS
@given(response_cases(kinds=(ResponseKind.CONTINUOUS, ResponseKind.CATEGORICAL)),
       st.lists(st.integers(1, 50), min_size=40, max_size=40))
def test_fks_and_fmv_bit_identical_under_increasing_map_of_y(case, steps) -> None:
    # y's distinct values (at most 40) go to increasing integers, so the map
    # keeps them distinct and in order; count slices read y's values, not
    # only their order, so counts are left out
    x, y, kind, schemes = case
    _, dense = np.unique(y, return_inverse=True)
    moved = np.cumsum(np.asarray(steps, dtype=np.float64))[dense.ravel()]
    assert fks_scores(x, moved, kind, schemes).tobytes() == \
        fks_scores(x, y, kind, schemes).tobytes()
    assert fmv_scores(x, moved, kind, schemes)[1].tobytes() == \
        fmv_scores(x, y, kind, schemes)[1].tobytes()


@SETTINGS
@given(sis_cases())
def test_sis_scores_each_column_alone(case) -> None:
    x, y, width, subset = case
    n, p = x.shape
    scores = pearson_scores(x, y)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fmvscreen.baselines, "_BLOCK_CELLS", width * n)
        assert pearson_scores(x, y).tobytes() == scores.tobytes()
    assert pearson_scores(x[:, subset], y).tobytes() == scores[subset].tobytes()
    for j in range(p):
        assert np.float64(pearson_score(x[:, j], y)).tobytes() == scores[j].tobytes()
        if (x[:, j] == x[0, j]).all():
            assert scores[j] == 0.0
        else:
            assert abs(scores[j] - abs(np.corrcoef(x[:, j], y)[0, 1])) <= 1e-12
