from __future__ import annotations

import itertools
import tracemalloc

import numpy as np
import pytest

from fmvscreen import (
    Dataset,
    InputError,
    ResponseKind,
    build_quantile_slices,
    default_schemes,
    fks_score,
    fks_scores,
    fmv_hat,
    fmv_scores,
    kendall_score,
    kendall_scores,
    mv_hat,
    mv_hat_bruteforce,
    pearson_score,
    pearson_scores,
    screen,
)
import fmvscreen.baselines
import fmvscreen.mv
from fmvscreen.baselines import (
    _chunk_ordered,
    _chunk_scan,
    _chunks,
    _gap_type,
    _packed_codes,
    _widest_ecdf_gap,
    kendall_score_bruteforce,
)
from fmvscreen.mv import ranked_columns, tie_starts
from fmvscreen.screening import _resolve_schemes, labels_for_schemes


def test_pearson_perfect_and_anticorrelated() -> None:
    x = np.array([1.0, 2.0, 3.0])
    assert pearson_score(x, x) == pytest.approx(1.0)
    assert pearson_score(x, x[::-1]) == pytest.approx(1.0)


def test_pearson_hand_value() -> None:
    x = np.array([1.0, 2.0, 3.0, 4.0])
    y = np.array([1.0, 3.0, 2.0, 4.0])
    assert pearson_score(x, y) == pytest.approx(abs(np.corrcoef(x, y)[0, 1]))
    assert pearson_score(x, y) == pytest.approx(0.8)


def test_pearson_constant_column_scores_zero() -> None:
    y = np.array([1.0, 2.0, 3.0])
    assert pearson_score(np.full(3, 5.0), y) == 0.0
    with pytest.raises(InputError):
        pearson_score(y, np.full(3, 5.0))


def test_pearson_constant_columns_score_exactly_zero_in_a_wide_matrix() -> None:
    # the float mean of 200 copies of a constant need not be the constant
    # (summed row by row, 0.1 and pi miss; summed pairwise, 1/3 and 1.1), so
    # its centred column is not all zeros; it must still score exactly 0, as
    # must a column of -0.0 and 0.0, while a column one ulp off is live
    rng = np.random.default_rng(28)
    n = 200
    constants = [0.1, np.pi, 1 / 3, 1.1]
    signed_zero = np.where(rng.random(n) < 0.5, -0.0, 0.0)
    near = np.full(n, 1 / 3)
    near[7] = np.nextafter(1 / 3, 1.0)
    x = np.column_stack([np.full((n, len(constants)), constants), signed_zero,
                         rng.normal(size=n), near])
    y = rng.normal(size=n)
    scores = pearson_scores(x, y)
    assert scores[:5].tolist() == [0.0] * 5
    assert scores[5] > 0.0 and scores[6] > 0.0
    for j in range(5):
        assert pearson_score(x[:, j], y) == 0.0


def test_kendall_perfect_agreement() -> None:
    x = np.array([3.0, 1.0, 2.0, 5.0, 4.0])
    assert kendall_score(x, x) == pytest.approx(1.0)


def test_kendall_hand_value() -> None:
    # concordant 5, discordant 1 over 6 pairs: (5 - 1) / 6 = 2/3
    x = np.array([1.0, 2.0, 3.0, 4.0])
    y = np.array([1.0, 3.0, 2.0, 4.0])
    assert kendall_score(x, y) == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_kendall_fast_path_equals_pairwise_oracle() -> None:
    rng = np.random.default_rng(13)
    for trial in range(40):
        n = int(rng.integers(2, 201))
        if trial % 2:
            x = rng.normal(size=n)
            y = rng.normal(size=n)
        else:
            x = rng.integers(0, 6, size=n).astype(float)
            y = rng.integers(0, 4, size=n).astype(float)
        assert kendall_score(x, y) == pytest.approx(
            kendall_score_bruteforce(x, y), abs=1e-14
        )
    # matrix inputs: every column of the vectorised path against the oracle
    for n, x, y in kendall_matrix_cases(rng):
        scores = kendall_scores(x, y)
        assert scores.shape == (x.shape[1],)
        for j in range(x.shape[1]):
            assert scores[j] == pytest.approx(
                kendall_score_bruteforce(x[:, j], y), abs=1e-14
            )


def kendall_matrix_cases(rng):
    """(n, x, y) with ties in x, in y, in both, count-valued and constant y."""
    cases = []
    for n in (2, 3, 7, 40, 120):
        cont = rng.normal(size=(n, 6))
        tied = np.round(cont, 0)
        tied[:, 5] = 1.5  # a constant column
        y_cont = rng.normal(size=n)
        cases += [
            (n, tied, y_cont),                                     # ties in x only
            (n, cont, np.round(y_cont)),                           # ties in y only
            (n, tied, np.round(y_cont)),                           # ties in both
            (n, tied, rng.integers(0, 3, size=n).astype(float)),   # integer y
            (n, cont, rng.poisson(1.0, size=n).astype(float)),     # count y
            (n, tied, np.full(n, 4.0)),                            # constant y
        ]
    return cases


def test_kendall_matrix_equals_scalar_path_exactly() -> None:
    rng = np.random.default_rng(20)
    for n, x, y in kendall_matrix_cases(rng):
        scores = kendall_scores(x, y)
        for j in range(x.shape[1]):
            assert scores[j] == kendall_score(x[:, j], y)


def test_kendall_bit_identical_under_row_permutation_with_tied_y() -> None:
    rng = np.random.default_rng(21)
    for n, x, y in kendall_matrix_cases(rng):
        perm = rng.permutation(n)
        assert np.array_equal(kendall_scores(x[perm], y[perm]), kendall_scores(x, y))


def test_kendall_wide_matrix_across_column_blocks() -> None:
    # every column's ranks come from one view of the whole matrix, so the
    # columns at and beside 256 and 512 must score as they do alone
    rng = np.random.default_rng(22)
    x = np.round(rng.normal(size=(30, 600)), 1)
    y = np.round(rng.normal(size=30), 1)
    scores = kendall_scores(x, y)
    for j in (0, 255, 256, 257, 511, 512, 599):
        assert scores[j] == kendall_score(x[:, j], y)
        assert scores[j] == pytest.approx(kendall_score_bruteforce(x[:, j], y), abs=1e-14)


@pytest.mark.parametrize("n", [255, 256, 257])
def test_kendall_at_the_rank_dtype_edge(n) -> None:
    # ranks take one byte up to n = 255 and two from 256 on; with and
    # without a prepared view, ties or none, the scores match the oracle
    rng = np.random.default_rng(n)
    x = np.column_stack([rng.normal(size=n), np.round(rng.normal(size=(n, 3)), 1),
                         np.full(n, 3.0)])
    x[:, 1] = x[:, 1] + np.round(rng.normal(size=n))
    for y in (rng.normal(size=n), np.round(x[:, 0] + rng.normal(size=n))):
        own = kendall_scores(x, y)
        assert np.array_equal(kendall_scores(x, y, ranked=ranked_columns(x)), own)
        for j in range(x.shape[1]):
            assert own[j] == pytest.approx(kendall_score_bruteforce(x[:, j], y), abs=1e-14)


def test_kendall_constant_response_skips_the_column_sort(monkeypatch) -> None:
    def no_sort(x):
        raise AssertionError("a constant response needs no ranked view")

    monkeypatch.setattr(fmvscreen.baselines, "ranked_columns", no_sort)
    x = np.random.default_rng(47).normal(size=(12, 3))
    assert np.array_equal(kendall_scores(x, np.full(12, 2.0)), np.zeros(3))


def test_kendall_all_ties_score_zero() -> None:
    y = np.array([1.0, 2.0, 3.0])
    assert kendall_score(np.full(3, 2.0), y) == 0.0
    assert kendall_score(y, np.full(3, 2.0)) == 0.0


def test_fks_constant_column_zero() -> None:
    rng = np.random.default_rng(14)
    assert fks_score(np.full(60, 1.0), rng.normal(size=60), schemes=[3, 4]) == 0.0


def test_fks_median_split_hand_value() -> None:
    # evaluating the two conditional ECDFs at the 4 sample points gives gaps
    # 0.5, 1.0, 0.5, 0.0, so the statistic for the single 2-slice scheme is 1
    x = np.array([1.0, 2.0, 3.0, 4.0])
    y = np.array([1.0, 2.0, 3.0, 4.0])
    labels = build_quantile_slices(y, 2)
    assert np.array_equal(labels.g, [1, 1, 2, 2])
    assert fks_score(x, y, schemes=[2]) == 1.0


def fks_oracle(col, labels_list) -> float:
    """Per scheme, the largest gap between any two slices' conditional ECDFs
    over the sample points, summed over schemes; pairwise, no sorting."""
    leq = col[None, :] <= col[:, None]  # leq[i, k] = I(x_k <= x_i)
    total = 0.0
    for lab in labels_list:
        if lab is None:
            continue
        ecdfs = [leq[:, lab.g == s].mean(axis=1) for s in range(1, lab.s_eff + 1)]
        total += max(float(np.abs(a - b).max())
                     for a, b in itertools.combinations(ecdfs, 2))
    return total


def test_fks_equals_pairwise_oracle() -> None:
    rng = np.random.default_rng(25)
    schemes = [2, 3, 4, 5]
    for n in (5, 6, 13, 40, 97):
        x = rng.normal(size=(n, 5))
        x[:, 1] = np.round(x[:, 1], 1)
        x[:, 2] = np.round(x[:, 2])
        x[:, 3] = 2.5  # a constant column
        x[:, 4] = x[:, 0] + np.round(rng.normal(size=n), 1)
        y_cont = x[:, 0] + rng.normal(size=n)
        for y, kind in ((y_cont, ResponseKind.CONTINUOUS),
                        (np.round(y_cont, 1), ResponseKind.CONTINUOUS),
                        (rng.poisson(2.0, size=n).astype(float), ResponseKind.COUNT)):
            scores = fks_scores(x, y, kind, schemes)
            labels_list = labels_for_schemes(y, kind, schemes)
            assert scores[3] == 0.0
            for j in range(x.shape[1]):
                assert abs(scores[j] - fks_oracle(x[:, j], labels_list)) <= 1e-12


@pytest.mark.parametrize("n, schemes", [
    (255, [3, 7]),  # positions and counts just fit one byte
    (256, [3, 7]),  # and here they no longer do
    (600, None),  # 300 categorical labels: two-byte slice labels
    (2000, [3, 13]),
    (600, list(range(3, 31))),  # 118 bits of slice labels: two packed codes
])
def test_fks_matches_oracle_at_dtype_edges(n, schemes) -> None:
    rng = np.random.default_rng(n)
    x = rng.normal(size=(n, 3))
    x[:, 1] = np.round(x[:, 1], 1)
    if schemes is None:
        y = rng.permutation(np.arange(n) % 300).astype(float)
        kind = ResponseKind.CATEGORICAL
    else:
        y, kind = x[:, 0] + rng.normal(size=n), ResponseKind.CONTINUOUS
    scores = fks_scores(x, y, kind, schemes)
    labels_list = labels_for_schemes(y, kind, schemes)
    assert labels_list[0].s_eff == (300 if schemes is None else schemes[0])
    for j in range(x.shape[1]):
        assert abs(scores[j] - fks_oracle(x[:, j], labels_list)) <= 1e-12
    if schemes is not None:
        # the schemes read their labels from shared codes, one scheme alone
        # from its own; the sum in scheme order must not move a bit
        alone = np.zeros(x.shape[1])
        for s in schemes:
            alone += fks_scores(x, y, kind, [s])
        assert alone.tobytes() == scores.tobytes()


def fks_stable_argsort(x, y, kind, schemes) -> np.ndarray:
    """fks over all columns at once, each column ordered by a stable argsort
    of its ranks and its tie runs taken from ``mv.tie_starts``: an order
    that fks's sort of (rank << c) | code keys must match at every tie
    run's end. The codes and flags reach ``_widest_ecdf_gap`` in chunk
    order, through the copy fks_scores makes (``_chunk_ordered``)."""
    ranked = ranked_columns(x)
    schemes = _resolve_schemes(schemes, kind, x.shape[0])
    live = [lab for lab in labels_for_schemes(y, kind, schemes) if lab is not None]
    codes, _, fields = _packed_codes(live, 64)
    order = np.argsort(ranked, axis=1, kind="stable")
    tied, starts = tie_starts(ranked)
    flags = np.zeros(starts.shape, dtype=bool)
    flags[:, :-1] = starts[:, 1:] == starts[:, :-1]
    inside_run = np.empty_like(flags)
    _chunk_ordered(inside_run.T, flags.T)
    out = np.zeros(x.shape[1])
    for labels, (c, shift) in zip(live, fields):
        count = np.min_scalar_type(labels.counts.max())
        block = np.empty(x.shape, dtype=codes[c].dtype)
        _chunk_ordered(block, codes[c][order].T)
        out += _widest_ecdf_gap(block, shift, tied, inside_run, labels, count)
    return out


def key_bits(n: int, y, kind, schemes) -> list[int]:
    """The bits of fks's sort keys, bit_length(n - 1) rank bits above each
    packed code's."""
    live = [lab for lab in labels_for_schemes(y, kind, schemes) if lab is not None]
    bits = (n - 1).bit_length()
    return [bits + width for width in _packed_codes(live, 64 - bits)[1]]


# slice sizes whose lcm passes the exact bound (2**50) in 244 rows
_PAST_LCM_SIZES = [5, 7, 3, 11, 13, 8, 17, 19, 23, 29, 31, 37, 41]


# per row count, schemes and the bits of their sort keys: rank bits plus
# code bits at each side of 8, 16, 32 and 64, where the keys take one, two,
# four and eight bytes and, past 64, the codes split; n = 255 and 256 also
# straddle the view's one- and two-byte ranks
_KEY_EDGES = {
    2: [([2], [2])],
    3: [([2, 3], [5])],
    32: [([2, 3], [8])],
    33: [([2, 3], [9])],
    64: [([3, 4, 5, 6], [16])],
    65: [([3, 4, 5, 6], [17])],
    255: [(list(range(3, 11)), [32]), ([*range(2, 17), 65], [64])],
    256: [(list(range(3, 11)), [32]), ([*range(2, 17), 65], [64])],
    257: [(list(range(3, 11)), [33]), ([*range(2, 17), 65], [58, 16])],
}


@pytest.mark.parametrize("n", list(_KEY_EDGES))
@pytest.mark.parametrize("one_column_blocks", [False, True])
def test_fks_tagged_order_at_the_key_dtype_edges(monkeypatch, n, one_column_blocks) -> None:
    # fks orders a block by sorting rank-tagged codes (rank << c) | code in
    # the smallest unsigned dtype that holds them; whatever that dtype, and
    # however the codes split, the scores must match a stable argsort of
    # the ranks bit for bit
    rng = np.random.default_rng(n + 60)
    x = np.column_stack([rng.normal(size=n), np.round(rng.normal(size=n), 1),
                         rng.choice([-0.0, 0.0, 1.0], size=n), np.full(n, -0.0),
                         rng.integers(0, 3, size=n).astype(float)])
    y_cont = x[:, 0] + rng.normal(size=n)
    cases = []
    for schemes, bits in _KEY_EDGES[n]:
        assert key_bits(n, y_cont, ResponseKind.CONTINUOUS, schemes) == bits
        cases.append((y_cont, ResponseKind.CONTINUOUS, schemes))
    cases.append((rng.integers(0, min(n, 4), size=n).astype(float), ResponseKind.CATEGORICAL, None))
    if n > sum(_PAST_LCM_SIZES):
        pad = n - sum(_PAST_LCM_SIZES)
        sizes = _PAST_LCM_SIZES + [2] * (pad // 2 - pad % 2) + [3] * (pad % 2)
        y = rng.permutation(np.repeat(np.arange(len(sizes)), sizes)).astype(float)
        assert _gap_type(labels_for_schemes(y, ResponseKind.CATEGORICAL, None)[0]) == np.float64
        cases.append((y, ResponseKind.CATEGORICAL, None))
    if one_column_blocks:
        monkeypatch.setattr(fmvscreen.baselines, "_BLOCK_CELLS", 1)
    for y, kind, schemes in cases:
        scores = fks_scores(x, y, kind, schemes)
        assert scores.tobytes() == fks_stable_argsort(x, y, kind, schemes).tobytes()
        labels_list = labels_for_schemes(y, kind, _resolve_schemes(schemes, kind, n))
        for j in range(x.shape[1]):
            assert abs(scores[j] - fks_oracle(x[:, j], labels_list)) <= 1e-12
        assert scores[3] == 0.0


@pytest.mark.parametrize("n", [65536, 65537])
def test_fks_tagged_order_at_the_eight_byte_key_edge(n) -> None:
    # 16 rank bits and the 16 code bits of schemes 3-8 make the last
    # four-byte keys; one more row takes eight-byte keys (too many rows for
    # the pairwise oracle)
    rng = np.random.default_rng(n)
    x = np.column_stack([rng.normal(size=n), np.round(rng.normal(size=n), 1)])
    y = x[:, 0] + rng.normal(size=n)
    schemes = [3, 4, 5, 6, 7, 8]
    assert key_bits(n, y, ResponseKind.CONTINUOUS, schemes) == [32 if n == 65536 else 33]
    scores = fks_scores(x, y, ResponseKind.CONTINUOUS, schemes)
    assert scores.tobytes() == fks_stable_argsort(x, y, ResponseKind.CONTINUOUS, schemes).tobytes()


def test_fks_packs_each_scheme_into_a_code_of_at_most_64_bits() -> None:
    # bit_length(s_eff - 1) bits a scheme, and at most 64 - bit_length(n - 1)
    # bits a code, so that a key (rank << c) | code fits 64 bits: 10 bits
    # for schemes 3-6 and 16 for 3-8 fit one code, and the default schemes
    # 3-41 at n = 65535 take 182 bits in four codes of at most 48 (three
    # codes of 64 would hold them, but leave the rank no room)
    rng = np.random.default_rng(50)
    for n, widths in ((200, [10]), (400, [16]), (65535, [48, 45, 47, 42])):
        y = rng.normal(size=n)
        live = labels_for_schemes(y, ResponseKind.CONTINUOUS, default_schemes(n))
        codes, used, fields = _packed_codes(live, 64 - (n - 1).bit_length())
        assert used == widths
        assert [code.dtype for code in codes] == [np.min_scalar_type((1 << w) - 1) for w in widths]
        for labels, (c, shift) in zip(live, fields):
            mask = (1 << int(labels.s_eff - 1).bit_length()) - 1
            assert np.array_equal((codes[c] >> shift) & mask, labels.g - 1)


def straddling_ties(rng, n: int) -> np.ndarray:
    """An n-by-4 matrix whose tie runs cover the sorted positions on both
    sides of every 32nd one, plus a rounded and a constant column."""
    ranks = np.arange(n, dtype=float)
    for edge in range(32, n, 32):
        ranks[edge - 2:edge + 2] = edge - 2  # positions edge-2 .. edge+1 tie
    ranks[n - 3:] = n - 3  # a run ending at the last position
    x = np.column_stack([ranks, ranks[::-1] ** 3, np.round(rng.normal(size=n), 1),
                         np.full(n, -0.0)])
    return x[rng.permutation(n)]


@pytest.mark.parametrize("n", [31, 32, 33, 65])
def test_fks_matches_oracle_on_straddling_tie_runs(n) -> None:
    rng = np.random.default_rng(n + 40)
    x = straddling_ties(rng, n)
    y_cont = x[:, 0] + rng.normal(size=n)
    for y, kind, schemes in ((y_cont, ResponseKind.CONTINUOUS, [2, 3, 5]),
                             (np.round(y_cont / 4), ResponseKind.CONTINUOUS, [4]),
                             (rng.poisson(1.5, size=n).astype(float), ResponseKind.COUNT, [3, 4])):
        scores = fks_scores(x, y, kind, schemes)
        labels_list = labels_for_schemes(y, kind, schemes)
        for j in range(x.shape[1]):
            assert abs(scores[j] - fks_oracle(x[:, j], labels_list)) <= 1e-12
        assert scores[3] == 0.0
        perm = rng.permutation(n)
        assert np.array_equal(fks_scores(x[perm], y[perm], kind, schemes), scores)


def test_fks_two_byte_counts_with_unequal_categories() -> None:
    # one category of 300 entries forces two-byte counts; the rest have sizes
    # 40, 25, 25 and 10, two of them equal
    rng = np.random.default_rng(41)
    sizes = [300, 40, 25, 25, 10]
    y = rng.permutation(np.repeat(np.arange(len(sizes)), sizes)).astype(float)
    n = y.size
    x = np.column_stack([y + rng.normal(size=n), np.round(rng.normal(size=n), 1),
                         rng.normal(size=n)])
    labels_list = labels_for_schemes(y, ResponseKind.CATEGORICAL, None)
    assert sorted(labels_list[0].counts) == sorted(sizes)
    scores = fks_scores(x, y, ResponseKind.CATEGORICAL)
    for j in range(x.shape[1]):
        assert abs(scores[j] - fks_oracle(x[:, j], labels_list)) <= 1e-12
    perm = rng.permutation(n)
    assert np.array_equal(fks_scores(x[perm], y[perm], ResponseKind.CATEGORICAL), scores)


@pytest.mark.parametrize("sizes, past_exact_lcm", [
    ([14, 6, 14, 10, 6], False),
    # distinct primes whose lcm passes 2**50, two of them repeated
    ([43, 11, 47, 13, 17, 19, 23, 29, 31, 37, 41, 47, 11], True),
])
def test_fks_categorical_scores_ignore_how_the_labels_are_numbered(sizes, past_exact_lcm) -> None:
    # a non-monotone relabelling hands the slices to fks in another order;
    # every max and min over slices is exact, so no bit may move
    rng = np.random.default_rng(47)
    k = len(sizes)
    y = rng.permutation(np.repeat(np.arange(k), sizes))
    n = y.size
    x = np.column_stack([y + rng.normal(size=n), np.round(rng.normal(size=n), 1),
                         rng.normal(size=n), np.full(n, 0.5)])
    relabel = rng.permutation(k)
    assert (np.diff(relabel) > 0).any() and (np.diff(relabel) < 0).any()
    moved = (2.5 * relabel - 4.0)[y]
    y = y.astype(float)
    labels = labels_for_schemes(y, ResponseKind.CATEGORICAL, None)[0]
    assert (_gap_type(labels) == np.float64) == past_exact_lcm
    want = fks_scores(x, y, ResponseKind.CATEGORICAL)
    assert want[0] > 0.0
    view = ranked_columns(x)
    for response in (y, moved):
        for ranked in (None, view):
            got = fks_scores(x, response, ResponseKind.CATEGORICAL, ranked=ranked)
            assert got.tobytes() == want.tobytes()


def test_fks_column_blocks_are_bit_identical(monkeypatch) -> None:
    # a small cell budget splits the columns into blocks: one column each at
    # one cell, about three at 3 n cells; the scores must not notice
    rng = np.random.default_rng(45)
    n = 65
    x = np.column_stack([straddling_ties(rng, n), rng.normal(size=(n, 3))])
    cases = [(x[:, 0] + rng.normal(size=n), ResponseKind.CONTINUOUS, [3, 5]),
             (rng.permutation(np.arange(n) % 11).astype(float), ResponseKind.CATEGORICAL, None)]
    whole = [fks_scores(x, y, kind, schemes) for y, kind, schemes in cases]
    for budget in (1, 3 * n):
        monkeypatch.setattr(fmvscreen.baselines, "_BLOCK_CELLS", budget)
        for (y, kind, schemes), want in zip(cases, whole):
            assert np.array_equal(fks_scores(x, y, kind, schemes), want)


def test_fks_count_memory_stays_within_budget(monkeypatch) -> None:
    # 100 classes of two rows: unblocked, the counts alone would take
    # n * 100 * p = 4 MB; a budget of 200 kB (fks's bytes a budget cell)
    # must bound the whole call
    rng = np.random.default_rng(46)
    n, p = 200, 200
    x = rng.normal(size=(n, p))
    y = rng.permutation(np.arange(n) % 100).astype(float)
    ranked = ranked_columns(x)
    want = fks_scores(x, y, ResponseKind.CATEGORICAL, ranked=ranked)
    monkeypatch.setattr(fmvscreen.baselines, "_BLOCK_CELLS",
                        200_000 // fmvscreen.baselines._FKS_BUDGET_BYTES)
    tracemalloc.start()
    try:
        got = fks_scores(x, y, ResponseKind.CATEGORICAL, ranked=ranked)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, want)
    assert peak < 1_000_000


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 9, 15, 16, 17, 24, 25, 26, 400, 401])
def test_chunk_order_places_each_position(n) -> None:
    # position t = c C + r (c < m, r < C) goes to row r m + c, and the
    # positions past the C m of whole chunks stay where they are
    chunk, m = _chunks(n)
    assert chunk * chunk <= n < (chunk + 1) ** 2 and m == n // chunk
    want = np.arange(n)
    for t in range(chunk * m):
        want[(t % chunk) * m + t // chunk] = t
    got = np.empty((n, 3), dtype=np.uint16)
    _chunk_ordered(got, np.repeat(np.arange(n)[:, None], 3, axis=1))
    assert np.array_equal(got, np.repeat(want[:, None], 3, axis=1))


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16])
@pytest.mark.parametrize("s_eff", [2, 5])
def test_running_counts_equal_cumsum(dtype, s_eff) -> None:
    # fks's chunk-order scan (``_chunk_scan``): n = 1..70 takes in C = 1
    # (n < 4), exact squares and positions past the whole chunks; 127-130,
    # 195-197, 399-401, 1023-1026 and 1100 do so at larger C. Each slice's
    # hits are scaled, and past the dtype's top thinned, so that a full
    # column's count nears the top, where a wrap would show. The expected
    # counts are np.cumsum in the natural order, put into chunk order as
    # fks_scores puts its codes
    rng = np.random.default_rng(53)
    top = np.iinfo(dtype).max
    for n in [*range(1, 71), 127, 128, 129, 130, 195, 196, 197, 399, 400, 401,
              1023, 1024, 1025, 1026, 1100]:
        g = rng.integers(0, s_eff, size=(n, 9))
        hits = g[:, None, :] == np.arange(s_eff)[:, None]
        step = max(1, top // n)
        hits &= np.cumsum(hits, axis=0) <= top // step
        counts = (hits * step).astype(dtype)
        want = np.empty((s_eff, n, 9), dtype=dtype)
        _chunk_ordered(want.transpose(1, 0, 2), np.cumsum(counts, axis=0, dtype=dtype))
        lanes = np.empty((s_eff, n, 9), dtype=dtype)
        _chunk_ordered(lanes.transpose(1, 0, 2), counts)
        _chunk_scan(lanes)
        assert lanes.dtype == dtype and lanes.tobytes() == want.tobytes(), n


@pytest.mark.parametrize("n", [2, 3, 4, 15, 16, 17, 196, 200, 257, 400])
@pytest.mark.parametrize("tied", [False, True])
def test_fks_chunk_order_matches_the_stable_argsort(n, tied) -> None:
    # the chunk order at C = 1, around and at exact squares, and with
    # positions past the whole chunks: scores byte-identical to the
    # reference's, for continuous and categorical y
    rng = np.random.default_rng(n + 7)
    x = rng.normal(size=(n, 6))
    if tied:
        x = np.round(x, 1)
        x[:, 1] = rng.integers(0, 3, size=n)
    cases = [(x[:, 0] + rng.normal(size=n), ResponseKind.CONTINUOUS, [2, 3][:n - 1] if n < 27 else None),
             (rng.integers(0, 2, size=n).astype(float), ResponseKind.CATEGORICAL, None)]
    for y, kind, schemes in cases:
        scores = fks_scores(x, y, kind, schemes)
        assert scores.tobytes() == fks_stable_argsort(x, y, kind, schemes).tobytes()


def test_fks_takes_the_widest_float_among_equal_exact_gaps() -> None:
    # two slices of 3: the exact gap 1/3 is reached at sorted positions 0, 2
    # and 4, where the floats read fl(1/3) - 0, fl(2/3) - fl(1/3) and
    # 1 - fl(2/3); the last is one ulp wider, so the first argmax alone
    # would be wrong
    labels_in_order = np.array([0.0, 1.0, 1.0, 0.0, 0.0, 1.0])
    x = np.arange(6.0)
    assert 2 / 3 - 1 / 3 < 1 - 2 / 3
    for perm in (np.arange(6), np.array([4, 0, 5, 2, 1, 3])):
        score = fks_score(x[perm], labels_in_order[perm], ResponseKind.CATEGORICAL, [2])
        assert score == 1 - 2 / 3
    labels_list = labels_for_schemes(labels_in_order, ResponseKind.CATEGORICAL, None)
    assert fks_oracle(x, labels_list) == 1 - 2 / 3


def test_fks_past_the_exact_lcm_matches_the_oracle() -> None:
    # 30 classes of sizes 31 to 60: the lcm of the sizes has 84 bits, so fks
    # takes its float branch
    rng = np.random.default_rng(47)
    y = rng.permutation(np.repeat(np.arange(30), np.arange(31, 61))).astype(float)
    n = y.size
    x = np.column_stack([y + rng.normal(size=n), np.round(rng.normal(size=n), 1),
                         rng.normal(size=n), np.full(n, -0.0)])
    labels_list = labels_for_schemes(y, ResponseKind.CATEGORICAL, None)
    assert _gap_type(labels_list[0]) == np.float64
    scores = fks_scores(x, y, ResponseKind.CATEGORICAL)
    for j in range(x.shape[1]):
        assert abs(scores[j] - fks_oracle(x[:, j], labels_list)) <= 1e-12
    perm = rng.permutation(n)
    assert fks_scores(x[perm], y[perm], ResponseKind.CATEGORICAL).tobytes() == scores.tobytes()
    assert fks_scores(x[perm], y[perm], ResponseKind.CATEGORICAL,
                      ranked=ranked_columns(x[perm])).tobytes() == scores.tobytes()


def test_view_and_fks_memory_stays_flat_in_p() -> None:
    # at 200 x 20000 the view build goes through column blocks of about
    # 2**16 cells and fks through blocks of its byte budget, so their peaks
    # above the 8 B/cell input stay near the 1 B/cell of the ranks;
    # whole-matrix temporaries would take 17-19 B/cell (tracemalloc,
    # numpy 2.4: 1.20, 1.27 and 0.27 B/cell; the view took 1.31 while each
    # block held a float copy and an int64 argsort order, and fks 1.7 and
    # 0.7 in 3 MiB blocks, 1.4 and 0.4 in 1.5 MiB blocks)
    rng = np.random.default_rng(48)
    n, p = 200, 20000
    x = rng.normal(size=(n, p))
    x[:, ::7] = np.round(x[:, ::7], 1)  # one column in seven has tie runs
    y = x[:, 0] + rng.normal(size=n)

    def peak_per_cell(call):
        tracemalloc.start()
        try:
            result = call()
            return result, tracemalloc.get_traced_memory()[1] / (n * p)
        finally:
            tracemalloc.stop()

    ranked, view_peak = peak_per_cell(lambda: ranked_columns(x))
    alone, alone_peak = peak_per_cell(lambda: fks_scores(x, y))
    shared, shared_peak = peak_per_cell(lambda: fks_scores(x, y, ranked=ranked))
    assert alone.tobytes() == shared.tobytes()
    assert view_peak < 1.3
    assert alone_peak < 4.0
    assert shared_peak < 3.0


def test_sis_memory_stays_flat_in_p() -> None:
    # at 200 x 20000 sis goes through column blocks of about 2**16 cells, so
    # its peak above the 8 B/cell input is two block arrays, about 0.3
    # B/cell; a centred copy and its square would take 16 B/cell
    # (tracemalloc, numpy 2.4: 0.3 B/cell)
    rng = np.random.default_rng(49)
    n, p = 200, 20000
    x = rng.normal(size=(n, p))
    y = x[:, 0] + rng.normal(size=n)
    tracemalloc.start()
    try:
        scores = pearson_scores(x, y)
        peak = tracemalloc.get_traced_memory()[1] / (n * p)
    finally:
        tracemalloc.stop()
    assert scores.shape == (p,) and scores[0] > 0.5
    assert peak < 3.0


def test_view_and_fks_memory_at_design_7_shape() -> None:
    # 400 x 1000 with the default schemes 3-8: the view build's blocks are
    # a seventh of the matrix, and so are fks's 896 KiB blocks, whose cells
    # hold a two-byte packed code through the scheme loop (tracemalloc,
    # numpy 2.4: 4.08 and 2.29 B/cell above x); the view took 4.92 while
    # each block held a float copy and an int64 argsort order, and blocks
    # of a quarter of the matrix took 6.85; fks's 1.5 MiB, 3 MiB and 6 MiB
    # blocks took 3.14, 5.14 and 7.65
    rng = np.random.default_rng(51)
    n, p = 400, 1000
    x = rng.normal(size=(n, p))
    y = x[:, 0] + rng.normal(size=n)

    def peak_per_cell(call):
        tracemalloc.start()
        try:
            result = call()
            return result, tracemalloc.get_traced_memory()[1] / (n * p)
        finally:
            tracemalloc.stop()

    ranked, view_peak = peak_per_cell(lambda: ranked_columns(x))
    scores, fks_peak = peak_per_cell(lambda: fks_scores(x, y, ranked=ranked))
    assert scores.tobytes() == fks_scores(x, y).tobytes()
    assert view_peak < 4.3
    assert fks_peak < 2.5


def test_scorers_read_a_prepared_ranked_view_bit_identically(monkeypatch) -> None:
    rng = np.random.default_rng(42)
    n = 70
    x = np.round(rng.normal(size=(n, 9)), 1)  # every column has tie runs
    x[:, 4] = 2.0
    x[:, 7] = rng.normal(size=n)  # and one has none
    y = x[:, 0] + rng.normal(size=n)
    ranked = ranked_columns(x)
    own_fks = fks_scores(x, y, schemes=[3, 4])
    own_rcs = kendall_scores(x, y)
    own = fmv_scores(x, y, schemes=[3, 4])[1]
    assert np.array_equal(fmv_scores(x, y, schemes=[3, 4], threads=2)[1], own)

    def no_sort(x):
        raise AssertionError("a scorer given a view sorted the columns again")

    # with a view, no scorer and no thread block sorts again
    monkeypatch.setattr(fmvscreen.mv, "ranked_columns", no_sort)
    monkeypatch.setattr(fmvscreen.baselines, "ranked_columns", no_sort)
    assert np.array_equal(fks_scores(x, y, schemes=[3, 4], ranked=ranked), own_fks)
    assert np.array_equal(kendall_scores(x, y, ranked=ranked), own_rcs)
    for threads in (1, 2):
        assert np.array_equal(fmv_scores(x, y, schemes=[3, 4], threads=threads,
                                         ranked=ranked)[1], own)


@pytest.mark.parametrize("shape", [(70, 8), (69, 9), (9, 70)])
def test_scorers_reject_a_ranked_view_of_another_shape(shape) -> None:
    rng = np.random.default_rng(43)
    x = rng.normal(size=(70, 9))
    y = rng.normal(size=70)
    wrong = ranked_columns(rng.normal(size=shape))
    with pytest.raises(InputError, match="ranked view"):
        fks_scores(x, y, schemes=[3], ranked=wrong)
    with pytest.raises(InputError, match="ranked view"):
        kendall_scores(x, y, ranked=wrong)
    for threads in (1, 2):
        with pytest.raises(InputError, match="ranked view"):
            fmv_scores(x, y, schemes=[3], threads=threads, ranked=wrong)


def test_fks_degenerate_response_skips_the_column_sort(monkeypatch) -> None:
    def no_sort(x):
        raise AssertionError("a degenerate response needs no ranked view")

    monkeypatch.setattr(fmvscreen.baselines, "ranked_columns", no_sort)
    x = np.random.default_rng(44).normal(size=(12, 3))
    assert np.array_equal(fks_scores(x, np.full(12, 2.0), ResponseKind.COUNT, [3]), np.zeros(3))


def test_fks_single_slice_zero() -> None:
    x = np.array([3.0, 1.0, 2.0])
    y = np.array([0.0, 0.0, 0.0])
    assert fks_score(x, y, kind=ResponseKind.COUNT, schemes=[3]) == 0.0


def test_fks_range_bounded_by_scheme_count() -> None:
    rng = np.random.default_rng(15)
    y = rng.normal(size=100)
    x = np.column_stack([y, rng.normal(size=100)])
    scores = fks_scores(x, y, schemes=[3, 4, 5])
    assert np.all(scores >= 0.0) and np.all(scores <= 3.0)
    assert scores[0] > scores[1]


def test_rank_statistics_invariant_under_monotone_transform() -> None:
    rng = np.random.default_rng(16)
    y = rng.standard_normal(90)
    x = y + rng.standard_normal(90)
    assert kendall_score(x ** 3, y) == pytest.approx(kendall_score(x, y), abs=1e-15)
    assert fks_score(x ** 3, y, schemes=[3, 4]) == pytest.approx(
        fks_score(x, y, schemes=[3, 4]), abs=1e-15
    )


def test_pearson_not_invariant_under_monotone_transform() -> None:
    # cubing a skewed predictor moves the linear correlation; the rank-based
    # screeners above are what make screening robust to such rescalings
    rng = np.random.default_rng(17)
    x = np.exp(rng.standard_normal(300))
    y = x + 0.1 * rng.standard_normal(300)
    assert abs(pearson_score(x ** 3, y) - pearson_score(x, y)) > 0.05


def test_scores_invariant_under_row_permutation() -> None:
    rng = np.random.default_rng(18)
    y = rng.standard_normal(70)
    x = y + rng.standard_normal(70)
    perm = rng.permutation(70)
    assert pearson_score(x[perm], y[perm]) == pytest.approx(pearson_score(x, y))
    assert kendall_score(x[perm], y[perm]) == kendall_score(x, y)
    assert fks_score(x[perm], y[perm], schemes=[3]) == fks_score(x, y, schemes=[3])
    # rounded to one decimal, every column has tie runs the column sort may
    # order differently; the rank-based scores must not notice
    xm = np.round(y[:, None] + rng.standard_normal((70, 8)), 1)
    assert np.array_equal(fks_scores(xm[perm], y[perm], schemes=[3, 4]),
                          fks_scores(xm, y, schemes=[3, 4]))
    assert np.array_equal(fmv_scores(xm[perm], y[perm], schemes=[3, 4])[1],
                          fmv_scores(xm, y, schemes=[3, 4])[1])
    assert np.array_equal(kendall_scores(xm[perm], y[perm]), kendall_scores(xm, y))


def test_matrix_helpers_match_scalar_paths() -> None:
    rng = np.random.default_rng(19)
    y = rng.standard_normal(50)
    x = rng.standard_normal((50, 4))
    assert np.allclose(pearson_scores(x, y),
                       [pearson_score(x[:, j], y) for j in range(4)])
    assert np.allclose(kendall_scores(x, y),
                       [kendall_score(x[:, j], y) for j in range(4)])
    assert np.allclose(fks_scores(x, y, schemes=[3, 4]),
                       [fks_score(x[:, j], y, schemes=[3, 4]) for j in range(4)])


SCORERS = {
    "fmv": lambda x, y, kind=ResponseKind.CONTINUOUS, schemes=(3,):
        fmv_scores(x, y, kind, schemes)[0],
    "sis": pearson_scores,
    "rcs": kendall_scores,
    "fks": lambda x, y, kind=ResponseKind.CONTINUOUS, schemes=(3,):
        fks_scores(x, y, kind, schemes),
}


@pytest.mark.parametrize("name", sorted(SCORERS))
def test_scorers_reject_non_finite_predictor(name) -> None:
    rng = np.random.default_rng(23)
    y = rng.normal(size=20)
    x = rng.normal(size=(20, 3))
    x[4, 1] = np.nan
    with pytest.raises(InputError, match="column 1"):
        SCORERS[name](x, y)


@pytest.mark.parametrize("name", sorted(SCORERS))
def test_scorers_reject_non_finite_response(name) -> None:
    rng = np.random.default_rng(24)
    y = rng.normal(size=20)
    y[7] = np.inf
    with pytest.raises(InputError, match="non-finite"):
        SCORERS[name](rng.normal(size=(20, 3)), y)


@pytest.mark.parametrize("name", sorted(SCORERS))
def test_scorers_reject_a_response_of_another_length(name) -> None:
    # checked against x before any slicing: a constant y too long, and a 2-d
    # y, are both measured against the n rows of x
    rng = np.random.default_rng(26)
    x = rng.normal(size=(20, 3))
    with pytest.raises(InputError, match=r"^y must be a vector of length 20, got shape \(30,\)$"):
        SCORERS[name](x, np.ones(30))
    with pytest.raises(InputError, match=r"^y must be a vector of length 20, got shape \(20, 2\)$"):
        SCORERS[name](x, rng.normal(size=(20, 2)))


@pytest.mark.parametrize("kind", list(ResponseKind))
@pytest.mark.parametrize("name", ["fks", "fmv"])  # the scorers that slice y
def test_scorers_reject_an_empty_scheme_list(name, kind) -> None:
    rng = np.random.default_rng(27)
    y = rng.integers(0, 3, size=20).astype(float)
    with pytest.raises(InputError, match="^schemes must be nonempty$"):
        SCORERS[name](rng.normal(size=(20, 3)), y, kind, [])


def test_a_response_kind_may_be_given_by_its_value() -> None:
    rng = np.random.default_rng(29)
    x = rng.normal(size=(30, 4))
    y = np.abs(np.round(2 * rng.normal(size=30)))
    for kind in ResponseKind:
        for name in ("fmv", "fks"):
            want = SCORERS[name](x, y, kind, [3])
            assert SCORERS[name](x, y, kind.value, [3]).tobytes() == want.tobytes()
        dataset = Dataset(y=y, x=x, kind=kind.value)
        assert dataset.kind is kind
        want = screen(Dataset(y=y, x=x, kind=kind)).scores
        assert screen(dataset).scores.tobytes() == want.tobytes()


@pytest.mark.parametrize("kind", ["count", ResponseKind.COUNT])
def test_a_count_kind_rejects_a_non_integer_response(kind) -> None:
    rng = np.random.default_rng(30)
    x = rng.normal(size=(30, 4))
    y = np.abs(np.round(2 * rng.normal(size=30))) + 0.5
    message = "^count response must be nonnegative integer-valued$"
    for name in ("fmv", "fks"):
        with pytest.raises(InputError, match=message):
            SCORERS[name](x, y, kind, [3])
    with pytest.raises(InputError, match=message):
        Dataset(y=y, x=x, kind=kind)


def test_an_unknown_response_kind_is_rejected() -> None:
    rng = np.random.default_rng(31)
    x = rng.normal(size=(30, 4))
    y = rng.normal(size=30)
    for name in ("fmv", "fks"):
        with pytest.raises(InputError, match="^unknown response kind 'bogus'"):
            SCORERS[name](x, y, "bogus", [3])
    with pytest.raises(InputError, match="^unknown response kind 'bogus'"):
        Dataset(y=y, x=x, kind="bogus")
    with pytest.raises(InputError, match="^unknown response kind 'bogus'"):
        labels_for_schemes(y, "bogus", [3])


# every single-column wrapper, fed the one column it expects
WRAPPERS = {
    "mv_hat": lambda x, y: mv_hat(x, build_quantile_slices(y, 3)),
    "mv_hat_bruteforce": lambda x, y: mv_hat_bruteforce(x, build_quantile_slices(y, 3)),
    "fmv_hat": lambda x, y: fmv_hat(x, y, schemes=[3]).fused,
    "pearson_score": pearson_score,
    "kendall_score": kendall_score,
    "fks_score": lambda x, y: fks_score(x, y, schemes=[3]),
}


@pytest.mark.parametrize("name", sorted(WRAPPERS))
def test_single_column_wrappers_reject_a_matrix(name) -> None:
    rng = np.random.default_rng(25)
    y = rng.normal(size=20)
    x = rng.normal(size=20)
    assert 0.0 <= WRAPPERS[name](x, y) <= 3.0
    with pytest.raises(InputError, match=r"^expected a vector, got shape \(20, 2\)$"):
        WRAPPERS[name](rng.normal(size=(20, 2)), y)
