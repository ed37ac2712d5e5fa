"""Reference screeners: Pearson correlation, Kendall rank correlation, and a
fused Kolmogorov-distance filter built on the same slicing machinery."""

from __future__ import annotations

import math

import numpy as np

from .checks import check_matrix, check_ranked, check_response, check_vector
from .errors import InputError
from .mv import _BLOCK_CELLS, _column_blocks, ranked_columns, tie_starts
from .screening import ResponseKind, _resolve_schemes, labels_for_schemes
from .slicing import SliceLabels

__all__ = [
    "pearson_score",
    "pearson_scores",
    "kendall_score",
    "kendall_scores",
    "fks_score",
    "fks_scores",
]


# -- Pearson ---------------------------------------------------------------

_EPS = np.finfo(np.float64).eps


def pearson_scores(x: np.ndarray, y) -> np.ndarray:
    """|sample correlation| of y with every column; constant columns score 0.

    The columns go through blocks of at most ``mv._BLOCK_CELLS`` cells, each
    copied as contiguous (k, n) rows into one block array, centred in place,
    with one more block array for the products. A column's mean, sum of
    squares and cross-product with y are each one ``np.add.reduce`` along
    its own n values, so its score depends only on that column, y and n:
    never on the block width, p or BLAS threading. A column scores exactly 0
    when every entry equals its first (-0.0 equals 0.0), whatever its float
    mean. Memory above x: two block arrays, 16 bytes a block cell (2 MiB at
    ``mv._BLOCK_CELLS`` = 2**16), at any p.
    """
    x = check_matrix(x)
    n, p = x.shape
    y = check_response(y, n)
    if n < 2:
        raise InputError("need at least two observations")
    yc = y - np.add.reduce(y) / n
    ss_y = float(np.add.reduce(yc * yc))
    if ss_y == 0.0:
        raise InputError("response has zero variance")
    out = np.zeros(p)
    blocks = _column_blocks(p, _BLOCK_CELLS // n)
    width = max(hi - lo for lo, hi in blocks)
    block, product = np.empty((width, n)), np.empty((width, n))
    for lo, hi in blocks:
        xt, tmp = block[:hi - lo], product[:hi - lo]
        np.copyto(xt, x[:, lo:hi].T)
        xt -= (np.add.reduce(xt, axis=1) / n)[:, None]
        ss_x = np.add.reduce(np.multiply(xt, xt, out=tmp), axis=1)
        cross = np.add.reduce(np.multiply(xt, yc, out=tmp), axis=1)
        live = ss_x > 0.0
        # a constant column c has a float mean within n u |c| of c (u the unit
        # roundoff), so its root mean square after centring stays below
        # n eps |c|; only columns that small are compared entry by entry
        small = np.flatnonzero(np.sqrt(ss_x / n) <= n * _EPS * np.abs(x[0, lo:hi]))
        live[small] &= (x[:, lo + small] != x[0, lo + small]).any(axis=0)
        out[lo:hi][live] = np.abs(cross[live] / np.sqrt(ss_x[live] * ss_y))
    return out


def pearson_score(x, y) -> float:
    return float(pearson_scores(check_vector(x)[:, None], y)[0])


# -- Kendall tau-b ----------------------------------------------------------

def kendall_scores(x: np.ndarray, y, *, ranked: np.ndarray | None = None) -> np.ndarray:
    """|tau_b| with tie correction of y with every column; all-tied x or y scores 0.

    Algorithm: order the rows by y once (stable argsort) and let
    ``first_above[i]`` be the first row whose y is strictly larger than row
    i's. For each row i, compare rows ``first_above[i]:`` with row i over
    all columns at once, with one boolean ``>``: column sums give the
    concordant pairs among those with a strictly larger y. The columns enter
    as x's ranked view (``mv.ranked_columns``), competition ranks that
    compare exactly like the values, never as a float difference or sign
    matrix. A rank is the start of its row's tie run, and a sorted position
    lies ``position - rank`` places into its run, so a column's x-tied pairs
    are n (n - 1) / 2 less its rank sum. Pairs tied in both are counted with
    ``==`` over the rows tied in y, and only when y has ties. The discordant
    pairs are then the pairs with a larger y that are neither concordant nor
    tied in x.

    Cost: at most n (n - 1) p / 2 comparisons in n vectorised steps, plus
    one column sort, none when ``ranked`` passes the view already built and
    none for a constant y. Extra memory is O(n p): the ranks twice, in
    column order and in y order, at one byte per cell up to n = 255 (two up
    to 65535), and one comparison mask.

    Every pair count is an exact integer and the final float operations are
    the same as in the pairwise definition, so the scores are bit-identical
    to themselves under any row permutation.
    """
    x = check_matrix(x)
    n, p = x.shape
    y = check_response(y, n)
    check_ranked(ranked, x)
    if n < 2:
        raise InputError("need at least two observations")
    order = np.argsort(y, kind="stable")
    ys = y[order]
    total = n * (n - 1) // 2
    first_above = np.searchsorted(ys, ys, side="right")
    # the rows after row i and before first_above[i] tie with row i
    ties_y = int((first_above - np.arange(1, n + 1)).sum())
    if ties_y == total:
        return np.zeros(p)
    if ranked is None:
        ranked = ranked_columns(x)
    ties_x = total - ranked.sum(axis=1, dtype=np.int64)
    xo = ranked.T[order]  # (n, p), rows in y order
    del ranked  # a view built here is freed before the comparisons
    count = np.min_scalar_type(n)  # per-row counts stay below n
    mask = np.empty((n, p), dtype=bool)
    hits = mask.view(np.uint8)
    greater = np.zeros(p, dtype=np.int64)
    ties_both = np.zeros(p, dtype=np.int64)
    pairs_above = 0
    for i in range(n - 1):
        lo = first_above[i]
        if lo < n:
            np.greater(xo[lo:], xo[i], out=mask[lo:])
            greater += np.add.reduce(hits[lo:], axis=0, dtype=count)
            pairs_above += n - lo
        if lo > i + 1:
            np.equal(xo[i + 1:lo], xo[i], out=mask[i + 1:lo])
            ties_both += np.add.reduce(hits[i + 1:lo], axis=0, dtype=count)
    smaller = pairs_above - greater - (ties_x - ties_both)
    denom = np.sqrt((total - ties_x).astype(np.float64) * float(total - ties_y))
    out = np.zeros(p)
    live = denom != 0.0
    out[live] = np.abs((greater - smaller)[live] / denom[live])
    return out


def kendall_score(x, y) -> float:
    return float(kendall_scores(check_vector(x)[:, None], y)[0])


def kendall_score_bruteforce(x, y) -> float:
    """Pairwise O(n^2) concordance count; test oracle for kendall_scores."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = x.size
    dx = np.sign(x[:, None] - x[None, :])
    dy = np.sign(y[:, None] - y[None, :])
    upper = np.triu(np.ones((n, n), dtype=bool), k=1)
    concordant = int((upper & (dx * dy > 0)).sum())
    discordant = int((upper & (dx * dy < 0)).sum())
    total = n * (n - 1) // 2
    ties_x = int((upper & (dx == 0)).sum())
    ties_y = int((upper & (dy == 0)).sum())
    denom = math.sqrt(float(total - ties_x) * float(total - ties_y))
    if denom == 0.0:
        return 0.0
    return abs((concordant - discordant) / denom)


# -- Fused Kolmogorov filter -------------------------------------------------

# the largest lcm of a scheme's slice sizes whose ECDF gaps fks finds exactly
# in integers: up to it every scaled count is an exact float, and two exact
# gaps 1/lcm apart stay further apart than float rounding can close, up to
# 3 * 2**-54 on each
_EXACT_LCM = 1 << 50
# fks's block budget in bytes per ``_BLOCK_CELLS`` cell, 3 MiB a block: its
# count scan (``_running_counts``) pays about 2 sqrt(n) Python steps per
# scheme per block, so it keeps wider blocks than the kernel
_FKS_BUDGET_BYTES = 48


def fks_scores(x: np.ndarray, y, kind: ResponseKind = ResponseKind.CONTINUOUS,
               schemes=None, *, ranked: np.ndarray | None = None) -> np.ndarray:
    """Per scheme, the largest Kolmogorov distance between any two per-slice
    conditional ECDFs of a column, summed over schemes.

    Cost: one column sort for x's ranked view (``mv.ranked_columns``; none
    when ``ranked`` passes it already built), then per column block one
    radix argsort of the ranks, one gather of each packed slice code
    (``_packed_codes``) through it and the tie runs of ``mv.tie_starts``,
    shared by all schemes, and per scheme O(p * n * s_eff) small-integer
    adds and maxima in exact integers (``_widest_ecdf_gap``), the counts
    summed in about 2 sqrt(n) numpy calls a block. Memory: the columns go
    through blocks of at most ``_FKS_BUDGET_BYTES`` * ``mv._BLOCK_CELLS``
    bytes (3 MiB). A block cell holds, at its fullest, either
    its 8-byte sort order and its codes gathered and transposed, or the
    codes and, for the scheme that needs most, s_eff count-bytes (two per
    lane past 255 entries a slice), its labels and four temporaries of
    ``_gap_type``. No temporary grows with p.
    """
    x = check_matrix(x)
    n, p = x.shape
    y = check_response(y, n)
    check_ranked(ranked, x)
    schemes = _resolve_schemes(schemes, kind, n)
    live = [lab for lab in labels_for_schemes(y, kind, schemes) if lab is not None]
    out = np.zeros(p)
    if not live:
        return out
    if ranked is None:
        ranked = ranked_columns(x)
    codes, fields = _packed_codes(live)
    count_types = [np.min_scalar_type(labels.counts.max()) for labels in live]
    # a block cell's bytes at their most: the 8-byte sort order while a code
    # is gathered and transposed, or the codes with, for the scheme that
    # needs most, its count lanes and its labels or four gap temporaries
    code_bytes = sum(code.itemsize for code in codes)
    scheme_bytes = max(labels.s_eff * count.itemsize
                       + max(codes[c].itemsize, 4 * _gap_type(labels).itemsize)
                       for labels, count, (c, _) in zip(live, count_types, fields))
    cell_bytes = max(8 + 2 * code_bytes, code_bytes + scheme_bytes)
    for lo, hi in _column_blocks(p, _FKS_BUDGET_BYTES * _BLOCK_CELLS // (n * cell_bytes)):
        order = np.argsort(ranked[lo:hi], axis=1, kind="stable")
        # block[c][t, j]: code c of the row at column j's sorted position t
        block = [np.ascontiguousarray(code[order].T) for code in codes]
        del order
        tied, starts = tie_starts(ranked[lo:hi])
        # on tied columns only a tie run's last position holds the ECDF there
        inside_run = np.zeros(starts.shape, dtype=bool)
        np.equal(starts[:, 1:], starts[:, :-1], out=inside_run[:, :-1])
        del starts
        for labels, count, (c, shift) in zip(live, count_types, fields):
            out[lo:hi] += _widest_ecdf_gap(block[c], shift, tied, inside_run, labels, count)
        del block, inside_run  # before the next block allocates its own
    return out


def _packed_codes(live) -> tuple[list[np.ndarray], list[tuple[int, int]]]:
    """Every slicing's labels g - 1 packed into per-row codes of at most 64
    bits, ``bit_length(s_eff - 1)`` bits a slicing, filled greedily in order,
    each code in the smallest unsigned dtype that holds its bits; and for
    each slicing, the index of its code and its field's shift there."""
    fields, used = [], []
    for labels in live:
        width = int(labels.s_eff - 1).bit_length()
        if not used or used[-1] + width > 64:
            used.append(0)
        fields.append((len(used) - 1, used[-1]))
        used[-1] += width
    codes = [np.zeros(live[0].n, dtype=np.min_scalar_type((1 << bits) - 1)) for bits in used]
    for labels, (c, shift) in zip(live, fields):
        code = codes[c]
        code |= (labels.g - 1).astype(code.dtype) << code.dtype.type(shift)
    return codes, fields


def _size_lcm(labels: SliceLabels) -> int:
    return math.lcm(*(int(size) for size in labels.counts))


def _gap_type(labels: SliceLabels) -> np.dtype:
    """The dtype of ``_widest_ecdf_gap``'s scaled counts for a slicing: the
    smallest unsigned int that holds the lcm of its slice sizes, or float64
    past ``_EXACT_LCM``."""
    lcm = _size_lcm(labels)
    return np.min_scalar_type(lcm) if lcm <= _EXACT_LCM else np.dtype(np.float64)


def _widest_ecdf_gap(code: np.ndarray, shift: int, tied: np.ndarray,
                     inside_run: np.ndarray, labels: SliceLabels, count) -> np.ndarray:
    """Per column of a block, the largest gap between two slices' ECDFs over
    the sorted positions that end a tie run: every position but, on the
    columns ``tied``, those ``inside_run``. ``code`` is (n, p): the packed
    slice code (``_packed_codes``) of the row at each column's every sorted
    position, whose bits from ``shift`` on hold this slicing's labels g - 1.

    Slice s's ECDF at a position is c_s / m_s, its cumulative count over its
    size. With L the lcm of the sizes that is h / L for the integer
    h = c_s L / m_s, so each slice's counts, scaled by L / m_s into the
    smallest unsigned int that holds L and folded into a running largest and
    smallest, give every position's widest gap exactly, as hi - lo. Only the
    positions where that gap equals its column's largest, D, are read in
    floats, as fl(h / L) - fl((h - D) / L), and the column scores the
    largest of them. That is bit-identical to evaluating every ECDF in
    floats and comparing every pair:
    - the widest pair of rounded ECDFs is fl(max_s F_s) - fl(min_s F_s),
      because rounding is monotone;
    - fl(h / L) = fl(c / m), because the two rationals are equal and h and
      L are exact floats;
    - while L <= ``_EXACT_LCM`` (2**50) the three roundings move a gap by at
      most 3 * 2**-54, less than half of the 1 / L between two exact gaps,
      so no smaller exact gap rounds above a widest one.
    Past the bound, which only a categorical or tied response with many
    distinct slice sizes reaches, the counts are divided by their sizes in
    float64 and every position's float gap is taken, as the definition does.

    Cost: O(n * p * s_eff) small-integer operations, the running counts in
    about 2 sqrt(n) numpy calls (``_running_counts``), and two divisions per
    position at a column's widest exact gap. Memory per block cell: s_eff
    count lanes with the labels in the code's dtype, then three temporaries
    of ``_gap_type``, and four with a byte of mask once the lanes are freed.
    """
    # (n, p) slice labels g - 1 in each column's sorted order, left in their
    # field of the code: (g - 1) << shift
    field = ((1 << int(labels.s_eff - 1).bit_length()) - 1) << shift
    gs = np.bitwise_and(code, code.dtype.type(field))
    n, p = gs.shape
    # counts[t, k, j]: entries of slice k + 1 among column j's first t + 1
    # sorted entries; one-byte counts take the indicator as bools, uncast
    counts = np.empty((n, labels.s_eff, p), dtype=count)
    slices = np.arange(labels.s_eff, dtype=code.dtype) << code.dtype.type(shift)
    np.equal(gs[:, None, :], slices[:, None],
             out=counts.view(bool) if counts.itemsize == 1 else counts)
    del gs
    _running_counts(counts)

    lcm = _size_lcm(labels)
    value = _gap_type(labels)
    exact = value.kind == "u"
    # 0 and L (1 in floats) bound every scaled count, so they start the
    # running largest and smallest
    hi = np.zeros((n, p), dtype=value)
    lo = np.full((n, p), lcm if exact else 1, dtype=value)
    scaled = np.empty((n, p), dtype=value)
    for k, size in enumerate(labels.counts.tolist()):
        # c / size as the integer c * (L / size) over L, or in floats past
        # the bound
        if exact:
            np.multiply(counts[:, k], value.type(lcm // size), out=scaled, dtype=value)
        else:
            np.divide(counts[:, k], size, out=scaled)
        np.maximum(hi, scaled, out=hi)
        np.minimum(lo, scaled, out=lo)
    del counts, scaled
    gap = np.subtract(hi, lo, out=hi)
    if tied.size:
        gap[:, tied] = np.where(inside_run.T, 0, gap[:, tied])
    widest = gap.max(axis=0)
    if not exact:
        return widest
    # every (position, column) at its column's widest exact gap
    position, column = np.divmod(np.flatnonzero(gap == widest), p)
    low = lo[position, column]
    f = np.divide(low + widest[column], float(lcm), dtype=np.float64)
    f -= np.divide(low, float(lcm), dtype=np.float64)
    out = np.zeros(p)
    np.maximum.at(out, column, f)
    return out


def _running_counts(counts: np.ndarray) -> None:
    """``counts`` summed along its first axis in place, as ``np.cumsum(axis=0)``
    in its own dtype, in about 2 sqrt(n) adds of whole rows. With q = isqrt(n)
    and m = n // q, the first m q rows are m chunks of q rows: the q - 1 adds
    within a chunk run over every chunk at once, each chunk's last row is then
    added into the next chunk, and the fewer than q rows left run one by one.
    Every partial sum counts one slice's entries among some positions, so no
    add can overflow a dtype that holds the slice sizes, and the integer sums
    are the same whatever their order.
    """
    n = counts.shape[0]
    q = math.isqrt(n)
    m = n // q
    chunks = counts[:m * q].reshape(m, q, *counts.shape[1:])
    for t in range(1, q):
        np.add(chunks[:, t - 1], chunks[:, t], out=chunks[:, t])
    for c in range(1, m):
        np.add(chunks[c - 1, -1], chunks[c], out=chunks[c])
    for t in range(m * q, n):
        np.add(counts[t - 1], counts[t], out=counts[t])


def fks_score(x, y, kind: ResponseKind = ResponseKind.CONTINUOUS, schemes=None) -> float:
    return float(fks_scores(check_vector(x)[:, None], y, kind, schemes)[0])
