"""Reference screeners: Pearson correlation, Kendall rank correlation, and a
fused Kolmogorov-distance filter built on the same slicing machinery."""

from __future__ import annotations

import math

import numpy as np

from .checks import check_matrix, check_ranked, check_response, check_vector
from .errors import InputError
from .mv import _BLOCK_CELLS, _column_blocks, ranked_columns
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
# fks's block budget in bytes per ``_BLOCK_CELLS`` cell, 896 KiB a block, so
# that a block's count lanes and gap temporaries stay well inside a 2 MiB
# per-core L2 cache and designs 1a and 7 (200 x 3000 and 400 x 1000, the
# default schemes) run blocks no wider than the kernel's: 300 and 143
# columns. Per scheme a block's count scan (``_chunk_scan``) makes
# (C - 1) + (m - 1) + 1 + (n - C m) numpy calls, C = isqrt(n) and
# m = n // C, and runs about 3 sqrt(n) ufunc inner loops a lane, so its
# time grows with the block count as well as with the cells
_FKS_BUDGET_BYTES = 14


def fks_scores(x: np.ndarray, y, kind: ResponseKind = ResponseKind.CONTINUOUS,
               schemes=None, *, ranked: np.ndarray | None = None) -> np.ndarray:
    """Per scheme, the largest Kolmogorov distance between any two per-slice
    conditional ECDFs of a column, summed over schemes.

    Cost: one column sort for x's ranked view (``mv.ranked_columns``; none
    when ``ranked`` passes it already built), then per column block and
    packed slice code (``_packed_codes``: every scheme's labels in one code
    while they fit) one in-place sort of keys (rank << c) | code, c the
    code's bit width, in the smallest unsigned dtype that holds them. The
    codes are capped at 64 - bit_length(n - 1) bits, so a key always fits.
    The sort orders each column by rank and a tie run by code; only a tie
    run's last position is read, so that order within a run changes no
    score. The low c bits then give each sorted position's code, and the
    bits above its run start, which flag the tied columns' positions inside
    a run. One transposing cast copies the codes out, in chunk order
    (``_chunks``: each column's positions as C = isqrt(n) slabs of m = n // C
    rows), as do the flags, and per scheme O(p * n * s_eff) small-integer
    adds and maxima in exact integers (``_widest_ecdf_gap``), the counts
    summed in (C - 1) + (m - 1) + 1 + (n - C m) numpy calls a block
    (``_chunk_scan``). No step after the scan reads the positions' order.
    Memory: the columns go through blocks of at most ``_FKS_BUDGET_BYTES`` *
    ``mv._BLOCK_CELLS`` bytes (896 KiB). A block cell holds a byte of
    tie-run flags and, at its fullest, either a code's sorted keys beside
    the tied columns' copy of them (or, once that is freed, the flags' copy
    in chunk order) or its sorted codes, or those codes with
    ``_scheme_bytes`` for the scheme that needs most. No temporary grows
    with p.
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
    bits = (n - 1).bit_length()
    codes, widths, fields = _packed_codes(live, 64 - bits)
    keys = [np.min_scalar_type(((n - 1) << width) | ((1 << width) - 1)) for width in widths]
    count_types = [np.min_scalar_type(labels.counts.max()) for labels in live]
    total = n * (n - 1) // 2
    # a block cell's bytes at their most, beside a byte of tie-run flags: a
    # code's sorted keys with the tied columns' copy of them or with its
    # sorted codes, or a scheme's gap search
    cell_bytes = 1 + max([2 * key.itemsize for key in keys]
                         + [_scheme_bytes(labels, count, codes[c].dtype)
                            for labels, count, (c, _) in zip(live, count_types, fields)])
    for lo, hi in _column_blocks(p, _FKS_BUDGET_BYTES * _BLOCK_CELLS // (n * cell_bytes)):
        # a column's ranks sum to n (n - 1) / 2 less the pairs it ties; on
        # tied columns only a tie run's last position holds the ECDF there
        tied = np.flatnonzero(ranked[lo:hi].sum(axis=1, dtype=np.int64) < total)
        inside_run = None
        for c, (code, width, key) in enumerate(zip(codes, widths, keys)):
            block = np.left_shift(ranked[lo:hi], key.type(width), dtype=key)
            block |= code
            block.sort(axis=1)
            if inside_run is None:
                # sorted position t + 1 continues t's run when its run
                # starts at or before t, so when its key is below (t + 1) << c
                flags = np.zeros((tied.size, n), dtype=bool)
                np.less(block[tied, 1:], np.arange(1, n, dtype=key) << key.type(width),
                        out=flags[:, :-1])
                inside_run = np.empty_like(flags)
                _chunk_ordered(inside_run.T, flags.T)
                del flags
            # the code at each column's sorted positions, in chunk order
            # (``_chunks``), under any run-start bits the cast keeps, which
            # no field reads
            sorted_codes = np.empty((n, hi - lo), dtype=code.dtype)
            _chunk_ordered(sorted_codes, block.T)
            del block
            for labels, count, (of, shift) in zip(live, count_types, fields):
                if of == c:
                    out[lo:hi] += _widest_ecdf_gap(sorted_codes, shift, tied, inside_run,
                                                   labels, count)
            del sorted_codes
        del inside_run  # before the next block allocates its own
    return out


def _packed_codes(live, room: int) -> tuple[list[np.ndarray], list[int], list[tuple[int, int]]]:
    """Every slicing's labels g - 1 packed into per-row codes of at most
    ``room`` bits, ``bit_length(s_eff - 1)`` bits a slicing, filled greedily
    in order, each code in the smallest unsigned dtype that holds its bits;
    the codes' bit widths; and for each slicing, the index of its code and
    its field's shift there."""
    fields, used = [], []
    for labels in live:
        width = int(labels.s_eff - 1).bit_length()
        if not used or used[-1] + width > room:
            used.append(0)
        fields.append((len(used) - 1, used[-1]))
        used[-1] += width
    codes = [np.zeros(live[0].n, dtype=np.min_scalar_type((1 << bits) - 1)) for bits in used]
    for labels, (c, shift) in zip(live, fields):
        code = codes[c]
        code |= (labels.g - 1).astype(code.dtype) << code.dtype.type(shift)
    return codes, used, fields


def _scheme_bytes(labels: SliceLabels, count: np.dtype, code: np.dtype) -> int:
    """``_widest_ecdf_gap``'s bytes a block cell for a slicing at their
    most, with its sorted codes: its s_eff count lanes beside its labels or
    its gap temporaries (the running largest and smallest, and a scaled
    lane unless every slice has one size), or, once the lanes are freed,
    four gap temporaries."""
    value = _gap_type(labels).itemsize
    temporaries = 2 if _equal_sizes(labels) else 3
    lanes = labels.s_eff * count.itemsize + max(code.itemsize, temporaries * value)
    return code.itemsize + max(lanes, 4 * value)


def _size_lcm(labels: SliceLabels) -> int:
    return math.lcm(*(int(size) for size in labels.counts))


def _equal_sizes(labels: SliceLabels) -> bool:
    return labels.counts.min() == labels.counts.max()


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

    ``code`` and ``inside_run`` hold the positions in chunk order
    (``_chunks``), and every step here but the count scan ignores that
    order: the folds, the gap, the column maxima and the float refinement
    at the widest gap each read a position by itself. Each slice's counts
    are one lane, an (n, p) array of its own, so the indicator, the scaling
    and the folds each run over whole lanes, and the running counts sum
    every lane at once (``_chunk_scan``), mostly in adds of whole slabs of
    m p cells. A slicing whose slices all have one size L skips the
    scaling: its counts are already h. Cost: O(n * p * s_eff)
    small-integer operations in O(s_eff + sqrt(n)) numpy calls, and two
    divisions per position at a column's widest exact gap. Memory per block
    cell: ``_scheme_bytes``.
    """
    # (n, p) slice labels g - 1 in each column's sorted order, left in their
    # field of the code: (g - 1) << shift
    field = ((1 << int(labels.s_eff - 1).bit_length()) - 1) << shift
    gs = np.bitwise_and(code, code.dtype.type(field))
    n, p = gs.shape
    # counts[k, row(t), j]: entries of slice k + 1 among column j's first
    # t + 1 sorted entries, row(t) position t's row in chunk order; one-byte
    # counts take the indicator as bools, uncast
    counts = np.empty((labels.s_eff, n, p), dtype=count)
    slices = np.arange(labels.s_eff, dtype=code.dtype) << code.dtype.type(shift)
    np.equal(gs, slices[:, None, None],
             out=counts.view(bool) if counts.itemsize == 1 else counts)
    del gs
    _chunk_scan(counts)

    lcm = _size_lcm(labels)
    value = _gap_type(labels)
    exact = value.kind == "u"
    # equal sizes leave the counts as their own scaled counts, in their
    # dtype; 0 and L (1 in floats) bound every scaled count, so the first
    # lane starts the running largest and smallest
    scaled = None if _equal_sizes(labels) else np.empty((n, p), dtype=value)
    for k, size in enumerate(labels.counts.tolist()):
        # c / size as the integer c * (L / size) over L, or in floats past
        # the bound
        lane = counts[k]
        if scaled is not None:
            if exact:
                np.multiply(lane, value.type(lcm // size), out=scaled, dtype=value)
            else:
                np.divide(lane, size, out=scaled)
            lane = scaled
        if k == 0:
            hi, lo = lane.copy(), lane.copy()
        else:
            np.maximum(hi, lane, out=hi)
            np.minimum(lo, lane, out=lo)
    del counts, scaled
    gap = np.subtract(hi, lo, out=hi)
    if tied.size:
        gap[:, tied] = np.where(inside_run.T, 0, gap[:, tied])
    widest = gap.max(axis=0)
    if not exact:
        return widest
    # every (row, column) at its column's widest exact gap
    row, column = np.divmod(np.flatnonzero(gap == widest), p)
    low = lo[row, column]
    f = np.divide(low + widest[column], float(lcm), dtype=np.float64)
    f -= np.divide(low, float(lcm), dtype=np.float64)
    out = np.zeros(p)
    np.maximum.at(out, column, f)
    return out


def _chunks(n: int) -> tuple[int, int]:
    """fks's chunk order for n sorted positions: C = isqrt(n) positions a
    chunk and m = n // C whole chunks. Position t = c C + r (c < m, r < C)
    is stored at row r m + c, so the rows come as C slabs of m, slab r
    holding every chunk's r-th position; the positions t >= C m stay at row
    t. For n < 4, C is 1 and the order is the natural one."""
    size = math.isqrt(n)
    return size, n // size


def _chunk_ordered(dst: np.ndarray, src: np.ndarray) -> None:
    """``src``, n sorted positions along its first axis, copied into ``dst``
    in chunk order (``_chunks``), cast unsafely: one copy of the whole
    chunks as a swapaxes view, then the rows left over. Either may be any
    strided view; splitting its first axis never copies."""
    size, m = _chunks(src.shape[0])
    body = size * m
    np.copyto(dst[:body].reshape(size, m, *dst.shape[1:]),
              src[:body].reshape(m, size, *src.shape[1:]).swapaxes(0, 1), casting="unsafe")
    np.copyto(dst[body:], src[body:], casting="unsafe")


def _chunk_scan(lanes: np.ndarray) -> None:
    """``lanes``, (s, n, p) with its positions in chunk order (``_chunks``),
    summed along the positions in place: ``np.cumsum(axis=1)`` in the
    natural order, in the lanes' own dtype. C - 1 adds of whole slabs, each
    (s, m p), sum every chunk within itself; m - 1 row adds along the last
    slab turn the chunk totals into prefixes; one broadcast add puts chunk
    c - 1's prefix onto chunk c's other rows; the rows past the chunks run
    one by one. That is (C - 1) + (m - 1) + 1 + (n - C m) calls and about
    3 sqrt(n) inner loops a lane, each slab add one contiguous run of m p
    cells. Every partial sum counts one slice's entries among some
    positions, so no add can overflow a dtype that holds the slice sizes,
    and the integer sums are the same whatever their order.
    """
    s, n = lanes.shape[:2]
    size, m = _chunks(n)
    body = size * m
    grid = lanes[:, :body].reshape(s, size, m, *lanes.shape[2:])
    # the row views are made once: indexing in the loops costs more than
    # the adds of the shortest rows
    slabs = list(grid.swapaxes(0, 1))
    for before, here in zip(slabs, slabs[1:]):
        np.add(before, here, out=here)
    ends = list(slabs[-1].swapaxes(0, 1))
    for before, here in zip(ends, ends[1:]):
        np.add(before, here, out=here)
    np.add(grid[:, :-1, 1:], grid[:, -1:, :-1], out=grid[:, :-1, 1:])
    rows = list(lanes[:, body - 1:].swapaxes(0, 1))
    for before, here in zip(rows, rows[1:]):
        np.add(before, here, out=here)


def fks_score(x, y, kind: ResponseKind = ResponseKind.CONTINUOUS, schemes=None) -> float:
    return float(fks_scores(check_vector(x)[:, None], y, kind, schemes)[0])
