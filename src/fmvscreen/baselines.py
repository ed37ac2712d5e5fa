"""Reference screeners: Pearson correlation, Kendall rank correlation, and a
fused Kolmogorov-distance filter built on the same slicing machinery."""

from __future__ import annotations

import math

import numpy as np

from .checks import check_matrix, check_ranked, check_response, check_vector
from .errors import InputError
from .mv import _column_blocks, ranked_columns, tie_starts
from .screening import ResponseKind, labels_for_schemes
from .slicing import SliceLabels, default_schemes, distinct_sorted

__all__ = [
    "pearson_score",
    "pearson_scores",
    "kendall_score",
    "kendall_scores",
    "fks_score",
    "fks_scores",
]


# -- Pearson ---------------------------------------------------------------

def pearson_scores(x: np.ndarray, y) -> np.ndarray:
    """|sample correlation| of y with every column; constant columns score 0."""
    x = check_matrix(x)
    y = check_response(y, x.shape[0])
    if y.size < 2:
        raise InputError("need at least two observations")
    yc = y - y.mean()
    ss_y = float(yc @ yc)
    if ss_y == 0.0:
        raise InputError("response has zero variance")
    xc = x - x.mean(axis=0)
    ss_x = (xc * xc).sum(axis=0)
    out = np.zeros(x.shape[1])
    live = ss_x > 0.0
    out[live] = np.abs((xc[:, live].T @ yc) / np.sqrt(ss_x[live] * ss_y))
    return out


def pearson_score(x, y) -> float:
    return float(pearson_scores(check_vector(x)[:, None], y)[0])


# -- Kendall tau-b ----------------------------------------------------------

def _tie_pair_count(sorted_vals: np.ndarray) -> int:
    change = np.flatnonzero(sorted_vals[1:] != sorted_vals[:-1])
    runs = np.diff(np.concatenate(([0], change + 1, [sorted_vals.size])))
    return int((runs * (runs - 1) // 2).sum())


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
    to those of the former per-column merge-sort path, and to themselves
    under any row permutation.
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
    ties_y = _tie_pair_count(ys)
    if ties_y == total:
        return np.zeros(p)
    if ranked is None:
        ranked = ranked_columns(x)
    ties_x = total - ranked.sum(axis=1, dtype=np.int64)
    xo = ranked.T[order]  # (n, p), rows in y order
    del ranked  # a view built here is freed before the comparisons
    count = np.min_scalar_type(n)  # per-row counts stay below n
    first_above = np.searchsorted(ys, ys, side="right")
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
    ties_x = _tie_pair_count(np.sort(x))
    ties_y = _tie_pair_count(np.sort(y))
    denom = math.sqrt(float(total - ties_x) * float(total - ties_y))
    if denom == 0.0:
        return 0.0
    return abs((concordant - discordant) / denom)


# -- Fused Kolmogorov filter -------------------------------------------------

# sorted positions per step of fks's float stage, which bounds its float
# temporaries to a few (_ROW_CHUNK, p) arrays at any n
_ROW_CHUNK = 32
# bytes of one column block's slice counts: a scheme with many slices (a
# categorical response with many classes, say) is scored block by block, so
# its (n, s_eff, columns) count array stays within this at any p
_COUNT_BYTES = 1 << 26


def fks_scores(x: np.ndarray, y, kind: ResponseKind = ResponseKind.CONTINUOUS,
               schemes=None, *, ranked: np.ndarray | None = None) -> np.ndarray:
    """Per scheme, the largest Kolmogorov distance between any two per-slice
    conditional ECDFs of a column, summed over schemes.

    Cost: one column sort for x's ranked view (``mv.ranked_columns``; none
    when ``ranked`` passes it already built), then per column block one
    radix argsort of the ranks and the tie runs of ``mv.tie_starts``, shared
    by all schemes, and per scheme O(p * n * s_eff) small-integer adds and
    O(p * n * sizes) float divisions, where ``sizes`` counts the scheme's
    distinct slice sizes. Memory: s_eff count-bytes per cell for the
    per-slice counts (two per lane once a slice holds more than 255
    entries), at most ``_COUNT_BYTES`` for the scheme with the most, so
    every scheme fits the same column blocks; 8 bytes per block cell for the
    sort order; float temporaries bounded by ``_ROW_CHUNK`` rows.
    """
    x = check_matrix(x)
    n, p = x.shape
    y = check_response(y, n)
    check_ranked(ranked, x)
    if schemes is None:
        schemes = default_schemes(n)
    live = [lab for lab in labels_for_schemes(y, kind, schemes)
            if lab is not None and lab.s_eff > 1]
    out = np.zeros(p)
    if not live:
        return out
    if ranked is None:
        ranked = ranked_columns(x)
    count_types = [np.min_scalar_type(labels.counts.max()) for labels in live]
    most = min(_COUNT_BYTES // (n * labels.s_eff * count.itemsize)
               for labels, count in zip(live, count_types))
    for lo, hi in _column_blocks(p, most):
        order = np.argsort(ranked[lo:hi], axis=1, kind="stable")
        tied, starts = tie_starts(ranked[lo:hi])
        # on tied columns only a tie run's last position holds the ECDF there
        inside_run = np.zeros(starts.shape, dtype=bool)
        np.equal(starts[:, 1:], starts[:, :-1], out=inside_run[:, :-1])
        del starts
        for labels, count in zip(live, count_types):
            out[lo:hi] += _widest_ecdf_gap(order, tied, inside_run, labels, count)
    return out


def _widest_ecdf_gap(order: np.ndarray, tied: np.ndarray, inside_run: np.ndarray,
                     labels: SliceLabels, count) -> np.ndarray:
    """Per column of a block whose rows ``order`` sort, the largest gap
    between two slices' ECDFs over the sorted positions that end a tie run:
    every position but, on the columns ``tied``, those ``inside_run``.

    Every slice's cumulative counts are built at once in an (n, s_eff, p)
    array of dtype ``count``, one contiguous add per sorted position. Two
    identities keep the result bit-identical to evaluating every ECDF in
    floats and comparing every pair: max over pairs of |F_a - F_b| equals
    fl(max_s F_s - min_s F_s), because rounded subtraction is monotone in
    each argument; and among slices of one size m, max_s fl(c_s / m) =
    fl(max_s c_s / m), because rounded division by m is monotone. So the
    counts are reduced in integers per slice size, and each size divides
    once.
    """
    # (p, n) slice labels in each column's sorted order
    gs = labels.g.astype(np.min_scalar_type(labels.s_eff))[order]
    p, n = gs.shape
    sizes = labels.counts
    lanes = np.arange(1, sizes.size + 1, dtype=gs.dtype)
    # counts[t, s - 1, j]: slice-s entries among column j's first t + 1 sorted
    counts = np.empty((n, sizes.size, p), dtype=count)
    np.equal(np.ascontiguousarray(gs.T)[:, None, :], lanes[:, None], out=counts)
    del gs
    for t in range(1, n):
        np.add(counts[t - 1], counts[t], out=counts[t])
    groups = [(size, np.flatnonzero(sizes == size))
              for size in distinct_sorted(np.sort(sizes))]

    widest = np.zeros(p)
    rows = min(n, _ROW_CHUNK)
    hi, lo, f = np.empty((rows, p)), np.empty((rows, p)), np.empty((rows, p))
    for r0 in range(0, n, rows):
        chunk = counts[r0:r0 + rows]
        k = chunk.shape[0]
        hi_k, lo_k, f_k = hi[:k], lo[:k], f[:k]
        hi_k.fill(0.0)  # every ECDF value lies in [0, 1]
        lo_k.fill(1.0)
        for size, group in groups:
            top = bottom = chunk[:, group[0]]
            for s in group[1:]:
                top = np.maximum(top, chunk[:, s])
                bottom = np.minimum(bottom, chunk[:, s])
            np.divide(top, size, out=f_k)
            np.maximum(hi_k, f_k, out=hi_k)
            if bottom is not top:  # a lone slice is its size's top and bottom
                np.divide(bottom, size, out=f_k)
            np.minimum(lo_k, f_k, out=lo_k)
        hi_k -= lo_k
        if tied.size:
            hi_k[:, tied] = np.where(inside_run[:, r0:r0 + k].T, 0.0, hi_k[:, tied])
        np.maximum(widest, hi_k.max(axis=0), out=widest)
    return widest


def fks_score(x, y, kind: ResponseKind = ResponseKind.CONTINUOUS, schemes=None) -> float:
    return float(fks_scores(check_vector(x)[:, None], y, kind, schemes)[0])
