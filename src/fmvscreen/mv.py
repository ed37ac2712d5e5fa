"""Sliced mean-variance dependence statistic.

For a predictor sample x and slice labels G over the same observations, the
statistic is

    MV = (1/n) sum_i sum_g p_g * (F_g(x_i) - F(x_i))^2

where F is the sample ECDF of x, F_g the conditional ECDF within slice g, and
p_g the empirical slice proportion. It lies in [0, 1] and is 0 exactly when
every conditional ECDF agrees with the unconditional one at every sample
point (constant predictors and single-slice partitions included).

The fast kernel reads each slice's ECDF only through exact integer sums over
a shared ranked view of the columns (``ranked_columns``):
sum_i c_s(t_i)^2 = sum_{k in s} (2 r_k + 1)(n - b_k), derived at
``mv_hat_columns_multi``, where b_k is a competition rank
(``competition_ranks``: the tie-run start, or the sorted position on a
tie-free column). Per scheme it sorts one small unsigned key per cell, so it
costs O(p * n log n * (1 + schemes)). Two baselines read the same view. fks
accumulates, per scheme, every slice's cumulative counts at once, S
count-bytes per cell (S = s_eff, one byte per lane while slices hold at most
255 entries), its float temporaries bounded by a fixed row chunk, so
O(p * n * sum s_eff) small-integer adds. rcs (Kendall) compares the same
competition ranks, and counts the pairs tied in x from the view's tie runs.
A caller that scores one matrix several ways builds the view once and passes
it as ``ranked=``; the column sort is then paid once. Wide matrices go
through ``_column_blocks``, one helper for every column-block loop, each
caller giving its own cap on the columns in a block: ``screening.fmv_scores``
caps the kernel's cells, fks the bytes of a scheme's counts, so neither's
temporaries grow with p.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .checks import check_matrix, check_ranked, check_vector
from .errors import InputError
from .slicing import SliceLabels

__all__ = [
    "RankedColumns",
    "competition_ranks",
    "mv_hat",
    "mv_hat_bruteforce",
    "mv_hat_columns_multi",
    "ranked_columns",
]


def _check_labels(n: int, labels: SliceLabels) -> None:
    if labels.n != n:
        raise InputError(f"labels cover {labels.n} observations, predictor has {n}")


class RankedColumns(NamedTuple):
    """The ranked view of an n-by-p matrix, one row per column of x.

    ``order[j]`` sorts column j ascending. Only the columns in ``tied`` hold
    repeated values; for them ``start[k]`` and ``end[k]`` give, at every
    sorted position of column ``tied[k]``, the first and last sorted position
    of its tie run, in the smallest unsigned dtype that holds n. In a
    tie-free column both would be the position itself.
    """

    order: np.ndarray
    tied: np.ndarray
    start: np.ndarray
    end: np.ndarray

    def columns(self, lo: int, hi: int) -> RankedColumns:
        """The view of columns lo..hi-1 alone, as views into this one."""
        a, b = np.searchsorted(self.tied, (lo, hi))
        return RankedColumns(self.order[lo:hi], self.tied[a:b] - lo,
                             self.start[a:b], self.end[a:b])


def ranked_columns(x: np.ndarray) -> RankedColumns:
    """The ranked view of a checked n-by-p matrix shared by the MV kernel, fks
    and Kendall.

    The columns are copied once into a contiguous (p, n) array, argsorted
    along its rows, and then sorted in place for the tie runs, so one float
    copy of x is alive at a time. Callers read ECDFs only at tie-run ends,
    so the order within a tie run cannot change any result and the default
    (unstable) sort serves; -0.0 and 0.0 compare equal either way.
    """
    n = x.shape[0]
    xt = x.T.copy(order="C")  # never a view: it is sorted in place
    order = np.argsort(xt, axis=1)
    xt.sort(axis=1)
    same = xt[:, 1:] == xt[:, :-1]
    del xt
    tied = np.flatnonzero(same.any(axis=1))
    same = same[tied]
    pos = np.arange(n, dtype=np.min_scalar_type(n))
    starts_run = np.ones((tied.size, n), dtype=bool)
    np.logical_not(same, out=starts_run[:, 1:])
    ends_run = np.ones((tied.size, n), dtype=bool)
    np.logical_not(same, out=ends_run[:, :-1])
    start = np.maximum.accumulate(np.where(starts_run, pos, 0), axis=1)
    end = np.minimum.accumulate(np.where(ends_run, pos, n)[:, ::-1], axis=1)[:, ::-1]
    return RankedColumns(order, tied, start, end)


def _column_blocks(p: int, most: int, threads: int = 1) -> list[tuple[int, int]]:
    """Column ranges of widths within one of each other, each at most
    ``most`` columns (one at least), their count a multiple of ``threads``
    while p allows; one empty range when p is 0."""
    count = -(-p // max(1, most))
    count = max(1, min(p, -(-count // threads) * threads))
    return [(b * p // count, (b + 1) * p // count) for b in range(count)]


def _exact_int(n: int):
    """The dtype for the kernel's integer sums, each at most n**3: int64 while
    that fits, else Python ints, so the sums stay exact at any n."""
    return np.int64 if n ** 3 <= np.iinfo(np.int64).max else object


def competition_ranks(ranked: RankedColumns) -> np.ndarray:
    """(p, n) competition ranks of every row in every column of the view: the
    start of the row's tie run, or its sorted position in a tie-free column,
    in the smallest unsigned dtype that holds n. Ranks compare exactly like
    the values, and equal values share one rank."""
    p, n = ranked.order.shape
    count = np.min_scalar_type(n)
    sorted_ranks = np.empty((p, n), dtype=count)
    sorted_ranks[:] = np.arange(n, dtype=count)
    sorted_ranks[ranked.tied] = ranked.start
    ranks = np.empty_like(sorted_ranks)
    np.put_along_axis(ranks, ranked.order, sorted_ranks, axis=1)
    return ranks


def mv_hat_columns_multi(x: np.ndarray, labels_list, *,
                         ranked: RankedColumns | None = None) -> np.ndarray:
    """Fast path: the statistic for every column, for several slicings at once.

    With c_s(t) the number of slice-s entries among a column's first t + 1
    sorted entries and t_i the end of the tie run at sorted position i,

        n^2 * MV = sum_s (1/size_s) sum_i c_s(t_i)^2 - (1/n) sum_i (t_i + 1)^2,

    from sum_g p_g (F_g - F)^2 = sum_g p_g F_g^2 - F^2. Listing a slice's
    entries in sorted order, entry k with within-slice rank r_k whose tie
    run starts at b_k is counted by the n - b_k positions from b_k on, and
    adds 2 r_k + 1 to c_s^2 there, so

        sum_i c_s(t_i)^2 = sum_{k in s} (2 r_k + 1)(n - b_k)
                         = n size_s^2 - sum_{k in s} (2 r_k + 1) b_k.

    b_k is the competition rank of entry k (``competition_ranks``). Per
    slicing, each row's key (g - 1) n + b, with g its slice label, is sorted
    along the column in place: the keys list slice 1's run starts in
    ascending order, then slice 2's, and so on, so r_k is the offset from
    the slice's start and subtracting the slice's (g - 1) n gives b_k back.
    Both sums are exact integers, the order within a tie run cancels out,
    and the scores are bit-identical under row permutation. Cost: one column
    sort and one rank scatter, then per slicing one sort of small unsigned
    keys and one segmented sum, so O(p * (n log n) * (1 + len(labels_list))),
    the column sort skipped when ``ranked`` passes the view of x already
    built. Entries of ``labels_list`` may be None (degenerate slicing),
    contributing a zero row.
    """
    x = check_matrix(x)
    n, p = x.shape
    check_ranked(ranked, x)
    live = [lab for lab in labels_list if lab is not None]
    for lab in live:
        _check_labels(n, lab)
    out = np.zeros((len(labels_list), p))
    if not any(lab.s_eff > 1 for lab in live):
        return out

    if ranked is None:
        ranked = ranked_columns(x)
    exact = _exact_int(n)
    # sum_i (t_i + 1)^2: sum of squares 1..n in a tie-free column
    f_sq = np.full(p, n * (n + 1) * (2 * n + 1) // 6, dtype=exact)
    f_sq[ranked.tied] = np.square(ranked.end.astype(exact) + 1).sum(axis=1)
    ranks = competition_ranks(ranked)
    del ranked
    # each (2 r + 1) b is below 2 n^2
    product = np.empty((p, n), dtype=np.min_scalar_type(2 * n * n))
    for k, labels in enumerate(labels_list):
        if labels is None or labels.s_eff == 1:
            continue
        sizes = labels.counts.astype(exact)
        first = np.concatenate(([0], np.cumsum(labels.counts)[:-1]))
        key = np.min_scalar_type(labels.s_eff * n)
        offsets = np.arange(0, labels.s_eff * n, n, dtype=key)
        keys = np.add(ranks, offsets[labels.g - 1], dtype=key)
        keys.sort(axis=1)
        keys -= np.repeat(offsets, labels.counts)
        # 2 r + 1 at each place of the slice-by-slice listing
        weight = 2 * (np.arange(n) - np.repeat(first, labels.counts)) + 1
        # sum_{k in s} (2 r_k + 1) b_k, then n size_s^2 minus it
        np.multiply(keys, weight.astype(product.dtype), out=product)
        del keys
        dot = np.add.reduceat(product, first, axis=1, dtype=exact)
        sq_counts = n * sizes * sizes - dot
        out[k] = ((sq_counts / sizes).sum(axis=1) - f_sq / n) / (n * n)
    return out


def mv_hat(x, labels: SliceLabels) -> float:
    """The statistic for a single predictor column."""
    return float(mv_hat_columns_multi(check_vector(x)[:, None], [labels])[0, 0])


def mv_hat_bruteforce(x, labels: SliceLabels) -> float:
    """Direct O(n^2 * s_eff) evaluation of the defining sum; test oracle.

    Builds the full indicator matrix I(x_k <= x_i) and averages the squared
    ECDF gaps slice by slice, with no sorting shortcuts.
    """
    arr = check_vector(x)
    n = arr.size
    _check_labels(n, labels)
    if not np.isfinite(arr).all():
        raise InputError("column 0 contains non-finite entries")

    leq = arr[None, :] <= arr[:, None]  # leq[i, k] = I(x_k <= x_i)
    fhat = leq.mean(axis=1)
    total = 0.0
    for s in range(1, labels.s_eff + 1):
        in_slice = labels.g == s
        p_g = in_slice.mean()
        f_g = (leq & in_slice[None, :]).mean(axis=1) / p_g
        total += float((p_g * (f_g - fhat) ** 2).sum())
    return total / n
