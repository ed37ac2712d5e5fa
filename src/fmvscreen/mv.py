"""Sliced mean-variance dependence statistic.

For a predictor sample x and slice labels G over the same observations, the
statistic is

    MV = (1/n) sum_i sum_g p_g * (F_g(x_i) - F(x_i))^2

where F is the sample ECDF of x, F_g the conditional ECDF within slice g, and
p_g the empirical slice proportion. It lies in [0, 1] and is 0 exactly when
every conditional ECDF agrees with the unconditional one at every sample
point (constant predictors and single-slice partitions included).

The fast kernel reads each slice's ECDF only through exact integer sums over
a ranked view of the columns (``ranked_columns``): one (p, n) array of
competition ranks, each cell the start of its tie run in the column's sorted
order, one byte per cell up to n = 255 and two up to 65535. The view sorts
each column once, as floats whose lowest mantissa bits are overwritten with
their row index, and checks the columns where those bits could hide a real
difference; a column that fails the check is ordered by an exact argsort.
Each slice's square sum is then

    sum_i c_s(t_i)^2 = sum_{k in s} (2 r_k + 1)(n - b_k),

derived at ``mv_hat_columns_multi``, where b_k is entry k's rank. Per
scheme the kernel sorts one small unsigned key per cell, so it costs
O(p * n log n * (1 + schemes)).
Two baselines read the same view. fks packs every scheme's slice labels
into per-row codes of at most 64 - bit_length(n - 1) bits, and orders each
column block, per code, with one in-place sort of rank-tagged keys
(rank << c) | code, c the code's bits: the low bits give each sorted
position's code and the bits above, on tied columns, its run start. The
codes are copied out with each column's positions in chunk order
(C = isqrt(n) slabs of n // C rows), and per scheme fks accumulates every
slice's cumulative counts at once in O(sqrt(n)) adds, most of whole
slabs, S count-bytes per cell (S = s_eff, one byte per lane while slices
hold at most 255 entries), and finds each column's widest ECDF gap in
exact integers, with floats only at that gap, so O(p * n * sum s_eff)
small-integer operations. rcs (Kendall) compares the
ranks themselves, and counts the pairs tied in x from their sums.
``tie_starts`` picks out the tied columns and their sorted ranks for the
kernel. A caller that scores one matrix several ways
builds the view once and passes it as ``ranked=``; the column sort is then
paid once.

``_BLOCK_CELLS`` is the one cell budget, sized so that a view-build block's
one 8-byte buffer takes a quarter of a 2 MiB per-core L2 cache.
``ranked_columns`` builds the view over column blocks of at most that many
cells, ``screening.fmv_scores`` scores the kernel and sis
(``baselines.pearson_scores``) centres its columns over the same width,
and fks sizes its blocks from it in bytes, ``baselines._FKS_BUDGET_BYTES``
per budget cell, so no temporary grows with p. ``_column_blocks`` is the
one helper for every column-block loop, and a block's view is the rows
``ranked[lo:hi]``.
"""

from __future__ import annotations

import numpy as np

from .checks import check_matrix, check_vector
from .errors import InputError
from .slicing import SliceLabels

__all__ = ["mv_hat", "mv_hat_bruteforce", "ranked_columns"]


# cells of x per column block: the MV kernel, the ranked view's build and sis
# each work over column blocks of about this many cells, and fks over blocks
# of a byte budget sized from it, so their temporaries stay within a fixed
# budget at any p (the kernel holds about 13 bytes a block cell with a view
# passed in, and the view build 12 to 14 besides the ranks it returns, up to
# 20 in a block whose columns fail its exactness check). At 2**16 the view
# build's one 8-byte buffer, which holds the tagged values and then the
# scatter index, takes 512 KiB a block, a quarter of a 2 MiB per-core L2
# cache, and a block is a tenth of a 200 x 3000 matrix and a seventh of a
# 400 x 1000 one
_BLOCK_CELLS = 1 << 16


def _check_labels(n: int, labels: SliceLabels) -> None:
    if labels.n != n:
        raise InputError(f"labels cover {labels.n} observations, predictor has {n}")


def ranked_columns(x: np.ndarray) -> np.ndarray:
    """The ranked view of a checked n-by-p matrix shared by the MV kernel, fks
    and Kendall: (p, n) competition ranks, where row j gives each entry of
    column j the count of strictly smaller entries in it (the start of its
    tie run in the sorted column), in the smallest unsigned dtype that holds
    n. Ranks compare exactly like the values, equal values share one rank,
    and -0.0 and 0.0 are equal.

    The ranks are built over column blocks of at most ``_BLOCK_CELLS`` cells
    into one preallocated (p, n) array. Each block's columns are copied, plus
    0.0 so that -0.0 reads as 0.0, into one contiguous float64 buffer, and the
    low b = bit_length(n - 1) mantissa bits of every value are overwritten
    with its row index. The exponent is kept, so the tagged values stay
    finite. One in-place float sort per block orders every column, and the
    tags read back give each sorted position its row.

    Why the ranks are exact: call a value's bits above the tag its prefix.
    Values with one prefix sit together in the sorted column, and the groups
    come in the order of the values, since the tags change no bit that tells
    two groups apart. Equal values share a prefix, so each group is a union
    of whole tie runs, and a group whose values are all equal is one tie run,
    within which the order does not matter. So a column is ranked exactly
    when every sorted neighbour pair within a group is an exact tie. The
    check: a block in which some group holds two or more values reloads its
    exact values into the buffer and sorts them. The sorted exact values
    flag every column's tie runs, whatever its tagged order. A column with
    as many runs as groups passes and keeps its tagged order; one with more
    (it holds values one ulp apart, 0.1 + 0.2 beside 0.3, or a subnormal
    beside 0.0) takes its order from an argsort of its exact values.

    Above the result, one block's 8-byte buffer (later the scatter index),
    its sort order and sorted ranks, and numpy's ufunc buffers are alive,
    about 12 bytes a block cell up to n = 255 and 14 above, at any p. A
    column that fails the check adds its argsort's 8 bytes a cell, so a
    block of such columns holds 18 and 20. Every column is ranked alone, so
    the blocks cannot change the result.
    """
    n, p = x.shape
    count = np.min_scalar_type(n)
    ranks = np.empty((p, n), dtype=count)
    bits = max(n - 1, 0).bit_length()
    tag = (1 << bits) - 1
    rows = np.arange(n)
    steps = np.arange(1, n, dtype=count)
    for lo, hi in _column_blocks(p, _BLOCK_CELLS // max(n, 1)):
        buf = np.empty((hi - lo, n))
        np.add(x[:, lo:hi].T, 0.0, out=buf)
        tagged = buf.view(np.int64)
        tagged &= ~tag
        tagged |= rows
        buf.sort(axis=1)
        order = np.empty(buf.shape, dtype=count)
        np.bitwise_and(tagged, tag, out=order, casting="unsafe")
        tagged >>= bits
        # 1 where a sorted position's prefix differs from its predecessor's
        sorted_ranks = np.zeros(buf.shape, dtype=count)
        np.not_equal(tagged[:, 1:], tagged[:, :-1], out=sorted_ranks[:, 1:])
        group_starts = sorted_ranks[:, 1:].sum(axis=1, dtype=np.intp)
        if (group_starts < n - 1).any():
            # the exact values, sorted, flag every column's tie runs; a column
            # with more runs than groups is ordered by an exact argsort
            np.add(x[:, lo:hi].T, 0.0, out=buf)
            buf.sort(axis=1)
            np.not_equal(buf[:, 1:], buf[:, :-1], out=sorted_ranks[:, 1:])
            run_starts = sorted_ranks[:, 1:].sum(axis=1, dtype=np.intp)
            fail = np.flatnonzero(run_starts != group_starts)
            if fail.size:
                # their exact values moved to the buffer's first rows: take
                # copies a strided source whole, but only the rows it moves
                # from a contiguous one
                np.add(x[:, lo:hi].T, 0.0, out=buf)
                exact = np.take(buf, fail, axis=0, out=buf[:fail.size], mode="clip")
                order[fail] = np.argsort(exact, axis=1)
        # each sorted position's rank: the last position at or before it
        # whose value differs from its predecessor's
        sorted_ranks[:, 1:] *= steps
        np.maximum.accumulate(sorted_ranks, axis=1, out=sorted_ranks)
        # back to row order through flat indices into the block, held in the
        # buffer: a plain 1-d scatter that costs well under half of
        # put_along_axis
        np.add(order, n * np.arange(hi - lo)[:, None], out=tagged)
        del order
        ranks[lo:hi].reshape(-1)[tagged.reshape(-1)] = sorted_ranks.reshape(-1)
        del buf, tagged, sorted_ranks  # before the next block allocates its own
    return ranks


def tie_starts(ranks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The tied columns of a ranked view, and for each of them the stable
    (radix) sort of its ranks: the start of the tie run at every sorted
    position. A column's ranks sum to n (n - 1) / 2 when it has no ties,
    and to that less the pairs it ties otherwise."""
    n = ranks.shape[1]
    tied = np.flatnonzero(ranks.sum(axis=1, dtype=np.int64) < n * (n - 1) // 2)
    return tied, np.sort(ranks[tied], axis=1, kind="stable")


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


def _label_arrays(labels_list, n: int) -> list[tuple | None]:
    """Per slicing (None stays None), what ``mv_hat_columns_multi`` reads of
    its labels, which depends on the labels and n alone: the slice sizes
    in exact ints, each slice's first place in the slice-by-slice listing,
    each row's key offset (g - 1) n, the offsets at each place of the
    listing, and the weight 2 r + 1 there."""
    product = np.min_scalar_type(2 * n * n)
    exact = _exact_int(n)
    out = []
    for labels in labels_list:
        if labels is None:
            out.append(None)
            continue
        first = np.concatenate(([0], np.cumsum(labels.counts)[:-1]))
        offsets = np.arange(0, labels.s_eff * n, n, dtype=np.min_scalar_type(labels.s_eff * n))
        weight = 2 * (np.arange(n) - np.repeat(first, labels.counts)) + 1
        out.append((labels.counts.astype(exact), first, offsets[labels.g - 1],
                    np.repeat(offsets, labels.counts), weight.astype(product)))
    return out


def mv_hat_columns_multi(x: np.ndarray, labels_list, *,
                         ranked: np.ndarray | None = None,
                         label_arrays: list[tuple | None] | None = None) -> np.ndarray:
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

    b_k is the competition rank of entry k (``ranked_columns``). Per
    slicing, each row's key (g - 1) n + b, with g its slice label, is sorted
    along the column in place: the keys list slice 1's run starts in
    ascending order, then slice 2's, and so on, so r_k is the offset from
    the slice's start and subtracting the slice's (g - 1) n gives b_k back.
    Both sums are exact integers, the order within a tie run cancels out,
    and the scores are bit-identical under row permutation. Cost: one column
    sort and one rank scatter, a radix sort of the tied columns' ranks, then
    per slicing one sort of small unsigned keys and one segmented sum, so
    O(p * (n log n) * (1 + len(labels_list))), the column sort skipped when
    ``ranked`` passes the view of x already built. Entries of ``labels_list``
    may be None (degenerate slicing), contributing a zero row; a one-slice
    labeling (``mv_hat`` passes its labels as given) scores an exact 0.0,
    its square sum being the F^2 term's. The kernel checks nothing: its
    caller passes a checked x (``check_matrix``), labels over its n rows,
    and, if any, a view of x's shape (``check_ranked``). A caller that
    scores several column blocks passes ``label_arrays``
    (``_label_arrays(labels_list, n)``), built once for every block.
    """
    n, p = x.shape
    out = np.zeros((len(labels_list), p))
    if all(lab is None for lab in labels_list):
        return out

    ranks = ranked_columns(x) if ranked is None else ranked
    exact = _exact_int(n)
    # sum_i (t_i + 1)^2 is the identity below with the whole sample as one
    # slice: n^3 - sum_k (2 k + 1) b_(k) over the sorted ranks b_(k), and the
    # sum of squares 1..n on a tie-free column
    f_sq = np.full(p, n * (n + 1) * (2 * n + 1) // 6, dtype=exact)
    tied, starts = tie_starts(ranks)
    f_sq[tied] = n ** 3 - (starts * (2 * np.arange(n) + 1)).sum(axis=1, dtype=exact)
    del starts
    if label_arrays is None:
        label_arrays = _label_arrays(labels_list, n)
    # each (2 r + 1) b is below 2 n^2
    product = np.empty((p, n), dtype=np.min_scalar_type(2 * n * n))
    for k, arrays in enumerate(label_arrays):
        if arrays is None:
            continue
        sizes, first, row_offsets, listed_offsets, weight = arrays
        keys = np.add(ranks, row_offsets, dtype=row_offsets.dtype)
        keys.sort(axis=1)
        keys -= listed_offsets
        # sum_{k in s} (2 r_k + 1) b_k, then n size_s^2 minus it
        np.multiply(keys, weight, out=product)
        del keys
        dot = np.add.reduceat(product, first, axis=1, dtype=exact)
        sq_counts = n * sizes * sizes - dot
        out[k] = ((sq_counts / sizes).sum(axis=1) - f_sq / n) / (n * n)
    # the sums are exact, but their float quotients can round a zero
    # statistic below zero, under the floor of a sum of squares
    return np.maximum(out, 0.0, out=out)


def mv_hat(x, labels: SliceLabels) -> float:
    """The statistic for a single predictor column."""
    x = check_matrix(check_vector(x)[:, None])
    _check_labels(x.shape[0], labels)
    return float(mv_hat_columns_multi(x, [labels])[0, 0])


def mv_hat_bruteforce(x, labels: SliceLabels) -> float:
    """Direct O(n^2 * s_eff) evaluation of the defining sum; test oracle.

    Builds the full indicator matrix I(x_k <= x_i) and averages the squared
    ECDF gaps slice by slice, with no sorting shortcuts.
    """
    arr = check_matrix(check_vector(x)[:, None])[:, 0]
    n = arr.size
    _check_labels(n, labels)

    leq = arr[None, :] <= arr[:, None]  # leq[i, k] = I(x_k <= x_i)
    fhat = leq.mean(axis=1)
    total = 0.0
    for s in range(1, labels.s_eff + 1):
        in_slice = labels.g == s
        p_g = in_slice.mean()
        f_g = (leq & in_slice[None, :]).mean(axis=1) / p_g
        total += float((p_g * (f_g - fhat) ** 2).sum())
    return total / n
