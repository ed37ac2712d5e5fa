"""Sliced mean-variance dependence statistic.

For a predictor sample x and slice labels G over the same observations, the
statistic is

    MV = (1/n) sum_i sum_g p_g * (F_g(x_i) - F(x_i))^2

where F is the sample ECDF of x, F_g the conditional ECDF within slice g, and
p_g the empirical slice proportion. It lies in [0, 1] and is 0 exactly when
every conditional ECDF agrees with the unconditional one at every sample
point (constant predictors and single-slice partitions included).
"""

from __future__ import annotations

import numpy as np

from .checks import check_matrix
from .errors import InputError
from .slicing import SliceLabels

__all__ = [
    "mv_hat",
    "mv_hat_bruteforce",
    "mv_hat_columns_multi",
    "ranked_columns",
    "slice_counts_at_runs",
]


def _check_labels(n: int, labels: SliceLabels) -> None:
    if labels.n != n:
        raise InputError(f"labels cover {labels.n} observations, predictor has {n}")


def ranked_columns(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ranked view of a checked n-by-p matrix shared by the MV kernel and fks.

    Returns ``(order, t)``: ``order[:, j]`` sorts column j ascending and
    ``t[i, j]`` is the sorted position of the last entry tied with the i-th
    smallest, where the column's ECDF jumps. Callers read counts only at
    ``t``, so the order within a tie run cannot change any result and the
    default (unstable) sort serves.
    """
    n, p = x.shape
    order = np.argsort(x, axis=0)
    xs = np.take_along_axis(x, order, axis=0)
    is_run_end = np.empty((n, p), dtype=bool)
    is_run_end[-1] = True
    np.not_equal(xs[:-1], xs[1:], out=is_run_end[:-1])
    del xs
    rows = np.arange(n)[:, None]
    t = np.minimum.accumulate(np.where(is_run_end, rows, n)[::-1], axis=0)[::-1]
    return order, t


def slice_counts_at_runs(order: np.ndarray, t: np.ndarray, labels: SliceLabels):
    """For each slice s = 1..s_eff, yield the n-by-p integer counts of slice-s
    observations among each column's first ``t + 1`` sorted entries, so the
    slice's conditional ECDF at the sample points is the count over its size."""
    gs = labels.g[order]
    for s in range(1, labels.s_eff + 1):
        yield np.take_along_axis(np.cumsum(gs == s, axis=0), t, axis=0)


def mv_hat_columns_multi(x: np.ndarray, labels_list) -> np.ndarray:
    """Fast path: the statistic for every column, for several slicings at once.

    One sorted pass per column shared across all slicings, then per-slice
    cumulative counts; cost O(p * (n log n + n * sum s_eff)). Uses the
    identity sum_g p_g (F_g - F)^2 = sum_g p_g F_g^2 - F^2 and evaluates tied
    values at the end of their tie run, so results are invariant under row
    permutation bit for bit. Entries of ``labels_list`` may be None
    (degenerate slicing), contributing a zero row.
    """
    x = check_matrix(x)
    n, p = x.shape
    live = [lab for lab in labels_list if lab is not None]
    for lab in live:
        _check_labels(n, lab)
    out = np.zeros((len(labels_list), p))
    if not any(lab.s_eff > 1 for lab in live):
        return out

    order, t = ranked_columns(x)
    fhat_sq = np.square((t + 1.0) / n)
    for k, labels in enumerate(labels_list):
        if labels is None or labels.s_eff == 1:
            continue
        acc = np.zeros((n, p))
        for size, cum in zip(labels.counts.astype(np.float64),
                             slice_counts_at_runs(order, t, labels)):
            cum = cum.astype(np.float64)
            acc += cum * cum / (n * size)
        acc -= fhat_sq
        out[k] = acc.sum(axis=0) / n
    return out


def mv_hat(x, labels: SliceLabels) -> float:
    """The statistic for a single predictor column."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1:
        raise InputError(f"expected a vector, got shape {arr.shape}")
    return float(mv_hat_columns_multi(arr[:, None], [labels])[0, 0])


def mv_hat_bruteforce(x, labels: SliceLabels) -> float:
    """Direct O(n^2 * s_eff) evaluation of the defining sum; test oracle.

    Builds the full indicator matrix I(x_k <= x_i) and averages the squared
    ECDF gaps slice by slice, with no sorting shortcuts.
    """
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1:
        raise InputError(f"expected a vector, got shape {arr.shape}")
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
