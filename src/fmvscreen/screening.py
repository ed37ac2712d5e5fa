"""Fused mean-variance screening over a predictor matrix."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .checks import check_counts, check_matrix, check_ranked, check_response, check_vector
from .errors import DegenerateSlicesError, InputError
from .mv import _BLOCK_CELLS, _column_blocks, mv_hat_columns_multi
from .slicing import (
    SliceLabels,
    build_categorical_slices,
    build_discrete_slices,
    build_quantile_slices,
    default_schemes,
)

__all__ = [
    "ResponseKind",
    "Dataset",
    "FmvScore",
    "ScreeningResult",
    "default_selection_size",
    "fmv_hat",
    "fmv_scores",
    "screen",
]


class ResponseKind(Enum):
    CONTINUOUS = "continuous"
    CATEGORICAL = "categorical"
    COUNT = "count"


def _response_kind(kind) -> ResponseKind:
    """``kind`` as a ResponseKind, from the member or its value ("count")."""
    try:
        return ResponseKind(kind)
    except ValueError:
        raise InputError(f"unknown response kind {kind!r}; expected one of "
                         f"{', '.join(k.value for k in ResponseKind)}") from None


@dataclass(frozen=True)
class Dataset:
    """Response vector plus predictor matrix to be screened.

    Categorical and count responses are stored as reals with the kind tag
    deciding how slices are built.
    """

    y: np.ndarray
    x: np.ndarray
    kind: ResponseKind = ResponseKind.CONTINUOUS

    def __post_init__(self):
        x = check_matrix(self.x)
        n, p = x.shape
        y = check_response(self.y, n)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "kind", _response_kind(self.kind))
        if n < 2 or p < 1:
            raise InputError(f"need n >= 2 and p >= 1, got n={n}, p={p}")
        if self.kind is ResponseKind.COUNT:
            check_counts(y)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def p(self) -> int:
        return self.x.shape[1]


@dataclass(frozen=True)
class FmvScore:
    """Per-scheme statistics for one predictor and their fused sum.

    ``degenerate`` marks scores computed under a response whose every slicing
    collapsed to a single slice; the score is then 0 rather than an error,
    while ``screen`` refuses such a response.
    """

    per_scheme: np.ndarray
    fused: float
    degenerate: bool = False


@dataclass(frozen=True)
class ScreeningResult:
    """Fused scores with the descending ranking and top selection.

    ``order`` is a permutation of 0..p-1 sorting scores descending, exact
    float ties broken by ascending column index so reruns are bit-identical.
    """

    scores: np.ndarray
    order: np.ndarray
    selected: np.ndarray
    d_n: int


def default_selection_size(n: int) -> int:
    """Conventional screening size ceil(n / log n)."""
    return math.ceil(n / math.log(n))


def labels_for_schemes(y, kind: ResponseKind, schemes) -> list[SliceLabels | None]:
    """Build one slicing per scheme; None marks a degenerate scheme.

    The caller has checked y. ``kind`` may be a ResponseKind or its value;
    anything else, and an empty scheme list, is rejected for every kind.
    Categorical responses use the label partition once, ignoring the
    slice counts (which may then be None), so the returned list has length 1.
    """
    kind = _response_kind(kind)
    if schemes is not None and len(schemes) == 0:
        raise InputError("schemes must be nonempty")
    if kind is ResponseKind.CATEGORICAL:
        try:
            return [build_categorical_slices(y)]
        except DegenerateSlicesError:
            return [None]
    out: list[SliceLabels | None] = []
    for s in schemes:
        try:
            if kind is ResponseKind.COUNT:
                labels = build_discrete_slices(y, s)
                out.append(labels if labels.s_eff > 1 else None)
            else:
                out.append(build_quantile_slices(y, s))
        except DegenerateSlicesError:
            out.append(None)
    return out


def _resolve_schemes(schemes, kind, n: int) -> list[int] | None:
    """``schemes`` as a list, or the default slice counts for n when None.
    A categorical response ignores slice counts, so its None stays None and
    no small-sample warning is raised about a scheme it never uses."""
    if schemes is not None:
        return list(schemes)
    return None if _response_kind(kind) is ResponseKind.CATEGORICAL else default_schemes(n)


def fmv_scores(x, y, kind: ResponseKind = ResponseKind.CONTINUOUS,
               schemes=None, threads: int = 1, *,
               ranked: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, bool]:
    """Fused scores for every column of a predictor matrix.

    Returns (fused, per_scheme, degenerate) where per_scheme has one row per
    scheme. Slicings depend only on y and are built once. Columns are scored
    over equal-width blocks of at most ``_BLOCK_CELLS`` cells each, so the
    kernel's temporaries stay within a fixed budget at any p; ``threads``
    maps over the same blocks, whose count is a multiple of it. Each block
    reads its rows of ``ranked``, x's ranked view (``mv.ranked_columns``)
    when the caller has built it already, or else sorts its own columns.
    Every column is scored alone, so the blocking cannot change the result.
    The inputs are checked here once, and the kernel trusts them.
    """
    x = check_matrix(x)
    n, p = x.shape
    y = check_response(y, n)
    check_ranked(ranked, x)
    schemes = _resolve_schemes(schemes, kind, n)
    labels_list = labels_for_schemes(y, kind, schemes)
    degenerate = all(lab is None for lab in labels_list)
    n_threads = _resolve_threads(threads)
    blocks = _column_blocks(p, _BLOCK_CELLS // max(n, 1), n_threads)

    def score_block(block):
        lo, hi = block
        view = None if ranked is None else ranked[lo:hi]
        return mv_hat_columns_multi(x[:, lo:hi], labels_list, ranked=view)

    per_scheme = np.concatenate(_thread_map(score_block, blocks, n_threads), axis=1)
    return per_scheme.sum(axis=0), per_scheme, degenerate


def fmv_hat(x, y, kind: ResponseKind = ResponseKind.CONTINUOUS, schemes=None) -> FmvScore:
    """Fused score for a single predictor column."""
    fused, per_scheme, degenerate = fmv_scores(check_vector(x)[:, None], y, kind, schemes)
    return FmvScore(per_scheme=per_scheme[:, 0], fused=float(fused[0]),
                    degenerate=degenerate)


def rank_descending(scores: np.ndarray) -> np.ndarray:
    """Indices sorting scores descending, ties broken by ascending index."""
    return np.argsort(-np.asarray(scores, dtype=np.float64), kind="stable")


def screen(dataset: Dataset, schemes=None, d_n: int | None = None,
           threads: int = 1) -> ScreeningResult:
    """Rank all predictors by fused score and keep the top d_n.

    A degenerate response raises ``DegenerateSlicesError``: every score would
    be 0, and a ranking by column index would read as a real one.
    """
    if d_n is None:
        d_n = default_selection_size(dataset.n)
    if d_n < 1:
        raise InputError(f"d_n must be at least 1, got {d_n}")
    fused, _, degenerate = fmv_scores(dataset.x, dataset.y, dataset.kind, schemes, threads)
    if degenerate:
        raise DegenerateSlicesError("response is degenerate: "
                                    "every slicing collapses to a single slice")
    order = rank_descending(fused)
    return ScreeningResult(scores=fused, order=order,
                           selected=order[: min(d_n, dataset.p)], d_n=d_n)


def _resolve_threads(threads: int) -> int:
    if threads < 0:
        raise InputError(f"threads must be nonnegative, got {threads}")
    if threads == 0:
        import os

        # the CPUs this process may run on, which taskset or a cgroup can
        # narrow below the machine's count
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    return threads


def _thread_map(fn, items, threads: int) -> list:
    """``[fn(item) for item in items]``: a plain loop at one thread or one
    item, else over a pool of ``threads`` workers. The pool's module is
    imported only here, so a single-threaded process never loads it."""
    if threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))
