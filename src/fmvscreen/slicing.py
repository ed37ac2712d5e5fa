"""Partitioning a response sample into slices.

A slice scheme splits the response support into S intervals so that a
continuous (or unbounded count) response can be treated like a categorical
one. Quantile schemes aim for equal-occupancy slices; tied responses can
merge adjacent slices, so the effective count may fall below the requested
one.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .checks import check_counts, check_response
from .errors import DegenerateSlicesError, InputError

__all__ = [
    "SliceLabels",
    "build_quantile_slices",
    "build_discrete_slices",
    "build_categorical_slices",
    "default_schemes",
]


@dataclass(frozen=True)
class SliceLabels:
    """Per-observation slice assignment over labels 1..s_eff."""

    g: np.ndarray
    counts: np.ndarray

    @property
    def s_eff(self) -> int:
        return len(self.counts)

    @property
    def n(self) -> int:
        return len(self.g)

    @property
    def props(self) -> np.ndarray:
        return self.counts / self.n


def _labels_from_raw(raw: np.ndarray) -> SliceLabels:
    """Compact raw slice ids so empty slices disappear.

    Returns the relabeled 1..s_eff assignment, ordered like the raw ids;
    every surviving slice is nonempty by construction.
    """
    occupied, inverse = np.unique(raw, return_inverse=True)
    g = (inverse + 1).astype(np.int64)
    counts = np.bincount(inverse, minlength=len(occupied)).astype(np.int64)
    return SliceLabels(g=g, counts=counts)


def _finite_response(y) -> np.ndarray:
    arr = np.asarray(y, dtype=np.float64)
    if arr.size == 0:
        raise InputError("response must be a nonempty one-dimensional vector")
    return check_response(arr, arr.size)


def build_quantile_slices(y, s: int) -> SliceLabels:
    """Split a continuous response at its g/s sample quantiles, g = 1..s-1.

    The cut for g/s sits after the first floor(n*g/s) order statistics, which
    keeps slice occupancies within one of each other on tie-free data.
    A repeated cut value (heavily tied responses) leaves a slice empty, and
    empty slices are compacted away, so the effective slice count can drop
    below s.
    """
    arr = _finite_response(y)
    n = arr.size
    if s < 2:
        raise InputError(f"slice count must be at least 2, got {s}")
    if s > n:
        raise InputError(f"slice count {s} exceeds sample size {n}")
    ys = np.sort(arr)
    cuts = ys[[(n * g) // s for g in range(1, s)]]
    raw = np.searchsorted(cuts, arr, side="right")
    labels = _labels_from_raw(raw)
    if labels.s_eff < 2:
        raise DegenerateSlicesError(
            "response admits no two-slice quantile partition (all values tied)"
        )
    return labels


def build_discrete_slices(y, s: int) -> SliceLabels:
    """Map a count response to slices: g = y+1 below the cap s-1, else g = s.

    Labels that end up empty are compacted away; the result can collapse to a
    single slice (score 0 downstream) when the cap absorbs everything.
    """
    arr = _finite_response(y)
    if s < 2:
        raise InputError(f"slice count must be at least 2, got {s}")
    check_counts(arr)
    counts_y = arr.astype(np.int64)
    raw = np.where(counts_y < s - 1, counts_y + 1, s)
    return _labels_from_raw(raw)


def build_categorical_slices(y) -> SliceLabels:
    """One slice per distinct label, ordered by ascending label value."""
    arr = np.asarray(y)
    if arr.ndim != 1 or arr.size == 0:
        raise InputError("response must be a nonempty one-dimensional vector")
    if arr.dtype.kind == "f" and not np.isfinite(arr).all():
        raise InputError("response contains non-finite entries")
    labels = _labels_from_raw(arr)
    if labels.s_eff < 2:
        raise DegenerateSlicesError("categorical response has a single distinct label")
    return labels


def _ceil_cbrt(n: int) -> int:
    c = round(n ** (1.0 / 3.0))
    while c ** 3 < n:
        c += 1
    while c > 1 and (c - 1) ** 3 >= n:
        c -= 1
    return c


def default_schemes(n: int) -> list[int]:
    """Slice counts 3, 4, ..., ceil(n^(1/3)) used for fusion.

    Below n = 27 the cube-root ceiling drops under 3; a single 3-slice scheme
    is returned with a warning.
    """
    if n < 27:
        warnings.warn(
            f"sample size {n} is below 27; falling back to a single 3-slice scheme",
            RuntimeWarning,
            stacklevel=2,
        )
        return [3]
    return list(range(3, _ceil_cbrt(n) + 1))
