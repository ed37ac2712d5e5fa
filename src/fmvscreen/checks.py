"""Input checks shared by every scorer, so each rejects bad data the same way:
once, at its entry, before any work; the code below trusts what they return."""

from __future__ import annotations

import numpy as np

from .errors import InputError


def check_matrix(x) -> np.ndarray:
    """``x`` as a float64 n-by-p matrix; rejects the first non-finite column."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise InputError(f"expected an n-by-p matrix, got shape {x.shape}")
    # a non-finite entry makes its column's sum non-finite, so only those
    # columns are read entry by entry: a finite column whose sum overflows
    # passes there, and no n-by-p temporary is made
    with np.errstate(over="ignore", invalid="ignore"):
        sums = np.add.reduce(x, axis=0)
    for j in np.flatnonzero(~np.isfinite(sums)).tolist():
        if not np.isfinite(x[:, j]).all():
            raise InputError(f"column {j} contains non-finite entries")
    return x


def check_vector(x) -> np.ndarray:
    """``x`` as a float64 vector: the one predictor column of a single-column
    scorer."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise InputError(f"expected a vector, got shape {x.shape}")
    return x


def check_response(y, n: int) -> np.ndarray:
    """``y`` as a finite float64 vector matching the n rows of the predictors."""
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 1 or y.size != n:
        raise InputError(f"y must be a vector of length {n}, got shape {y.shape}")
    if not np.isfinite(y).all():
        raise InputError("y contains non-finite entries")
    return y


def check_counts(y: np.ndarray) -> None:
    """Rejects a checked response that is not nonnegative integer-valued."""
    if np.any(y < 0) or np.any(y != np.floor(y)):
        raise InputError("count response must be nonnegative integer-valued")


def check_ranked(ranked, x: np.ndarray) -> None:
    """Rejects a prepared ranked view (``mv.ranked_columns``) whose shape does
    not match the n-by-p matrix x; None (no view) passes."""
    n, p = x.shape
    if ranked is not None and ranked.shape != (p, n):
        cols, rows = ranked.shape
        raise InputError(f"ranked view covers {cols} columns of {rows} rows, "
                         f"predictor has {p} columns of {n} rows")
