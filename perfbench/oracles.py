"""Output checks, run outside the timed sections.

The slicing here is written from the definitions, independently of
``fmvscreen.slicing``: quantile cuts after the first floor(n*g/s) order
statistics, capped count classes, and empty slices merged away. The
statistics come from the package's O(n^2) oracles where it has them
(``mv_hat_bruteforce``, ``kendall_score_bruteforce``) and from direct
formulas here otherwise.
"""

from __future__ import annotations

import numpy as np
from fmvscreen import ResponseKind, SliceLabels, default_schemes, mv_hat_bruteforce
from fmvscreen.baselines import kendall_score_bruteforce

TOL = 1e-12


class CheckFailed(Exception):
    pass


def _compact(raw: np.ndarray) -> SliceLabels | None:
    _, inverse = np.unique(raw, return_inverse=True)
    counts = np.bincount(inverse)
    if counts.size < 2:
        return None
    return SliceLabels(g=(inverse + 1).astype(np.int64), counts=counts.astype(np.int64))


def slicings(y, kind, schemes) -> list[SliceLabels | None]:
    """One labelling per scheme; None where the response gives a single slice."""
    y = np.asarray(y, dtype=np.float64)
    n = y.size
    if schemes is None:
        schemes = default_schemes(n)
    if kind is ResponseKind.CATEGORICAL:
        return [_compact(y)]
    out = []
    for s in schemes:
        if kind is ResponseKind.COUNT:
            out.append(_compact(np.where(y < s - 1, y + 1, s)))
        else:
            ys = np.sort(y)
            cuts = np.unique(ys[[(n * g) // s for g in range(1, s)]])
            out.append(_compact(np.searchsorted(cuts, y, side="right")))
    return out


def fmv_oracle(col, labels_list) -> float:
    return sum(mv_hat_bruteforce(col, lab) for lab in labels_list if lab is not None)


def fks_oracle(col, labels_list) -> float:
    """Per scheme, the largest gap between two slices' ECDFs at the sample
    points, summed over schemes."""
    leq = col[None, :] <= col[:, None]  # leq[i, k] = I(x_k <= x_i)
    total = 0.0
    for lab in labels_list:
        if lab is None:
            continue
        ecdfs = [leq[:, lab.g == s].mean(axis=1) for s in range(1, lab.s_eff + 1)]
        total += max(float(np.abs(a - b).max())
                     for i, a in enumerate(ecdfs) for b in ecdfs[i + 1:])
    return total


def sis_oracle(col, y) -> float:
    xc, yc = col - col.mean(), y - y.mean()
    denom = np.sqrt(float(xc @ xc) * float(yc @ yc))
    return abs(float(xc @ yc)) / denom if denom > 0.0 else 0.0


def check_columns(label: str, scores, columns, oracle) -> None:
    scores = np.asarray(scores, dtype=np.float64)
    for j in columns:
        want = oracle(j)
        if not abs(scores[j] - want) <= TOL:
            raise CheckFailed(f"{label} column {j}: got {scores[j]!r}, oracle {want!r}")


def sample_columns(rng: np.random.Generator, p: int, active, extra: int) -> list[int]:
    """The 0-based active columns plus ``extra`` distinct others."""
    chosen = sorted({a - 1 for a in active})
    rest = np.setdiff1d(np.arange(p), chosen)
    picks = rng.choice(rest, size=min(extra, rest.size), replace=False)
    return chosen + sorted(int(j) for j in picks)


def check_scorer_call(name: str, args, kwargs, result, columns) -> None:
    """Check one captured scorer call against its oracle on ``columns``."""
    x = np.asarray(args[0], dtype=np.float64)
    y = np.asarray(args[1], dtype=np.float64)
    if name in ("screening.fmv_scores", "baselines.fks"):
        kind = args[2] if len(args) > 2 else kwargs.get("kind", ResponseKind.CONTINUOUS)
        schemes = args[3] if len(args) > 3 else kwargs.get("schemes")
        labels = slicings(y, kind, schemes)
        if name == "baselines.fks":
            check_columns(name, result, columns, lambda j: fks_oracle(x[:, j], labels))
            return
        fused, per_scheme, degenerate = result
        if degenerate:
            raise CheckFailed("fmv_scores flagged a degenerate response")
        if per_scheme.shape != (len(labels), x.shape[1]):
            raise CheckFailed(f"per-scheme scores have shape {per_scheme.shape}")
        check_columns(name, fused, columns, lambda j: fmv_oracle(x[:, j], labels))
    elif name == "baselines.rcs":
        check_columns(name, result, columns, lambda j: kendall_score_bruteforce(x[:, j], y))
    elif name == "baselines.sis":
        check_columns(name, result, columns, lambda j: sis_oracle(x[:, j], y))
