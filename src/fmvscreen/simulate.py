"""Seeded generators for the seven benchmark experiment designs.

Each generator returns the dataset together with the ground-truth active
column set (1-based). Generation is a pure function of (spec, seed); the
benchmark derives one independent stream per replication so results never
depend on execution order or thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .screening import Dataset, ResponseKind

__all__ = [
    "CovarianceSpec",
    "ExperimentSpec",
    "GeneratedInstance",
    "EXPERIMENT_IDS",
    "sample_mvn",
    "gen_experiment",
    "derived_rng",
    "active_set",
    "experiment_schemes",
]

_POISSON_MEAN_CAP = 1e6


@dataclass(frozen=True)
class CovarianceSpec:
    """Covariance of the predictor rows: ar(rho), diagonal(v), or identity."""

    kind: str
    param: float = 1.0

    @staticmethod
    def ar(rho: float) -> "CovarianceSpec":
        if not -1.0 < rho < 1.0:
            raise InputError(f"ar parameter must lie in (-1, 1), got {rho}")
        return CovarianceSpec("ar", rho)

    @staticmethod
    def diagonal(var: float) -> "CovarianceSpec":
        if var <= 0.0:
            raise InputError(f"diagonal variance must be positive, got {var}")
        return CovarianceSpec("diagonal", var)

    @staticmethod
    def identity() -> "CovarianceSpec":
        return CovarianceSpec("identity")


def sample_mvn(n: int, p: int, cov: CovarianceSpec, rng: np.random.Generator) -> np.ndarray:
    """Gaussian rows under the given covariance.

    The ar case uses the lag-one recursion x_j = rho * x_{j-1} +
    sqrt(1 - rho^2) * z_j, which realizes the rho^|j-k| covariance exactly in
    O(n*p) without any p-by-p factorization. It runs in place over the
    draw's own column views, so the matrix is written once.
    """
    z = rng.standard_normal((n, p))
    if cov.kind == "identity":
        return z
    if cov.kind == "diagonal":
        z *= math.sqrt(cov.param)  # in place: the same multiply, one matrix
        return z
    if cov.kind == "ar":
        rho = cov.param
        z[:, 1:] *= math.sqrt(1.0 - rho * rho)
        # the column views are made once: indexing z[:, j] in the loop costs
        # more than the multiply and add at these widths
        cols = list(z.T)
        for before, here in zip(cols, cols[1:]):
            here += rho * before
        return z
    raise InputError(f"unknown covariance kind {cov.kind!r}")


def _standard_cauchy(rng: np.random.Generator, shape) -> np.ndarray:
    # t with one degree of freedom, via the inverse-CDF map of a uniform
    # draw, tan(pi * (u - 0.5)), computed in place
    u = rng.random(shape)
    u -= 0.5
    u *= np.pi
    return np.tan(u, out=u)


_DEFAULT_SIZES = {"7": (400, 1000)}
_ACTIVE = {
    "1a": tuple(range(1, 9)),
    "1b": tuple(range(1, 9)),
    "1c": (1, 2),
    "1d": (1, 2),
    "2a": (1, 2),
    "2b": (1, 2),
    "2c": tuple(range(1, 9)),
    "3": (1, 2, 3),
    "4": (1, 2, 3),
    "5": (1, 2, 3, 4, 5, 20, 21, 22),
    "6": (1, 2),
    "7": (1, 2, 3, 4),
}
EXPERIMENT_IDS = tuple(_ACTIVE)


@dataclass(frozen=True)
class ExperimentSpec:
    """One benchmark design: experiment id, sizes, and base seed.

    n and p default to 200 and 3000 (400 and 1000 for experiment 7) and may
    be overridden for scaled-down runs.
    """

    id: str
    n: int | None = None
    p: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.id not in _ACTIVE:
            raise InputError(f"unknown experiment id {self.id!r}")
        dn, dp = _DEFAULT_SIZES.get(self.id, (200, 3000))
        if self.n is None:
            object.__setattr__(self, "n", dn)
        if self.p is None:
            object.__setattr__(self, "p", dp)
        if self.n < 2 or self.p < max(_ACTIVE[self.id]):
            raise InputError(f"sizes n={self.n}, p={self.p} too small for {self.id}")


@dataclass(frozen=True)
class GeneratedInstance:
    dataset: Dataset
    active: tuple[int, ...]
    censor_mask: np.ndarray | None = None


def active_set(experiment_id: str) -> tuple[int, ...]:
    """Ground-truth active columns (1-based) for an experiment id."""
    if experiment_id not in _ACTIVE:
        raise InputError(f"unknown experiment id {experiment_id!r}")
    return _ACTIVE[experiment_id]


def experiment_schemes(spec: ExperimentSpec) -> list[int] | None:
    """Slice counts the benchmark uses for this design.

    Experiment 6 fixes a single 3-class map of the count response; all other
    designs take the fused default for their sample size (None here).
    """
    return [3] if spec.id == "6" else None


def derived_rng(base_seed: int, index: int) -> np.random.Generator:
    """Independent stream for one replication, a pure function of the pair."""
    mask = (1 << 64) - 1
    return np.random.default_rng(np.random.SeedSequence([base_seed & mask, index & mask]))


def _signed_ninth_root(v: np.ndarray) -> np.ndarray:
    return np.sign(v) * np.abs(v) ** (1.0 / 9.0)


def gen_experiment(spec: ExperimentSpec, rng: np.random.Generator | None = None) -> GeneratedInstance:
    """Draw one dataset instance for the given design."""
    if rng is None:
        rng = derived_rng(spec.seed, 0)
    n, p = spec.n, spec.p
    kind = ResponseKind.CONTINUOUS
    censor_mask = None

    if spec.id in ("1a", "1b"):
        x = sample_mvn(n, p, CovarianceSpec.ar(0.8), rng)
        noise = rng.standard_normal(n) if spec.id == "1a" else _standard_cauchy(rng, n)
        y = x[:, :8].sum(axis=1) + noise
    elif spec.id in ("1c", "1d"):
        x = sample_mvn(n, p, CovarianceSpec.diagonal(0.8), rng)
        y = 2.0 * x[:, 0] - 2.0 * x[:, 1] + rng.standard_normal(n)
        if spec.id == "1d":
            # outliers at fixed 1-based observation rows
            pos = [i - 1 for i in (10, 30, 50, 70) if i <= n]
            neg = [i - 1 for i in (20, 40, 60, 80) if i <= n]
            y[pos] *= 100.0
            y[neg] *= -100.0
    elif spec.id == "2a":
        x = sample_mvn(n, p, CovarianceSpec.diagonal(0.8), rng)
        y = (3.0 * _signed_ninth_root(x[:, 0])
             - 3.0 * _signed_ninth_root(x[:, 1])
             + rng.standard_normal(n))
    elif spec.id == "2b":
        x = sample_mvn(n, p, CovarianceSpec.diagonal(0.8), rng)
        y = (3.0 * x[:, 0] - 3.0 * x[:, 1] + rng.standard_normal(n)) ** 9
    elif spec.id == "2c":
        x = sample_mvn(n, p, CovarianceSpec.ar(0.8), rng)
        y = np.exp(x[:, :8].sum(axis=1) + rng.standard_normal(n))
    elif spec.id == "3":
        x = _standard_cauchy(rng, (n, p))
        y = (3.0 * x[:, 0] + 2.0 * x[:, 1] + x[:, 2]) ** 3 + rng.standard_normal(n)
    elif spec.id == "4":
        x = rng.random((n, p))
        y = (4.0 * x[:, 0] + 2.0 * np.tan(np.pi * x[:, 1] / 2.0)
             + 5.0 * x[:, 2] ** 2 + rng.standard_normal(n))
    elif spec.id == "5":
        x = sample_mvn(n, p, CovarianceSpec.ar(0.8), rng)
        signal = 2.0 * (x[:, 0] + 0.8 * x[:, 1] + 0.6 * x[:, 2]
                        + 0.4 * x[:, 3] + 0.2 * x[:, 4])
        y = signal + np.exp(x[:, 19] + x[:, 20] + x[:, 21]) * rng.standard_normal(n)
    elif spec.id == "6":
        x = _standard_cauchy(rng, (n, p))
        eta = np.minimum(0.8 * x[:, 0] - 0.8 * x[:, 1], math.log(_POISSON_MEAN_CAP))
        y = rng.poisson(np.exp(eta)).astype(np.float64)
        kind = ResponseKind.COUNT
    elif spec.id == "7":
        # y = min(T, C), censored where C < T. C is drawn from the mixture
        # 0.4 N(-5, 4) + 0.1 N(5, 1) + 0.5 N(55, 1), written N(mu, sigma^2):
        # the second argument is a variance. The N(-5, 4) component alone
        # censors about 0.38 of rows; the implied rate is about 0.48.
        x = sample_mvn(n, p, CovarianceSpec.identity(), rng)
        s2 = np.sin(2.0 * np.pi * x[:, 2])
        w = 2.0 * np.pi * x[:, 3]
        lifetime = (5.0 * x[:, 0]
                    + 3.0 * (2.0 * x[:, 1] - 1.0) ** 2
                    + 4.0 * s2 / (2.0 - s2)
                    + 6.0 * (0.1 * np.sin(w) + 0.2 * np.cos(w) + 0.3 * np.sin(w) ** 2
                             + 0.4 * np.cos(w) ** 3 + 0.5 * np.sin(w) ** 3)
                    + math.sqrt(1.74) * rng.standard_normal(n))
        u = rng.random(n)
        component = np.where(u < 0.4, 0, np.where(u < 0.5, 1, 2))
        means = np.array([-5.0, 5.0, 55.0])[component]
        sds = np.sqrt(np.array([4.0, 1.0, 1.0]))[component]
        censor_time = means + sds * rng.standard_normal(n)
        censor_mask = censor_time < lifetime
        y = np.minimum(lifetime, censor_time)
    else:  # unreachable; ExperimentSpec validates the id
        raise InputError(f"unknown experiment id {spec.id!r}")

    dataset = Dataset(y=y, x=x, kind=kind)
    return GeneratedInstance(dataset=dataset, active=_ACTIVE[spec.id],
                             censor_mask=censor_mask)
