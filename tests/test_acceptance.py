"""Acceptance gate: benchmark-scale checks, one printed PASS/FAIL line each.

The table-reproduction fixtures run 100 replications per experiment at full
size (n = 200, p = 3000), which takes a few minutes; run with ``pytest -s``
to watch per-case progress.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from fmvscreen import (
    ExperimentSpec,
    default_selection_size,
    derived_rng,
    fmv_scores,
    gen_experiment,
    mv_hat,
    mv_hat_bruteforce,
    run_replications,
    write_reports,
)
from fmvscreen.slicing import SliceLabels, build_quantile_slices

ACCEPT_SEED = 20260801
REPS_TABLE1 = 100
REPS_CONTRAST = 50

TABLE1_CASES = ("1a", "1b", "1c", "1d", "2a", "3", "4", "6")


def report(name: str, ok: bool, detail: str) -> bool:
    print(f"[acceptance] {'PASS' if ok else 'FAIL'} {name}: {detail}", flush=True)
    return ok


@pytest.fixture(scope="module")
def table1_fmv():
    runs = {}
    for case in TABLE1_CASES:
        start = time.time()
        spec = ExperimentSpec(case, seed=ACCEPT_SEED)
        runs[case] = run_replications(spec, ["fmv"], reps=REPS_TABLE1,
                                      base_seed=ACCEPT_SEED, threads=0)[0]
        print(f"[acceptance] case {case}: median MMS {runs[case].median:g} "
              f"({time.time() - start:.0f}s)", flush=True)
    return runs


@pytest.fixture(scope="module")
def contrast_runs():
    runs = {}
    for case in ("1b", "1d"):
        spec = ExperimentSpec(case, seed=ACCEPT_SEED)
        out = run_replications(spec, ["fmv", "sis"], reps=REPS_CONTRAST,
                               base_seed=ACCEPT_SEED + 1, threads=0)
        runs[case] = {s.screener: s for s in out}
    return runs


def test_exact_median_reproductions(table1_fmv) -> None:
    expected = {"1a": 8.0, "1c": 2.0, "2a": 2.0}
    got = {case: table1_fmv[case].median for case in expected}
    ok = got == expected
    report("table1-exact-medians", ok, f"expected {expected}, got {got}")
    assert got == expected


def test_robust_case_medians(table1_fmv) -> None:
    bands = {"1b": (8.0, 1.0), "1d": (2.0, 1.0), "3": (3.0, 2.0),
             "4": (3.0, 2.0), "6": (2.0, 1.0)}
    got = {case: table1_fmv[case].median for case in bands}
    ok = all(abs(got[c] - target) <= tol for c, (target, tol) in bands.items())
    report("table1-robust-medians", ok, f"targets {bands}, got {got}")
    for case, (target, tol) in bands.items():
        assert abs(got[case] - target) <= tol, f"case {case}: median {got[case]}"


def test_baseline_contrast(contrast_runs) -> None:
    fmv_1b = contrast_runs["1b"]["fmv"].median
    sis_1b = contrast_runs["1b"]["sis"].median
    fmv_1d = contrast_runs["1d"]["fmv"].median
    sis_1d = contrast_runs["1d"]["sis"].median
    ok = sis_1b > fmv_1b and sis_1d > 100.0 and abs(fmv_1d - 2.0) <= 1.0
    report("baseline-contrast", ok,
           f"1b fmv={fmv_1b:g} sis={sis_1b:g}; 1d fmv={fmv_1d:g} sis={sis_1d:g}")
    assert sis_1b > fmv_1b
    assert sis_1d > 100.0
    assert abs(fmv_1d - 2.0) <= 1.0


def test_oracle_equivalence_thousand_instances() -> None:
    rng = np.random.default_rng(ACCEPT_SEED)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 101))
        x = rng.normal(size=n)
        if rng.random() < 0.35:
            x = np.round(x, 1)
        raw = rng.integers(1, int(rng.integers(2, 9)) + 1, size=n)
        _, inv = np.unique(raw, return_inverse=True)
        g = (inv + 1).astype(np.int64)
        labels = SliceLabels(g=g, counts=np.bincount(inv))
        worst = max(worst, abs(mv_hat(x, labels) - mv_hat_bruteforce(x, labels)))
    ok = worst <= 1e-12
    report("oracle-equivalence", ok, f"worst |fast - bruteforce| = {worst:.3e}")
    assert worst <= 1e-12


def test_hand_example_median_split() -> None:
    x = np.array([1.0, 2.0, 3.0, 4.0])
    labels = build_quantile_slices(x, 2)
    oracle = mv_hat_bruteforce(x, labels)
    fast = mv_hat(x, labels)
    ok = oracle == 0.09375 and fast == 0.09375
    report("hand-example", ok, f"bruteforce={oracle!r}, fast={fast!r}")
    assert oracle == 0.09375
    assert fast == 0.09375


def test_invariance_suite(tmp_path) -> None:
    rng = derived_rng(ACCEPT_SEED, 99)
    n, p = 200, 50
    x = rng.standard_normal((n, p))
    y = x[:, 0] - x[:, 1] + rng.standard_normal(n)

    base, _, _ = fmv_scores(x, y)
    transformed = x.copy()
    transformed[:, 0] = transformed[:, 0] ** 3
    transformed[:, 1] = np.exp(transformed[:, 1])
    drift = float(np.max(np.abs(fmv_scores(transformed, y)[0] - base)))

    response_t, _, _ = fmv_scores(x, y ** 3)
    response_identical = bool(np.array_equal(base, response_t))

    perm = rng.permutation(n)
    permuted, _, _ = fmv_scores(x[perm], y[perm])
    perm_identical = bool(np.array_equal(base, permuted))

    spec = ExperimentSpec("1a", n=64, p=60)
    serial = run_replications(spec, ["fmv", "sis"], reps=8, base_seed=5, threads=1)
    threaded = run_replications(spec, ["fmv", "sis"], reps=8, base_seed=5, threads=2)
    write_reports(serial, tmp_path / "serial")
    write_reports(threaded, tmp_path / "threaded")
    reports_identical = (
        (tmp_path / "serial" / "table1.csv").read_bytes()
        == (tmp_path / "threaded" / "table1.csv").read_bytes()
    )

    ok = (drift <= 1e-12 and response_identical and perm_identical
          and reports_identical)
    report("invariance-suite", ok,
           f"predictor drift {drift:.2e}; response bit-identical "
           f"{response_identical}; permutation bit-identical {perm_identical}; "
           f"thread-invariant reports {reports_identical}")
    assert drift <= 1e-12
    assert response_identical
    assert perm_identical
    assert reports_identical


def test_sure_screening_containment(table1_fmv) -> None:
    d_n = default_selection_size(200)
    contained = float(np.mean(table1_fmv["1a"].mms <= d_n))
    ok = contained == 1.0
    report("sure-screening", ok,
           f"case 1a containment rate at d_n={d_n}: {contained:.3f}")
    assert contained == 1.0


def test_rank_gap_positivity() -> None:
    spec = ExperimentSpec("1c", seed=ACCEPT_SEED)
    worst_gap = np.inf
    for r in range(REPS_TABLE1):
        instance = gen_experiment(spec, derived_rng(ACCEPT_SEED, r))
        fused, _, _ = fmv_scores(instance.dataset.x, instance.dataset.y)
        active = np.array(instance.active) - 1
        inactive = np.setdiff1d(np.arange(instance.dataset.p), active)
        gap = float(fused[active].min() - fused[inactive].max())
        worst_gap = min(worst_gap, gap)
    ok = worst_gap > 0.0
    report("rank-gap", ok, f"case 1c worst active-inactive score gap: {worst_gap:.3e}")
    assert worst_gap > 0.0


# Experiment 7 draws its censoring time C from sum_k w_k N(mu_k, var_k); each
# entry is (w_k, mu_k, var_k). The lifetime noise is sqrt(1.74) * N(0, 1).
CENSOR_MIXTURE = ((0.4, -5.0, 4.0), (0.1, 5.0, 1.0), (0.5, 55.0, 1.0))
LIFETIME_NOISE_VAR = 1.74
_erf = np.vectorize(math.erf)


def _design7_lifetime_mean(x: np.ndarray) -> np.ndarray:
    """m(x) of experiment 7, written out from the design formula."""
    s2 = np.sin(2.0 * np.pi * x[:, 2])
    w = 2.0 * np.pi * x[:, 3]
    return (5.0 * x[:, 0]
            + 3.0 * (2.0 * x[:, 1] - 1.0) ** 2
            + 4.0 * s2 / (2.0 - s2)
            + 6.0 * (0.1 * np.sin(w) + 0.2 * np.cos(w) + 0.3 * np.sin(w) ** 2
                     + 0.4 * np.cos(w) ** 3 + 0.5 * np.sin(w) ** 3))


def _censoring_probability(x: np.ndarray) -> np.ndarray:
    """P(C < T | x) = sum_k w_k Phi((m(x) - mu_k) / sqrt(1.74 + var_k))."""
    m = _design7_lifetime_mean(x)
    total = np.zeros_like(m)
    for w, mu, var in CENSOR_MIXTURE:
        z = (m - mu) / math.sqrt(LIFETIME_NOISE_VAR + var)
        total += w * 0.5 * (1.0 + _erf(z / math.sqrt(2.0)))
    return total


def test_censoring_proportion_band() -> None:
    """Observed censoring matches design 7's own mechanism.

    Given a row's covariates, T - C_k is normal for each mixture component,
    so the row is censored (C < T) with the exact probability p(x) above. The
    pooled observed proportion must lie within 4 binomial standard errors,
    sqrt(sum p(1 - p)) / N, of mean p(x).
    """
    censored = 0
    probabilities = []
    for i in range(100):
        instance = gen_experiment(ExperimentSpec("7", seed=ACCEPT_SEED + i))
        censored += int(instance.censor_mask.sum())
        probabilities.append(_censoring_probability(instance.dataset.x[:, :4]))
    p = np.concatenate(probabilities)
    rows = p.size
    observed = censored / rows
    expected = float(p.mean())
    se = math.sqrt(float(np.sum(p * (1.0 - p)))) / rows
    z = (observed - expected) / se
    ok = abs(z) <= 4.0
    report("censoring-proportion", ok,
           f"observed {observed:.4f} over {rows} rows, expected {expected:.4f}, "
           f"SE {se:.4f}, z = {z:+.2f} (|z| <= 4 required)")
    assert ok, (
        f"censoring proportion {observed:.4f} is {z:+.2f} SE from the "
        f"mechanism's expected {expected:.4f}"
    )
