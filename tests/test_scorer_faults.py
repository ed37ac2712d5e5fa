"""The honest-failure contract of the scorers, swept over small matrices with
ties, signed zeros and values one ulp apart, and responses from continuous
to constant: every scorer returns finite, nonnegative scores, or raises
``InputError`` or ``DegenerateSlicesError``. Any other exception, a NaN, an
infinity or a negative score fails. ``run_replications`` on tiny designs
never scores an all-zero vector without flagging its replication."""

from __future__ import annotations

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import fmvscreen.bench  # noqa: E402
from fmvscreen import (  # noqa: E402
    EXPERIMENT_IDS,
    Dataset,
    DegenerateSlicesError,
    ExperimentSpec,
    InputError,
    ResponseKind,
    fks_scores,
    fmv_scores,
    kendall_scores,
    pearson_scores,
    run_replications,
    screen,
)
from fmvscreen.simulate import _ACTIVE  # noqa: E402


def x_column(kind: str, rng, n: int) -> np.ndarray:
    if kind == "continuous":
        return rng.normal(size=n)
    if kind == "constant":
        return np.full(n, 1.5)
    if kind == "zero-one":
        return rng.integers(0, 2, size=n).astype(float)
    if kind == "signed-zero":
        return rng.choice([-0.0, 0.0, 1.0], size=n)
    return rng.choice([0.3, 0.1 + 0.2, 1.0, float(np.nextafter(1.0, 2.0))], size=n)


def y_vector(kind: str, rng, n: int) -> np.ndarray:
    if kind == "continuous":
        return rng.normal(size=n)
    if kind == "two-valued":
        return rng.choice([-1.0, 2.0], size=n)
    if kind == "constant":
        return np.full(n, 4.0)
    if kind == "poisson":
        return rng.poisson(2.0, size=n).astype(float)
    if kind == "zero-count":
        return np.zeros(n)
    if kind == "few-class":
        return rng.integers(0, 3, size=n).astype(float)
    return rng.permutation(n).astype(float)  # every class distinct


X_KINDS = ["continuous", "constant", "zero-one", "signed-zero", "one-ulp"]
Y_KINDS = ["continuous", "two-valued", "constant", "poisson", "zero-count", "few-class",
           "distinct"]


@st.composite
def scorer_cases(draw):
    n = draw(st.integers(1, 30))
    p = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    x = np.column_stack([x_column(draw(st.sampled_from(X_KINDS)), rng, n) for _ in range(p)])
    y = y_vector(draw(st.sampled_from(Y_KINDS)), rng, n)
    kind = draw(st.sampled_from(list(ResponseKind)))
    schemes = draw(st.sampled_from([None, [3], [2, 5], [n + 1], [3, n + 2]]))
    return x, y, kind, schemes


def honest(call, p: int, *scores_of) -> None:
    """Runs ``call``: it raises an input or slicing error, or each of the
    arrays that ``scores_of`` picks from its result holds p finite,
    nonnegative scores."""
    try:
        result = call()
    except (InputError, DegenerateSlicesError):
        return
    for pick in scores_of or (lambda r: r,):
        scores = np.asarray(pick(result))
        assert scores.shape[-1] == p
        assert np.isfinite(scores).all() and (scores >= 0).all()


@pytest.mark.filterwarnings("ignore:sample size .* is below 27:RuntimeWarning")
@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(scorer_cases())
def test_scorers_return_honest_scores_or_raise(case) -> None:
    x, y, kind, schemes = case
    p = x.shape[1]
    honest(lambda: fmv_scores(x, y, kind, schemes), p, lambda r: r[0], lambda r: r[1])
    honest(lambda: fks_scores(x, y, kind, schemes), p)
    honest(lambda: kendall_scores(x, y), p)
    honest(lambda: pearson_scores(x, y), p)
    honest(lambda: screen(Dataset(y=y, x=x, kind=kind), schemes), p, lambda r: r.scores)


@pytest.mark.filterwarnings("ignore:sample size .* is below 27:RuntimeWarning")
@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=30, deadline=None)
@given(st.sampled_from(EXPERIMENT_IDS), st.integers(2, 12), st.integers(0, 3),
       st.integers(0, 1000))
def test_replications_never_score_an_unflagged_all_zero_vector(case, n, extra, seed) -> None:
    spec = ExperimentSpec(case, n=n, p=max(_ACTIVE[case]) + extra)
    scored = []
    score_one = fmvscreen.bench._score_one

    def spy(*args):
        scores, flagged = score_one(*args)
        scored.append((scores, flagged))
        return scores, flagged

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fmvscreen.bench, "_score_one", spy)
        summaries = run_replications(spec, ["fmv", "sis", "rcs", "fks"], reps=2, base_seed=seed)
    assert len(scored) == 8
    for scores, flagged in scored:
        assert scores.shape == (spec.p,)
        assert flagged or (np.isfinite(scores).all() and (scores >= 0).all() and scores.any())
    assert sum(len(s.degenerate_reps) for s in summaries) == sum(f for _, f in scored)
