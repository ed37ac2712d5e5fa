from __future__ import annotations

import math

import numpy as np
import pytest

from fmvscreen import (
    CovarianceSpec,
    EXPERIMENT_IDS,
    ExperimentSpec,
    InputError,
    ResponseKind,
    active_set,
    derived_rng,
    gen_experiment,
    sample_mvn,
)

EXPECTED_ACTIVE_SIZES = {
    "1a": 8, "1b": 8, "1c": 2, "1d": 2, "2a": 2, "2b": 2,
    "2c": 8, "3": 3, "4": 3, "5": 8, "6": 2, "7": 4,
}


def test_regeneration_is_bit_identical() -> None:
    spec = ExperimentSpec("1c", n=50, p=40, seed=77)
    a = gen_experiment(spec)
    b = gen_experiment(spec)
    assert np.array_equal(a.dataset.x, b.dataset.x)
    assert np.array_equal(a.dataset.y, b.dataset.y)
    assert a.active == b.active


def test_outlier_case_modifies_exactly_eight_rows() -> None:
    seed = 5
    clean = gen_experiment(ExperimentSpec("1c", n=100, p=30, seed=seed))
    dirty = gen_experiment(ExperimentSpec("1d", n=100, p=30, seed=seed))
    assert np.array_equal(clean.dataset.x, dirty.dataset.x)
    scaled_pos = [9, 29, 49, 69]      # 1-based rows 10, 30, 50, 70
    scaled_neg = [19, 39, 59, 79]     # 1-based rows 20, 40, 60, 80
    assert np.array_equal(dirty.dataset.y[scaled_pos], 100.0 * clean.dataset.y[scaled_pos])
    assert np.array_equal(dirty.dataset.y[scaled_neg], -100.0 * clean.dataset.y[scaled_neg])
    untouched = np.setdiff1d(np.arange(100), scaled_pos + scaled_neg)
    assert np.array_equal(dirty.dataset.y[untouched], clean.dataset.y[untouched])


def test_active_sets_match_expected_sizes() -> None:
    for exp_id, size in EXPECTED_ACTIVE_SIZES.items():
        active = active_set(exp_id)
        assert len(active) == size
        assert min(active) >= 1
    assert set(EXPERIMENT_IDS) == set(EXPECTED_ACTIVE_SIZES)
    assert active_set("5") == (1, 2, 3, 4, 5, 20, 21, 22)


def test_default_sizes_and_kinds() -> None:
    linear = gen_experiment(ExperimentSpec("1a", seed=1))
    assert linear.dataset.x.shape == (200, 3000)
    assert linear.dataset.kind is ResponseKind.CONTINUOUS
    assert linear.censor_mask is None

    censored = gen_experiment(ExperimentSpec("7", seed=1))
    assert censored.dataset.x.shape == (400, 1000)
    assert censored.censor_mask is not None
    assert censored.censor_mask.dtype == bool
    assert 0 < censored.censor_mask.sum() < 400

    counts = gen_experiment(ExperimentSpec("6", n=40, p=10, seed=1))
    assert counts.dataset.kind is ResponseKind.COUNT
    y = counts.dataset.y
    assert np.all(y >= 0) and np.all(y == np.floor(y))


def test_sample_mvn_identity_covariance() -> None:
    rng = np.random.default_rng(101)
    x = sample_mvn(10000, 3, CovarianceSpec.identity(), rng)
    sample_cov = np.cov(x, rowvar=False)
    assert np.all(np.abs(sample_cov - np.eye(3)) < 0.05)


def test_sample_mvn_ar_lag_one_correlation() -> None:
    rng = np.random.default_rng(102)
    x = sample_mvn(10000, 6, CovarianceSpec.ar(0.8), rng)
    corr = np.corrcoef(x, rowvar=False)
    assert abs(corr[0, 1] - 0.8) < 0.03
    assert abs(corr[2, 3] - 0.8) < 0.03
    assert abs(corr[0, 2] - 0.64) < 0.03  # two steps apart: 0.8^2


@pytest.mark.parametrize("n, p", [(200, 300), (40, 1000), (50, 17), (3, 1), (1, 4)])
def test_sample_mvn_ar_bytes_match_the_column_recursion(n, p) -> None:
    # the recursion runs over rows of a transposed copy; the float operations
    # are those of x_j = rho * x_{j-1} + scale * z_j column by column
    rho = 0.8
    x = sample_mvn(n, p, CovarianceSpec.ar(rho), np.random.default_rng(9))
    z = np.random.default_rng(9).standard_normal((n, p))
    expect = np.empty((n, p))
    expect[:, 0] = z[:, 0]
    scale = math.sqrt(1.0 - rho * rho)
    for j in range(1, p):
        expect[:, j] = rho * expect[:, j - 1] + scale * z[:, j]
    assert x.flags.c_contiguous
    assert x.tobytes() == expect.tobytes()


def test_sample_mvn_diagonal_bytes_match_the_scaled_draw() -> None:
    # the draw is scaled in place; the multiply is the same as sqrt(v) * z
    for v in (0.8, 2.0, 1e-3):
        x = sample_mvn(50, 30, CovarianceSpec.diagonal(v), np.random.default_rng(10))
        z = np.random.default_rng(10).standard_normal((50, 30))
        assert x.tobytes() == (math.sqrt(v) * z).tobytes()


def test_sample_mvn_diagonal_variance() -> None:
    rng = np.random.default_rng(103)
    x = sample_mvn(10000, 4, CovarianceSpec.diagonal(0.8), rng)
    assert np.all(np.abs(x.var(axis=0, ddof=1) - 0.8) < 0.03)
    corr = np.corrcoef(x, rowvar=False)
    assert np.all(np.abs(corr - np.eye(4)) < 0.05)


def test_heavy_tail_draws_have_excess_kurtosis() -> None:
    inst = gen_experiment(ExperimentSpec("3", n=200, p=20, seed=9))
    draws = inst.dataset.x.ravel()
    z = (draws - draws.mean()) / draws.std()
    kurtosis = float((z ** 4).mean())
    assert kurtosis > 20.0  # Gaussian is 3


def test_transform_cases_have_expected_shape() -> None:
    root = gen_experiment(ExperimentSpec("2a", n=60, p=20, seed=3))
    assert np.isfinite(root.dataset.y).all()
    powered = gen_experiment(ExperimentSpec("2b", n=60, p=20, seed=3))
    assert np.isfinite(powered.dataset.y).all()
    logged = gen_experiment(ExperimentSpec("2c", n=60, p=20, seed=3))
    assert np.all(logged.dataset.y > 0)  # realized as exp of the linear index


def test_unknown_id_rejected() -> None:
    with pytest.raises(InputError):
        ExperimentSpec("9z")
    with pytest.raises(InputError):
        active_set("9z")


def test_size_overrides_respected() -> None:
    inst = gen_experiment(ExperimentSpec("1a", n=60, p=50, seed=0))
    assert inst.dataset.x.shape == (60, 50)
    with pytest.raises(InputError):
        ExperimentSpec("5", n=30, p=10)  # p below the largest active index


def test_derived_rng_streams() -> None:
    a = derived_rng(42, 0).standard_normal(5)
    b = derived_rng(42, 0).standard_normal(5)
    c = derived_rng(42, 1).standard_normal(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
