"""The package's public surface: each module's ``__all__`` states its names
once, and ``fmvscreen`` republishes them, loading each module on first use."""

from __future__ import annotations

import pytest

import fmvscreen
from fmvscreen import baselines, bench, errors, mv, screening, simulate, slicing

MODULES = (baselines, bench, errors, mv, screening, simulate, slicing)

# every name the package has exported since its surface was last pinned
EXPORTED = {
    "CovarianceSpec", "Dataset", "DegenerateSlicesError", "EXPERIMENT_IDS",
    "ExperimentSpec", "FmvScore", "GeneratedInstance", "InputError", "MmsSummary",
    "ResponseKind", "ScreeningResult", "SliceLabels", "active_set",
    "build_categorical_slices", "build_discrete_slices", "build_quantile_slices",
    "default_schemes", "default_selection_size", "derived_rng", "fks_score",
    "fks_scores", "fmv_hat", "fmv_scores", "gen_experiment", "kendall_score",
    "kendall_scores", "mms", "mv_hat", "mv_hat_bruteforce", "parse_table_csv",
    "pearson_score", "pearson_scores", "render_table_csv", "render_table_text",
    "run_replications", "sample_mvn", "screen", "write_reports",
}


def test_package_all_is_the_modules_all_lists() -> None:
    assert fmvscreen.__all__ == [name for module in MODULES for name in module.__all__]
    assert len(set(fmvscreen.__all__)) == len(fmvscreen.__all__)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(fmvscreen, name) is getattr(module, name), name
    assert len(EXPORTED) == 38 and EXPORTED <= set(fmvscreen.__all__)
    # the ranked view README passes as ranked=, and the two names the
    # package's own list once left out
    assert {"ranked_columns", "SCREENER_NAMES", "experiment_schemes"} <= set(fmvscreen.__all__)


def test_name_table_copies_each_modules_all() -> None:
    # the lazy package resolves names from its own table, not the modules'
    assert list(fmvscreen._EXPORTS) == [m.__name__.split(".")[-1] for m in MODULES]
    for module in MODULES:
        name = module.__name__.split(".")[-1]
        assert list(fmvscreen._EXPORTS[name]) == module.__all__, name
        assert getattr(fmvscreen, name) is module


def test_dir_lists_every_name_and_module() -> None:
    listed = dir(fmvscreen)
    assert set(fmvscreen.__all__) <= set(listed)
    assert {"baselines", "bench", "checks", "errors", "mv", "screening", "simulate",
            "slicing", "__version__"} <= set(listed)


def test_unknown_name_raises_attribute_error_naming_it() -> None:
    with pytest.raises(AttributeError, match="module 'fmvscreen' has no attribute 'no_such'"):
        fmvscreen.no_such  # noqa: B018
    with pytest.raises(ImportError, match="no_such"):
        exec("from fmvscreen import no_such", {})


def test_star_import_binds_every_name() -> None:
    namespace: dict = {}
    exec("from fmvscreen import *", namespace)
    for name in fmvscreen.__all__:
        assert namespace[name] is getattr(fmvscreen, name), name
    assert not {"baselines", "bench", "_EXPORTS", "importlib"} & set(namespace)
