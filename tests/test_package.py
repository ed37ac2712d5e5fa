"""The package's public surface: each module's ``__all__`` states its names
once, and ``fmvscreen`` republishes them."""

from __future__ import annotations

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
