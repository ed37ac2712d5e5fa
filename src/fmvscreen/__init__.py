"""Model-free feature screening with the fused mean-variance filter.

The filter slices the response into quantile bins at several resolutions,
measures for each predictor how far its conditional ECDF within each slice
drifts from its marginal ECDF, and sums the statistic over the slice
schemes. Ranking predictors by the fused score screens ultrahigh-dimensional
data without any model assumption. Baseline screeners (Pearson, Kendall,
fused Kolmogorov) and a replicated minimum-model-size benchmark round out
the package.

Each module's ``__all__`` states its public names once; the package
republishes them all. Nothing is imported until a name is first used
(PEP 562), so ``import fmvscreen`` loads neither numpy nor any module, and
a command loads only the modules it runs.
"""

import importlib

__version__ = "0.1.0"

# each module's ``__all__``, copied so the names resolve without importing
# the module; tests/test_package.py pins every copy to its module's list
_EXPORTS = {
    "baselines": ("pearson_score", "pearson_scores", "kendall_score", "kendall_scores",
                  "fks_score", "fks_scores"),
    "bench": ("SCREENER_NAMES", "MmsSummary", "mms", "run_replications", "render_table_csv",
              "render_table_text", "parse_table_csv", "write_reports"),
    "errors": ("InputError", "DegenerateSlicesError"),
    "mv": ("mv_hat", "mv_hat_bruteforce", "ranked_columns"),
    "screening": ("ResponseKind", "Dataset", "FmvScore", "ScreeningResult",
                  "default_selection_size", "fmv_hat", "fmv_scores", "screen"),
    "simulate": ("CovarianceSpec", "ExperimentSpec", "GeneratedInstance", "EXPERIMENT_IDS",
                 "sample_mvn", "gen_experiment", "derived_rng", "active_set",
                 "experiment_schemes"),
    "slicing": ("SliceLabels", "build_quantile_slices", "build_discrete_slices",
                "build_categorical_slices", "default_schemes"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}
# checks: the eager package loaded it beside the others, so it kept resolving
_SUBMODULES = frozenset(_EXPORTS) | {"checks"}

__all__ = list(_OWNER)


def __getattr__(name: str):
    if name in _SUBMODULES:
        # the import binds the submodule on the package
        return importlib.import_module(f"{__name__}.{name}")
    module = _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | _SUBMODULES | set(__all__))
