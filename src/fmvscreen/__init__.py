"""Model-free feature screening with the fused mean-variance filter.

The filter slices the response into quantile bins at several resolutions,
measures for each predictor how far its conditional ECDF within each slice
drifts from its marginal ECDF, and sums the statistic over the slice
schemes. Ranking predictors by the fused score screens ultrahigh-dimensional
data without any model assumption. Baseline screeners (Pearson, Kendall,
fused Kolmogorov) and a replicated minimum-model-size benchmark round out
the package.
"""

from .bench import (
    MmsSummary,
    mms,
    parse_table_csv,
    render_table_csv,
    render_table_text,
    run_replications,
    write_reports,
)
from .baselines import (
    fks_score,
    fks_scores,
    kendall_score,
    kendall_scores,
    pearson_score,
    pearson_scores,
)
from .errors import DegenerateSlicesError, InputError
from .mv import mv_hat, mv_hat_bruteforce
from .screening import (
    Dataset,
    FmvScore,
    ResponseKind,
    ScreeningResult,
    default_selection_size,
    fmv_hat,
    fmv_scores,
    screen,
)
from .simulate import (
    EXPERIMENT_IDS,
    CovarianceSpec,
    ExperimentSpec,
    GeneratedInstance,
    active_set,
    derived_rng,
    gen_experiment,
    sample_mvn,
)
from .slicing import (
    SliceLabels,
    build_categorical_slices,
    build_discrete_slices,
    build_quantile_slices,
    default_schemes,
)

__version__ = "0.1.0"

__all__ = [
    "CovarianceSpec",
    "Dataset",
    "DegenerateSlicesError",
    "EXPERIMENT_IDS",
    "ExperimentSpec",
    "FmvScore",
    "GeneratedInstance",
    "InputError",
    "MmsSummary",
    "ResponseKind",
    "ScreeningResult",
    "SliceLabels",
    "active_set",
    "build_categorical_slices",
    "build_discrete_slices",
    "build_quantile_slices",
    "default_schemes",
    "default_selection_size",
    "derived_rng",
    "fks_score",
    "fks_scores",
    "fmv_hat",
    "fmv_scores",
    "gen_experiment",
    "kendall_score",
    "kendall_scores",
    "mms",
    "mv_hat",
    "mv_hat_bruteforce",
    "parse_table_csv",
    "pearson_score",
    "pearson_scores",
    "render_table_csv",
    "render_table_text",
    "run_replications",
    "sample_mvn",
    "screen",
    "write_reports",
]
