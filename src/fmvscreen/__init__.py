"""Model-free feature screening with the fused mean-variance filter.

The filter slices the response into quantile bins at several resolutions,
measures for each predictor how far its conditional ECDF within each slice
drifts from its marginal ECDF, and sums the statistic over the slice
schemes. Ranking predictors by the fused score screens ultrahigh-dimensional
data without any model assumption. Baseline screeners (Pearson, Kendall,
fused Kolmogorov) and a replicated minimum-model-size benchmark round out
the package.

Each module's ``__all__`` states its public names once; the package
republishes them all.
"""

from . import baselines, bench, errors, mv, screening, simulate, slicing
from .baselines import *  # noqa: F403
from .bench import *  # noqa: F403
from .errors import *  # noqa: F403
from .mv import *  # noqa: F403
from .screening import *  # noqa: F403
from .simulate import *  # noqa: F403
from .slicing import *  # noqa: F403

__version__ = "0.1.0"

__all__: list[str] = []
__all__ += baselines.__all__
__all__ += bench.__all__
__all__ += errors.__all__
__all__ += mv.__all__
__all__ += screening.__all__
__all__ += simulate.__all__
__all__ += slicing.__all__
