"""plapt: the alpha-power transformed Pseudo-Lindley distribution family.

Densities, reliability and hazard functions, exact Lambert-W quantiles and
sampling, order statistics, maximum-likelihood fitting, tail asymptotics,
the double-indexed Hill extreme-value-index estimator, and reproducible
simulation experiments.
"""

__version__ = "0.1.0"

from .distribution import (
    OrderStatSpec,
    PlAptParams,
    Sample,
    cdf,
    hazard,
    median_order_stat_pdf,
    order_stat_pdf,
    pdf,
    quantile,
    reliability,
    sample,
    tail_quantile,
)
from .exceptions import DomainError, NumericalError, PlaptError
from .extremes import (
    EviReport,
    EviTestResult,
    ExtremalExpansion,
    MaximaResult,
    PiVariationPoint,
    WeightSpec,
    a_function,
    double_hill_components,
    evi_asymptotic_test,
    extremal_quantile,
    gumbel_ks_distance,
    maxima_normalization,
    pi_variation_check,
    tail_constant,
)
from .inference import (
    FamilySpec,
    FitResult,
    ModelCompareRow,
    fit_mle,
    fit_mle_profile,
    lindley_family,
    log_likelihood,
    model_compare,
    pl_apt_family,
    pseudo_lindley_family,
    score,
)
from .montecarlo import (
    REFERENCE_PARAMETER_GRID,
    ExperimentConfig,
    ExperimentKind,
    ExperimentReport,
    run_experiment,
)
from .special_functions import BRANCH_POINT, LambertBranch, lambert_w

__all__ = [
    "__version__",
    "BRANCH_POINT",
    "DomainError",
    "EviReport",
    "EviTestResult",
    "ExperimentConfig",
    "ExperimentKind",
    "ExperimentReport",
    "ExtremalExpansion",
    "FamilySpec",
    "FitResult",
    "LambertBranch",
    "MaximaResult",
    "ModelCompareRow",
    "NumericalError",
    "OrderStatSpec",
    "PiVariationPoint",
    "PlAptParams",
    "PlaptError",
    "REFERENCE_PARAMETER_GRID",
    "Sample",
    "WeightSpec",
    "a_function",
    "cdf",
    "double_hill_components",
    "evi_asymptotic_test",
    "extremal_quantile",
    "fit_mle",
    "fit_mle_profile",
    "gumbel_ks_distance",
    "hazard",
    "lambert_w",
    "lindley_family",
    "log_likelihood",
    "maxima_normalization",
    "median_order_stat_pdf",
    "model_compare",
    "order_stat_pdf",
    "pdf",
    "pi_variation_check",
    "pl_apt_family",
    "pseudo_lindley_family",
    "quantile",
    "reliability",
    "run_experiment",
    "sample",
    "score",
    "tail_constant",
    "tail_quantile",
]
