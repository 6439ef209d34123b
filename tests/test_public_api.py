"""The public surface: each module's ``__all__`` lists what it defines, and
``plapt`` re-exports exactly those lists."""
import inspect

import plapt
from plapt import distribution, exceptions, extremes, inference, montecarlo, special_functions

MODULES = (distribution, exceptions, extremes, inference, montecarlo, special_functions)

PUBLIC_NAMES = [
    "BRANCH_POINT", "DomainError", "EviReport", "EviTestResult", "ExperimentConfig", "ExperimentKind",
    "ExperimentReport", "ExtremalExpansion", "FamilySpec", "FitResult", "LambertBranch", "MaximaResult",
    "ModelCompareRow", "NumericalError", "OrderStatSpec", "PiVariationPoint", "PlAptParams", "PlaptError",
    "REFERENCE_PARAMETER_GRID", "Sample", "WeightSpec", "__version__", "a_function", "cdf",
    "double_hill_components", "evi_asymptotic_test", "extremal_quantile", "fit_mle", "fit_mle_profile",
    "gumbel_ks_distance", "hazard", "lambert_w", "lindley_family", "log_likelihood", "maxima_normalization",
    "median_order_stat_pdf", "model_compare", "order_stat_pdf", "pdf", "pi_variation_check", "pl_apt_family",
    "pseudo_lindley_family", "quantile", "reliability", "replication_rng", "run_experiment", "sample", "score",
    "tail_constant", "tail_quantile",
]


def test_public_surface_is_declared_once():
    for module in MODULES:
        for name in module.__all__:
            value = getattr(module, name)
            if inspect.isclass(value) or inspect.isfunction(value):
                assert value.__module__ == module.__name__, f"{module.__name__} lists {name}"
            assert getattr(plapt, name) is value
    assert len(plapt.__all__) == len(set(plapt.__all__))
    assert plapt.__all__ == ["__version__"] + [name for module in MODULES for name in module.__all__]
    assert sorted(plapt.__all__) == PUBLIC_NAMES
