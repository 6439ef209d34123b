"""plapt: the alpha-power transformed Pseudo-Lindley distribution family.

Densities, reliability and hazard functions, exact Lambert-W quantiles and
sampling, order statistics, maximum-likelihood fitting, tail asymptotics,
the double-indexed Hill extreme-value-index estimator, and reproducible
simulation experiments.
"""

__version__ = "0.1.0"  # first: montecarlo imports it

# Each module's __all__ is the one list of its public names.
from . import distribution, exceptions, extremes, inference, montecarlo, special_functions
from .distribution import *
from .exceptions import *
from .extremes import *
from .inference import *
from .montecarlo import *
from .special_functions import *

__all__ = ["__version__"]
__all__ += distribution.__all__
__all__ += exceptions.__all__
__all__ += extremes.__all__
__all__ += inference.__all__
__all__ += montecarlo.__all__
__all__ += special_functions.__all__
