"""stochrec: particle-measure machinery for stochastic recurrence equations.

Builds noise-conditional particle measures for recurrences
``x_next = apply(x, xi)``, verifies the characteristic-functional identity
linking consecutive coordinates, checks adaptedness, translation
equivariance, and stationarity of the resulting random measures, and ships
the reference diagnostics (circle-map statistics, rotation-invariant
Gaussian mass, closed-form Gaussian conditional laws) behind a reproducible
seeded CLI.
"""

__version__ = "0.1.0"

from .diagnostics import *
from .errors import *
from .measure_solution import *
from .path_space import *
from .random_measure import *
from .recurrence import *

# each public name is declared once, in its module's __all__
__all__ = ["__version__"]
__all__ += diagnostics.__all__
__all__ += errors.__all__
__all__ += measure_solution.__all__
__all__ += path_space.__all__
__all__ += random_measure.__all__
__all__ += recurrence.__all__
