"""revolve: volumes of solids of revolution by cross-validating methods.

A text expression language describes a curve; adaptive quadrature,
bracketed and Newton root finding, monotone partitioning, and
sign-corrected boundary-term formulas then compute the volume of the
revolved region several independent ways and compare the answers.

The package exports every name in its library modules' ``__all__``; each
module's list is the one place a public name is declared.
"""

from . import errors, expr, kepler, monotone, numerics, volume
from .errors import *
from .expr import *
from .kepler import *
from .monotone import *
from .numerics import *
from .volume import *

__version__ = "0.1.0"

__all__ = [name for module in (errors, expr, kepler, monotone, numerics, volume)
           for name in module.__all__]
