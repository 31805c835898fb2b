"""rhofix: contraction fixed points in modular spaces.

Modular functionals and their F-norm, randomized checkers for the modular
axioms (plus s-convexity, doubling constants, and a sampled Fatou
surrogate), a Picard fixed-point engine with a doubling-constant power
path, and finite chain certificates for contraction orbits.

The package exports each module's own `__all__`, in the order below.
"""

from . import chain, checks, config, errors, modular, problems, solver
from .chain import *
from .checks import *
from .config import *
from .errors import *
from .modular import *
from .problems import *
from .solver import *

__version__ = "0.1.0"

__all__ = [name for module in (chain, checks, config, errors, modular, problems, solver)
           for name in module.__all__]
