"""Numerical laboratory for the quasilinear equation

    div(|grad u|^(p-2) grad u) + a * u^sigma = 0

on model spaces (Euclidean, or hyperbolic realizing Ric = -(n-1)K):
closed-form regime thresholds, a flux-form radial shooting solver,
inequality checkers for the gradient/Harnack estimates and their proof
machinery, and existence sweeps over (p, sigma) grids.
"""

from importlib import import_module as _import_module

from .errors import *  # noqa: F403
from .geometry import *  # noqa: F403
from .thresholds import *  # noqa: F403
from .solver import *  # noqa: F403
from .verify import *  # noqa: F403
from .sweep import *  # noqa: F403

__version__ = "0.1.0"

# each module's __all__ lists its public names; pl.sweep is the function
__all__ = [
    name
    for module in ("errors", "geometry", "thresholds", "solver", "verify", "sweep")
    for name in _import_module(f"{__name__}.{module}").__all__
]
