"""Numerical laboratory for the quasilinear equation

    div(|grad u|^(p-2) grad u) + a * u^sigma = 0

on model spaces (Euclidean, or hyperbolic realizing Ric = -(n-1)K):
closed-form regime thresholds, a flux-form radial shooting solver,
inequality checkers for the gradient/Harnack estimates and their proof
machinery, and existence sweeps over (p, sigma) grids.  A submodule loads
on first use of one of its names.
"""

from importlib import import_module as _import_module
from types import ModuleType as _ModuleType

__version__ = "0.1.0"

_MODULES = ("errors", "geometry", "thresholds", "solver", "verify", "sweep")


class _Package(_ModuleType):
    def __setattr__(self, name, value):
        # importing plaplab.sweep binds the module here; pl.sweep is the function
        if name == "sweep" and isinstance(value, _ModuleType):
            value = value.sweep
        super().__setattr__(name, value)


def __getattr__(name):
    """Load the modules in order until one lists name in its __all__, binding
    each one's public names here; __all__ is those lists end to end."""
    if name == "__all__":
        return [n for m in _MODULES for n in _import_module(f"{__name__}.{m}").__all__]
    namespace = globals()
    for module in (_import_module(f"{__name__}.{m}") for m in _MODULES):
        namespace.update((n, getattr(module, n)) for n in module.__all__)
        if name in namespace:
            return namespace[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__getattr__("__all__")))


_import_module(__name__).__class__ = _Package
