"""Numerical laboratory for the quasilinear equation

    div(|grad u|^(p-2) grad u) + a * u^sigma = 0

on model spaces (Euclidean, or hyperbolic realizing Ric = -(n-1)K):
closed-form regime thresholds, a flux-form radial shooting solver,
inequality checkers for the gradient/Harnack estimates and their proof
machinery, and existence sweeps over (p, sigma) grids.  _NAMES lists each
public name once, by its module; a name loads only that module, on first use.
"""

import sys as _sys
from types import ModuleType as _ModuleType

__version__ = "0.1.0"

_NAMES = {
    "errors": ("ParameterError", "RegimeError", "SolutionFormatError"),
    "geometry": (
        "ModelSpace",
        "warp",
        "warp_log_derivative",
        "radial_p_laplacian",
        "radial_L_coefficient",
    ),
    "thresholds": (
        "EquationParams",
        "RegimeReport",
        "MoserExponents",
        "alpha",
        "discriminant",
        "sigma1",
        "sigma2",
        "sigma_midpoint",
        "beta",
        "thm2_threshold",
        "thm2_condition",
        "compare_thresholds",
        "regime_constants",
        "classify_regime",
        "moser_exponents",
    ),
    "solution": (
        "ShootingConfig",
        "Termination",
        "RadialSolution",
        "LogSolution",
        "pde_residual",
        "to_log_solution",
        "flux_residual",
        "write_solution_csv",
        "read_solution_csv",
    ),
    "solver": ("solve_radial", "shoot_batch"),
    "verify": (
        "GradientCheckReport",
        "HarnackReport",
        "ScaleInvarianceReport",
        "check_gradient_estimate",
        "check_harnack",
        "check_gradient_scale_invariance",
    ),
    "proof": (
        "BochnerReport",
        "CaccioppoliConfig",
        "CaccioppoliReport",
        "SobolevRatioReport",
        "caccioppoli_b_min",
        "check_bochner_lemma",
        "check_bochner_thm2",
        "cutoff_eta",
        "check_caccioppoli",
        "sobolev_test_function",
        "measure_sobolev_ratio",
    ),
    "sweep": (
        "SweepGrid",
        "ExistenceCell",
        "SweepTable",
        "RegionComparison",
        "classify_existence",
        "sweep",
        "compare_with_theory",
        "write_sweep_csv",
    ),
}
__all__ = [name for names in _NAMES.values() for name in names]


class _Package(_ModuleType):
    def __setattr__(self, name, value):
        # importing plaplab.sweep binds the module here; pl.sweep is the function
        if name == "sweep" and isinstance(value, _ModuleType):
            value = value.sweep
        super().__setattr__(name, value)


def __getattr__(name):
    """A public name, imported from the module whose row lists it and kept here."""
    for module, names in _NAMES.items():
        if name in names:
            # __import__, unlike importlib.import_module, shows in -X importtime
            value = getattr(__import__(f"{__name__}.{module}", fromlist=[name]), name)
            globals()[name] = value
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))


_sys.modules[__name__].__class__ = _Package
