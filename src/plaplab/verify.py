"""Checkers of the paper's estimates on solved radial instances.

The gradient estimate sup |u'|/u on the half ball against the Cheng-Yau
shape (1 + sqrt(K) R)/R, the Harnack bound it implies, and the scale
invariance of the empirical gradient constant across the Euclidean
dilation family.  The proof steps behind the estimates are checked in
plaplab.proof; both serialize their reports as described in _report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ._report import _Report, _require_span
from .errors import RegimeError
from .geometry import ModelSpace
from .solution import RadialSolution, ShootingConfig, _require_finite_profile
from .thresholds import EquationParams, classify_regime

# fixed settings of the scale-invariance check, printed in its report
_DILATION_FACTORS = (1, 2, 4, 8)
_SPREAD_TOL = 0.02  # relative spread of empirical_C across the dilations


# ---------------------------------------------------------------------------
# gradient estimate and Harnack


@dataclass(frozen=True)
class GradientCheckReport(_Report):
    """sup |u'|/u over the half ball against the Cheng-Yau shape
    (1+sqrt(K)R)/R.  The multiplicative constant is not asserted (no
    explicit value exists); boundedness is checked across dilations
    separately.  The two flags say which estimate claims the bound for
    these parameters."""

    _check = "gradient"

    params: EquationParams
    space: ModelSpace
    R: float
    sup_ratio: float
    bound_shape: float
    empirical_C: float
    thm1_applicable: bool
    thm2_applicable: bool


def check_gradient_estimate(solution: RadialSolution, R: float) -> GradientCheckReport:
    """Measure sup_{r <= R/2} |u'|/u and divide out the bound shape."""
    _require_span(solution, R)
    _require_finite_profile(solution)
    mask = solution.r <= R / 2
    sup_ratio = float(np.max(np.abs(solution.du[mask]) / solution.u[mask]))
    # |u'|/u scales like 1/R under dilation for every p, so the shape carries
    # no p-dependent power
    bound_shape = (1 + math.sqrt(solution.space.K) * R) / R
    regime = classify_regime(solution.params)
    return GradientCheckReport(
        params=solution.params,
        space=solution.space,
        R=R,
        sup_ratio=sup_ratio,
        bound_shape=bound_shape,
        empirical_C=sup_ratio / bound_shape,
        thm1_applicable=regime.thm1_applicable,
        thm2_applicable=regime.thm2_applicable,
    )


@dataclass(frozen=True)
class HarnackReport(_Report):
    """max u / min u over the half ball against the bound integrated from
    the measured gradient ratio along a radial geodesic."""

    _check = "harnack"

    params: EquationParams
    space: ModelSpace
    R: float
    ratio: float
    sup_ratio: float
    integrated_bound: float
    passed: bool


def check_harnack(solution: RadialSolution, R: float) -> HarnackReport:
    """Assert max u / min u on the half ball <= exp(R * sup |u'|/u).

    Two points of the half ball are at distance at most R, and the log of u
    changes along a radial segment by at most its length times sup |u'|/u,
    so the bound holds whenever the profile is positive on [0, R].
    """
    _require_span(solution, R)
    _require_finite_profile(solution)
    mask = solution.r <= R / 2
    u_half = solution.u[mask]
    ratio = float(np.max(u_half) / np.min(u_half))
    sup_ratio = float(np.max(np.abs(solution.du[mask]) / u_half))
    bound = math.exp(R * sup_ratio)
    return HarnackReport(
        params=solution.params,
        space=solution.space,
        R=R,
        ratio=ratio,
        sup_ratio=sup_ratio,
        integrated_bound=bound,
        passed=ratio <= bound * (1 + 1e-12),
    )


# ---------------------------------------------------------------------------
# dilation family: scale invariance of the empirical gradient constant


@dataclass(frozen=True)
class ScaleInvarianceReport(_Report):
    """empirical_C across the Euclidean dilation family u_mu(r) = u(mu r),
    solved with the coefficient rescaled by mu^p and checked on balls of
    radius R/mu."""

    _check = "gradient_scale_invariance"
    _tolerances = ("rel_tol",)
    rel_tol = _SPREAD_TOL

    params: EquationParams
    space: ModelSpace
    R: float
    factors: tuple
    empirical_C: tuple
    spread: float
    passed: bool


def check_gradient_scale_invariance(
    params: EquationParams,
    space: ModelSpace,
    config: ShootingConfig,
    R: float,
) -> ScaleInvarianceReport:
    """Solve the dilation family (factors 1, 2, 4, 8) and compare empirical
    gradient constants: they pass within a 2% relative spread.

    Flat space only: u(mu r) solves the equation with coefficient a mu^p,
    its log-gradient on the ball of radius R/mu is mu times the original,
    and the 1/R shape of the bound absorbs that factor exactly, so the
    empirical constant must be stable across factors.
    """
    if space.K != 0:
        raise RegimeError("dilation invariance requires the flat model space (K = 0)")
    from .solver import solve_radial  # the other checks never integrate

    values = []
    for mu in _DILATION_FACTORS:
        params_mu = replace(params, a=params.a * mu**params.p)
        config_mu = replace(config, r_max=config.r_max / mu)
        sol = solve_radial(params_mu, space, config_mu)
        rep = check_gradient_estimate(sol, R / mu)
        values.append(rep.empirical_C)
    lo, hi = min(values), max(values)
    spread = (hi - lo) / lo if lo > 0 else math.inf
    return ScaleInvarianceReport(
        params=params,
        space=space,
        R=R,
        factors=_DILATION_FACTORS,
        empirical_C=tuple(values),
        spread=float(spread),
        passed=bool(spread <= _SPREAD_TOL),
    )
