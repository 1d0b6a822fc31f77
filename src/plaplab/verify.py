"""Inequality checkers for solved radial instances.

Each checker evaluates one verifiable inequality on a solution (or its log
transform): the two gradient estimates and the Harnack bound they imply,
the two pointwise differential inequalities for f = |grad v|^p, the
integral (Caccioppoli-type) inequality tested with psi = f^b eta^2, and the
ball Sobolev inequality whose constant is measured rather than asserted.

Conventions shared by every checker:

* all integral inequalities drop the unit-sphere area factor from both
  sides (it cancels exactly, including through the V^(2/n) factor of the
  Sobolev inequality, because 1/q = 1 - 2/n);
* derivative reconstruction uses 4th-order central differences on the
  uniform grid, with configurable exclusion bands near r = 0 and near
  critical points of v;
* reports serialize through ``to_report_dict`` into one flat JSON object
  per check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ._fd import fd4_first
from ._quad import pchip, simpson
from .errors import ParameterError, RegimeError
from .geometry import ModelSpace, warp
from .solver import LogSolution, RadialSolution, ShootingConfig, solve_radial
from .thresholds import (
    EquationParams,
    alpha,
    beta,
    classify_regime,
    discriminant,
    thm2_condition,
)

__all__ = [
    "GradientCheckReport",
    "HarnackReport",
    "BochnerReport",
    "CaccioppoliConfig",
    "CaccioppoliReport",
    "SobolevRatioReport",
    "ScaleInvarianceReport",
    "check_gradient_estimate",
    "check_harnack",
    "check_bochner_lemma",
    "check_bochner_thm2",
    "cutoff_eta",
    "check_caccioppoli",
    "sobolev_test_function",
    "measure_sobolev_ratio",
    "check_gradient_scale_invariance",
]


def _jsonable(value):
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _envelope(check, params, space, R, passed, metrics, samples_retained, tolerances):
    return _jsonable(
        {
            "check": check,
            "params": params.to_dict() if params is not None else None,
            "space": space.to_dict() if space is not None else None,
            "R": R,
            "pass": passed,
            "metrics": metrics,
            "samples_retained": samples_retained,
            "tolerances": tolerances,
        }
    )


# ---------------------------------------------------------------------------
# gradient estimate and Harnack


@dataclass(frozen=True)
class GradientCheckReport:
    """sup |u'|/u over the half ball against the Cheng-Yau shape
    (1+sqrt(K)R)/R.  The multiplicative constant is not asserted (no
    explicit value exists); boundedness is checked across dilations
    separately."""

    params: EquationParams
    space: ModelSpace
    R: float
    theorem: str
    sup_ratio: float
    bound_shape: float
    empirical_C: float
    regime_applicable: bool

    def to_report_dict(self):
        return _envelope(
            "gradient",
            self.params,
            self.space,
            self.R,
            None,
            {
                "theorem": self.theorem,
                "sup_ratio": self.sup_ratio,
                "bound_shape": self.bound_shape,
                "empirical_C": self.empirical_C,
                "regime_applicable": self.regime_applicable,
            },
            None,
            {},
        )


def _require_span(solution, R):
    if R <= 0:
        raise ParameterError(f"R must be positive, got {R}")
    if solution.r_end < R:
        raise ParameterError(
            f"solution extends only to r = {solution.r_end:.6g} < R = {R}"
        )


def check_gradient_estimate(
    solution: RadialSolution, R: float, theorem: str = "thm1"
) -> GradientCheckReport:
    """Measure sup_{r <= R/2} |u'|/u and divide out the bound shape."""
    if theorem not in ("thm1", "thm2"):
        raise ParameterError(f"theorem must be 'thm1' or 'thm2', got {theorem!r}")
    _require_span(solution, R)
    mask = solution.r <= R / 2
    sup_ratio = float(np.max(np.abs(solution.du[mask]) / solution.u[mask]))
    # |u'|/u scales like 1/R under dilation for every p, so the shape carries
    # no p-dependent power
    bound_shape = (1 + math.sqrt(solution.space.K) * R) / R
    regime = classify_regime(solution.params)
    applicable = regime.thm1_applicable if theorem == "thm1" else regime.thm2_applicable
    return GradientCheckReport(
        params=solution.params,
        space=solution.space,
        R=R,
        theorem=theorem,
        sup_ratio=sup_ratio,
        bound_shape=bound_shape,
        empirical_C=sup_ratio / bound_shape,
        regime_applicable=applicable,
    )


@dataclass(frozen=True)
class HarnackReport:
    """max u / min u over the half ball against the bound integrated from
    the measured gradient ratio along a radial geodesic."""

    params: EquationParams
    space: ModelSpace
    R: float
    ratio: float
    sup_ratio: float
    integrated_bound: float
    passed: bool

    def to_report_dict(self):
        return _envelope(
            "harnack",
            self.params,
            self.space,
            self.R,
            self.passed,
            {
                "ratio": self.ratio,
                "sup_ratio": self.sup_ratio,
                "integrated_bound": self.integrated_bound,
            },
            None,
            {},
        )


def check_harnack(solution: RadialSolution, R: float) -> HarnackReport:
    """Assert max u / min u on the half ball <= exp(R * sup |u'|/u).

    Two points of the half ball are at distance at most R, and the log of u
    changes along a radial segment by at most its length times sup |u'|/u,
    so the bound holds whenever the profile is positive on [0, R].
    """
    _require_span(solution, R)
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
# pointwise differential inequalities for f = |grad v|^p


@dataclass(frozen=True)
class BochnerReport:
    """Per-sample margin L(f) - RHS for one of the two pointwise
    inequalities; a sample passes when its margin is not below
    -tol_rel * scale with scale the largest term magnitude at that sample."""

    params: EquationParams
    space: ModelSpace
    which: str  # "lemma" | "thm2"
    radii: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    margin: np.ndarray
    scale: np.ndarray
    pass_fraction: float
    passed: bool
    tol_rel: float
    required_fraction: float

    def to_report_dict(self):
        rel = self.margin / self.scale
        return _envelope(
            "bochner" if self.which == "lemma" else "bochner2",
            self.params,
            self.space,
            None,
            self.passed,
            {
                "pass_fraction": self.pass_fraction,
                "min_margin_over_scale": float(np.min(rel)),
                "median_margin_over_scale": float(np.median(rel)),
                "r_min": float(self.radii[0]),
                "r_max": float(self.radii[-1]),
            },
            int(len(self.radii)),
            {"tol_rel": self.tol_rel, "required_fraction": self.required_fraction},
        )


def _linearized_operator_fd(log_solution):
    """L(f) = s^(1-n) d/dr [ s^(n-1) (p-1)|v'|^(p-2) f' ] by nested FD."""
    r, f, dv = log_solution.r, log_solution.f, log_solution.dv
    p = log_solution.params.p
    n = log_solution.space.n
    h = r[1] - r[0]
    df = fd4_first(f, h)
    s_pow = np.full_like(r, np.nan)
    s_pow[1:] = warp(log_solution.space, r[1:]) ** (n - 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        coef = (p - 1) * np.abs(dv) ** (p - 2.0)
        G = s_pow * coef * df
        Lf = fd4_first(G, h) / s_pow
    return Lf, df


def _bochner_common(log_solution, params, space, edge_frac, dv_floor, r_window):
    if params is None:
        params = log_solution.params
    elif params != log_solution.params:
        raise ParameterError("params disagree with the log solution's params")
    if space is None:
        space = log_solution.space
    elif space != log_solution.space:
        raise ParameterError("space disagrees with the log solution's space")
    Lf, df = _linearized_operator_fd(log_solution)
    r = log_solution.r
    span = r[-1]
    mask = np.isfinite(Lf) & (r >= edge_frac * span)
    mask &= np.abs(log_solution.dv) >= dv_floor
    if r_window is not None:
        lo, hi = r_window
        mask &= (r >= lo) & (r <= hi)
    if not np.any(mask):
        raise RegimeError("no samples retained for the pointwise inequality check")
    return params, space, Lf, df, mask


def check_bochner_lemma(
    log_solution: LogSolution,
    params: EquationParams | None = None,
    space: ModelSpace | None = None,
    tol_rel: float = 1e-3,
    *,
    edge_frac: float = 0.05,
    dv_floor: float = 1e-6,
    r_window=None,
    required_fraction: float = 0.95,
) -> BochnerReport:
    """Check the full pointwise inequality for L(f) away from {f = 0}.

    The right-hand side combines the curvature term, the square of the
    source weight scaled by the discriminant, the f^2 term, the mixed
    grad f . grad v term, and the linear source term; the inequality is
    checked sample by sample on the retained set.
    """
    params, space, Lf, df, mask = _bochner_common(
        log_solution, params, space, edge_frac, dv_floor, r_window
    )
    n, p, a, sig = params.n, params.p, params.a, params.sigma
    al = alpha(n, p)  # raises RegimeError outside 1 < p < 2n-1
    disc = discriminant(n, p)
    K = space.K
    f = log_solution.f[mask]
    hsrc = log_solution.h[mask]
    dvm = log_solution.dv[mask]
    dfm = df[mask]
    lhs = Lf[mask]

    t_curv = -p * (n - 1) * K * f ** ((2 * p - 2) / p)
    t_h2 = disc * p * a**2 * hsrc**2 / (n - 1)
    t_f2 = p / (n - 1) * f**2
    t_mix = (2 * (p - 1) / (n - 1) - p) * f ** ((p - 2) / p) * dfm * dvm
    t_src = a * p * hsrc * (2 / (n - 1) - (sig / (p - 1) - 1)) * f
    rhs = t_curv + t_h2 + t_f2 + t_mix + t_src
    scale = np.max(
        np.abs(np.stack([lhs, t_curv, t_h2, t_f2, t_mix, t_src])), axis=0
    )
    margin = lhs - rhs
    ok = margin >= -tol_rel * scale
    frac = float(np.mean(ok))
    return BochnerReport(
        params=params,
        space=space,
        which="lemma",
        radii=log_solution.r[mask],
        lhs=lhs,
        rhs=rhs,
        margin=margin,
        scale=scale,
        pass_fraction=frac,
        passed=frac >= required_fraction,
        tol_rel=tol_rel,
        required_fraction=required_fraction,
    )


def check_bochner_thm2(
    log_solution: LogSolution,
    params: EquationParams | None = None,
    space: ModelSpace | None = None,
    tol_rel: float = 1e-3,
    *,
    edge_frac: float = 0.05,
    dv_floor: float = 1e-6,
    r_window=None,
    required_fraction: float = 0.95,
) -> BochnerReport:
    """Check L(f) >= (p/n) f^2 - (n-1)Kp f^(2-2/p) - p f^(1-2/p) f' v'.

    Requires the sign condition a ((n+2)/n - sigma/(p-1)) >= 0; outside it
    the inequality is not claimed and a RegimeError is raised.
    """
    check_params = params if params is not None else log_solution.params
    if not thm2_condition(
        check_params.n, check_params.p, check_params.sigma, check_params.a
    ):
        raise RegimeError(
            "sign condition violated: requires a > 0 with sigma <= (n+2)(p-1)/n "
            "or a < 0 with sigma >= (n+2)(p-1)/n"
        )
    params, space, Lf, df, mask = _bochner_common(
        log_solution, params, space, edge_frac, dv_floor, r_window
    )
    n, p = params.n, params.p
    K = space.K
    f = log_solution.f[mask]
    dvm = log_solution.dv[mask]
    dfm = df[mask]
    lhs = Lf[mask]

    t_f2 = p / n * f**2
    t_curv = -(n - 1) * K * p * f ** (2 - 2 / p)
    t_mix = -p * f ** (1 - 2 / p) * dfm * dvm
    rhs = t_f2 + t_curv + t_mix
    scale = np.max(np.abs(np.stack([lhs, t_f2, t_curv, t_mix])), axis=0)
    margin = lhs - rhs
    ok = margin >= -tol_rel * scale
    frac = float(np.mean(ok))
    return BochnerReport(
        params=params,
        space=space,
        which="thm2",
        radii=log_solution.r[mask],
        lhs=lhs,
        rhs=rhs,
        margin=margin,
        scale=scale,
        pass_fraction=frac,
        passed=frac >= required_fraction,
        tol_rel=tol_rel,
        required_fraction=required_fraction,
    )


# ---------------------------------------------------------------------------
# cutoff and Caccioppoli-type integral inequality


class CutoffEta:
    """C^1 cutoff: 1 on [0, 3R/4], smoothstep down to 0 at R, 0 beyond.

    max |eta'| = 6/R, attained mid-band.
    """

    def __init__(self, R: float, profile: str = "smoothstep"):
        if not R > 0:
            raise ParameterError(f"R must be positive, got {R}")
        if profile != "smoothstep":
            raise ParameterError(
                f"unsupported cutoff profile {profile!r}; a cutoff must be C^1 "
                "and vanish at R (supported: 'smoothstep')"
            )
        self.R = R
        self.profile = profile
        self.lipschitz_bound = 6.0 / R

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        t = np.clip((r - 0.75 * self.R) / (0.25 * self.R), 0.0, 1.0)
        out = 1.0 - t * t * (3 - 2 * t)
        out = np.where(r >= self.R, 0.0, out)
        return out if out.ndim else float(out)

    def derivative(self, r):
        r = np.asarray(r, dtype=float)
        t = (r - 0.75 * self.R) / (0.25 * self.R)
        inside = (t > 0) & (t < 1)
        out = np.where(inside, -6 * t * (1 - t) * (4.0 / self.R), 0.0)
        return out if out.ndim else float(out)


def cutoff_eta(R: float, profile: str = "smoothstep") -> CutoffEta:
    """Build the cutoff used as eta in the integral inequality tests."""
    return CutoffEta(R, profile)


@dataclass(frozen=True)
class CaccioppoliConfig:
    """Exponent b of the test function psi = f^b eta^2, cutoff profile, and
    quadrature resolution.  b must exceed
    max(1, 2 [p - 2(p-1)/(n-1)]^2 / (beta min(1, p-1))); the bound depends
    on the equation parameters and is enforced by check_caccioppoli."""

    b: float
    eta_profile: str = "smoothstep"
    quadrature_points: int = 4001

    def __post_init__(self):
        if not self.b > 1:
            raise ParameterError(f"b must be > 1, got {self.b}")
        if not (
            isinstance(self.quadrature_points, (int, np.integer))
            and self.quadrature_points >= 11
        ):
            raise ParameterError(
                f"quadrature_points must be an integer >= 11, got {self.quadrature_points!r}"
            )


def caccioppoli_b_min(n: int, p: float, sigma: float, sign_of_a: float) -> float:
    """Lower admissible exponent for the test function f^b eta^2."""
    bt = beta(n, p, sigma, sign_of_a)
    return max(1.0, 2 * (p - 2 * (p - 1) / (n - 1)) ** 2 / (bt * min(1.0, p - 1)))


@dataclass(frozen=True)
class CaccioppoliReport:
    params: EquationParams
    space: ModelSpace
    R: float
    b: float
    b_min: float
    beta: float
    lhs: float
    rhs: float
    slack: float
    scale: float
    passed: bool
    tol_quad: float
    quadrature_points: int

    def to_report_dict(self):
        return _envelope(
            "caccioppoli",
            self.params,
            self.space,
            self.R,
            self.passed,
            {
                "b": self.b,
                "b_min": self.b_min,
                "beta": self.beta,
                "lhs": self.lhs,
                "rhs": self.rhs,
                "slack": self.slack,
                "scale": self.scale,
            },
            int(self.quadrature_points),
            {"tol_quad": self.tol_quad},
        )


def check_caccioppoli(
    log_solution: LogSolution,
    params: EquationParams | None = None,
    space: ModelSpace | None = None,
    config: CaccioppoliConfig | None = None,
    R: float | None = None,
    tol_quad: float = 1e-6,
) -> CaccioppoliReport:
    """Evaluate both sides of the integral inequality with psi = f^b eta^2.

    All inner products of gradients reduce to products of radial
    derivatives, and the unit-sphere factor is dropped from both sides.
    The inequality asserts

        int (p-1) f^(1-2/p) f' psi' s^(n-1) + beta int f^(b+2) eta^2 s^(n-1)
        <= (n-1)Kp int f^(2-2/p) psi s^(n-1)
           - [2(p-1)/(n-1) - p] int f^(1-2/p) f' v' psi s^(n-1),

    which must hold with nonnegative slack for exact solutions.
    """
    if params is None:
        params = log_solution.params
    elif params != log_solution.params:
        raise ParameterError("params disagree with the log solution's params")
    if space is None:
        space = log_solution.space
    elif space != log_solution.space:
        raise ParameterError("space disagrees with the log solution's space")
    if config is None:
        raise ParameterError("a CaccioppoliConfig is required")
    if R is None:
        raise ParameterError("R is required")
    if R > log_solution.r[-1]:
        raise ParameterError(
            f"log solution extends only to r = {log_solution.r[-1]:.6g} < R = {R}"
        )
    n, p, a, sig = params.n, params.p, params.a, params.sigma
    bt = beta(n, p, sig, a)
    b_min = caccioppoli_b_min(n, p, sig, a)
    if config.b <= b_min:
        raise ParameterError(
            f"b = {config.b} is not above the lower bound b_min = {b_min:.6g}"
        )
    r = log_solution.r
    inner = (r > 0) & (r <= 0.75 * R)
    bad = inner & (log_solution.f <= 0)
    if np.any(bad):
        raise RegimeError(
            "f touches 0 inside (0, 3R/4] at r = "
            + ", ".join(f"{x:.6g}" for x in r[bad][:8])
        )

    eta = cutoff_eta(R, config.eta_profile)
    x = np.linspace(0.0, R, config.quadrature_points)
    f_i = pchip(r, log_solution.f)
    dv_i = pchip(r, log_solution.dv)
    fx = np.clip(f_i(x), 0.0, None)
    dfx = f_i.derivative()(x)
    dvx = dv_i(x)
    ex = eta(x)
    dex = eta.derivative(x)
    s_pow = np.zeros_like(x)
    s_pow[1:] = warp(space, x[1:]) ** (n - 1)

    # f -> 0 only at the center; every integrand below carries at least one
    # positive power of f there, so the limit contribution is 0
    pos = fx > 0
    fpow = np.zeros_like(x)
    fpow[pos] = fx[pos] ** (1 - 2 / p)
    psi = np.zeros_like(x)
    psi[pos] = fx[pos] ** config.b * ex[pos] ** 2
    dpsi = np.zeros_like(x)
    dpsi[pos] = (
        config.b * fx[pos] ** (config.b - 1) * dfx[pos] * ex[pos] ** 2
        + 2 * fx[pos] ** config.b * ex[pos] * dex[pos]
    )

    i_energy = simpson((p - 1) * fpow * dfx * dpsi * s_pow, x=x)
    i_f2 = simpson(fx ** (config.b + 2) * np.square(ex) * s_pow, x=x)
    i_curv = simpson(np.where(pos, fx ** (2 - 2 / p), 0.0) * psi * s_pow, x=x)
    i_mix = simpson(fpow * dfx * dvx * psi * s_pow, x=x)

    lhs = i_energy + bt * i_f2
    rhs = (n - 1) * space.K * p * i_curv - (2 * (p - 1) / (n - 1) - p) * i_mix
    scale = max(abs(i_energy), abs(bt * i_f2), abs(rhs), abs(lhs), 1e-300)
    slack = rhs - lhs
    return CaccioppoliReport(
        params=params,
        space=space,
        R=R,
        b=config.b,
        b_min=b_min,
        beta=bt,
        lhs=float(lhs),
        rhs=float(rhs),
        slack=float(slack),
        scale=float(scale),
        passed=bool(slack >= -tol_quad * scale),
        tol_quad=tol_quad,
        quadrature_points=config.quadrature_points,
    )


# ---------------------------------------------------------------------------
# Sobolev ratio measurement


@dataclass(frozen=True)
class SobolevRatioReport:
    """Empirical constant of the ball Sobolev inequality for one test
    function; recorded, never asserted (only existence of a dimensional
    constant is claimed)."""

    space: ModelSpace
    R: float
    q: float
    lhs: float
    rhs_core: float
    volume: float
    empirical_constant: float

    def to_report_dict(self):
        return _envelope(
            "sobolev",
            None,
            self.space,
            self.R,
            None,
            {
                "q": self.q,
                "lhs": self.lhs,
                "rhs_core": self.rhs_core,
                "volume": self.volume,
                "empirical_constant": self.empirical_constant,
            },
            None,
            {},
        )


def sobolev_test_function(solution: RadialSolution, R: float):
    """g = u eta and g' = u' eta + u eta' for the cutoff eta of radius R,
    with u and u' the monotone cubic interpolants of the solved profile: the
    test function that measure_sobolev_ratio takes from a solution."""
    _require_span(solution, R)
    eta = cutoff_eta(R)
    u_i = pchip(solution.r, solution.u)
    du_i = pchip(solution.r, solution.du)

    def g(r):
        return u_i(r) * eta(r)

    def dg(r):
        return du_i(r) * eta(r) + u_i(r) * eta.derivative(r)

    return g, dg


def measure_sobolev_ratio(
    g,
    space: ModelSpace,
    R: float,
    dg=None,
    quadrature_points: int = 4001,
) -> SobolevRatioReport:
    """Measure lhs * V^(2/n) / rhs_core for a radial test function g with
    g(R) = 0, where lhs = (int |g|^(2q))^(1/q), q = n/(n-2), and
    rhs_core = R^2 int |g'|^2 + int g^2.

    The unit-sphere factor cancels between the two sides (both scale as its
    power 1 - 2/n once V is measured without it), so all integrals here are
    radial.  Scaling g leaves the ratio invariant: both sides are
    2-homogeneous in g.
    """
    if not R > 0:
        raise ParameterError(f"R must be positive, got {R}")
    n = space.n
    x = np.linspace(0.0, R, quadrature_points)
    gx = np.asarray(g(x), dtype=float)
    gmax = float(np.max(np.abs(gx)))
    if gmax == 0:
        raise ParameterError("degenerate input: g vanishes identically")
    if abs(gx[-1]) > 1e-8 * gmax:
        raise ParameterError(f"g(R) must vanish, got g({R}) = {gx[-1]:.6g}")
    if dg is None:
        dg = getattr(g, "derivative", None)
    dgx = np.gradient(gx, x) if dg is None else np.asarray(dg(x), dtype=float)
    s_pow = np.zeros_like(x)
    s_pow[1:] = warp(space, x[1:]) ** (n - 1)
    q = n / (n - 2)
    lhs = simpson(np.abs(gx) ** (2 * q) * s_pow, x=x) ** (1 / q)
    rhs_core = R**2 * simpson(dgx**2 * s_pow, x=x) + simpson(gx**2 * s_pow, x=x)
    volume = simpson(s_pow, x=x)
    return SobolevRatioReport(
        space=space,
        R=R,
        q=q,
        lhs=float(lhs),
        rhs_core=float(rhs_core),
        volume=float(volume),
        empirical_constant=float(lhs * volume ** (2 / n) / rhs_core),
    )


# ---------------------------------------------------------------------------
# dilation family: scale invariance of the empirical gradient constant


@dataclass(frozen=True)
class ScaleInvarianceReport:
    """empirical_C across the Euclidean dilation family u_mu(r) = u(mu r),
    solved with the coefficient rescaled by mu^p and checked on balls of
    radius R/mu."""

    params: EquationParams
    space: ModelSpace
    R: float
    factors: tuple
    empirical_C: tuple
    spread: float
    passed: bool
    rel_tol: float

    def to_report_dict(self):
        return _envelope(
            "gradient_scale_invariance",
            self.params,
            self.space,
            self.R,
            self.passed,
            {
                "factors": list(self.factors),
                "empirical_C": list(self.empirical_C),
                "spread": self.spread,
            },
            None,
            {"rel_tol": self.rel_tol},
        )


def check_gradient_scale_invariance(
    params: EquationParams,
    space: ModelSpace,
    config: ShootingConfig,
    R: float,
    factors=(1, 2, 4, 8),
    rel_tol: float = 0.02,
    theorem: str = "thm1",
) -> ScaleInvarianceReport:
    """Solve the dilation family and compare empirical gradient constants.

    Flat space only: u(mu r) solves the equation with coefficient a mu^p,
    its log-gradient on the ball of radius R/mu is mu times the original,
    and the 1/R shape of the bound absorbs that factor exactly, so the
    empirical constant must be stable across factors.
    """
    if space.K != 0:
        raise RegimeError("dilation invariance requires the flat model space (K = 0)")
    values = []
    for mu in factors:
        params_mu = replace(params, a=params.a * mu**params.p)
        config_mu = replace(config, r_max=config.r_max / mu)
        sol = solve_radial(params_mu, space, config_mu)
        rep = check_gradient_estimate(sol, R / mu, theorem=theorem)
        values.append(rep.empirical_C)
    lo, hi = min(values), max(values)
    spread = (hi - lo) / lo if lo > 0 else math.inf
    return ScaleInvarianceReport(
        params=params,
        space=space,
        R=R,
        factors=tuple(factors),
        empirical_C=tuple(values),
        spread=float(spread),
        passed=bool(spread <= rel_tol),
        rel_tol=rel_tol,
    )
