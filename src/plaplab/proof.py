"""Checkers of the proof steps behind the gradient estimates.

The two pointwise differential inequalities for f = |grad v|^p (the
Bochner-type lemma and the sharper inequality of the second estimate), the
integral (Caccioppoli-type) inequality tested with psi = f^b eta^2, and the
ball Sobolev inequality whose constant is measured rather than asserted:
the inequalities that feed the Moser iteration.

* all integral inequalities drop the unit-sphere area factor from both
  sides (it cancels exactly, including through the V^(2/n) factor of the
  Sobolev inequality, because 1/q = 1 - 2/n);
* derivative reconstruction uses 4th-order central differences on the
  uniform grid; the pointwise checks exclude the first _EDGE_FRAC (5%) of
  the span near r = 0 and the samples with |v'| < _DV_FLOOR (1e-6) near
  critical points of v.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, RegimeError
from .geometry import ModelSpace, warp
from .solution import (LogSolution, RadialSolution, _Report, _require_finite_profile,
                       _require_radius, _require_span)
from .thresholds import EquationParams, beta, discriminant, thm2_condition

# fixed settings of the checkers; the reports print the tolerances and grid size
_EDGE_FRAC = 0.05  # pointwise checks skip r < _EDGE_FRAC * span
_DV_FLOOR = 1e-6  # pointwise checks skip |v'| < _DV_FLOOR
_TOL_REL = 1e-3  # pointwise margin tolerance, relative to the sample's scale
_REQUIRED_FRACTION = 0.95  # share of retained samples that must pass
_TOL_QUAD = 1e-6  # Caccioppoli slack tolerance, relative to its scale
_QUADRATURE_POINTS = 4001  # grid of the integral checks


# ---------------------------------------------------------------------------
# pointwise differential inequalities for f = |grad v|^p


@dataclass(frozen=True)
class BochnerReport(_Report):
    """Per-sample margin L(f) - RHS for one of the two pointwise
    inequalities; a sample passes when its margin is not below
    -tol_rel * scale with scale the largest term magnitude at that sample."""

    _tolerances = {"tol_rel": _TOL_REL, "required_fraction": _REQUIRED_FRACTION}

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

    @property
    def _check(self):
        return "bochner" if self.which == "lemma" else "bochner2"

    def _metrics(self):
        rel = self.margin / self.scale
        return {
            "pass_fraction": self.pass_fraction,
            "min_margin_over_scale": float(np.min(rel)),
            "median_margin_over_scale": float(_median(rel)),
            "r_min": float(self.radii[0]),
            "r_max": float(self.radii[-1]),
        }

    @property
    def samples_retained(self):
        return len(self.radii)


def _median(x):
    """np.median of a nonempty 1-D array bit for bit, nan when x holds a nan:
    numpy's own partition and mean, without the nan check through which
    np.median imports numpy.ma, a cost every cold CLI check would pay."""
    half = x.size // 2
    kth = [half] if x.size % 2 else [half - 1, half]
    part = np.partition(x, kth + [-1])  # a nan sorts last
    return part[-1] if np.isnan(part[-1]) else np.mean(part[kth[0] : half + 1])


def _bochner_common(log_solution, r_window):
    """(mask, L f, f, v', f') with the last four on the retained samples."""
    Lf, df = log_solution.linearized_operator
    r = log_solution.r
    span = r[-1]
    mask = np.isfinite(Lf) & (r >= _EDGE_FRAC * span)
    mask &= np.abs(log_solution.dv) >= _DV_FLOOR
    if r_window is not None:
        lo, hi = r_window
        _require_radius(hi)  # the rule of every kind's R
        mask &= (r >= lo) & (r <= hi)
    if not np.any(mask):
        raise RegimeError("no samples retained for the pointwise inequality check")
    return mask, Lf[mask], log_solution.f[mask], log_solution.dv[mask], df[mask]


def _bochner_report(log_solution, which, mask, lhs, terms):
    """BochnerReport on the retained samples for L(f) >= sum of terms, the
    right-hand terms added in the order given."""
    rhs = sum(terms[1:], terms[0])
    scale = np.max(np.abs(np.stack([lhs, *terms])), axis=0)
    margin = lhs - rhs
    frac = float(np.mean(margin >= -_TOL_REL * scale))
    return BochnerReport(
        params=log_solution.params,
        space=log_solution.space,
        which=which,
        radii=log_solution.r[mask],
        lhs=lhs,
        rhs=rhs,
        margin=margin,
        scale=scale,
        pass_fraction=frac,
        passed=frac >= _REQUIRED_FRACTION,
    )


def check_bochner_lemma(log_solution: LogSolution, *, r_window=None) -> BochnerReport:
    """Check the full pointwise inequality for L(f) away from {f = 0}.

    The right-hand side combines the curvature term, the square of the
    source weight scaled by the discriminant, the f^2 term, the mixed
    grad f . grad v term, and the linear source term; the inequality is
    checked sample by sample on the retained set.
    """
    params, space = log_solution.params, log_solution.space
    mask, lhs, f, dvm, dfm = _bochner_common(log_solution, r_window)
    n, p, a, sig = params.n, params.p, params.a, params.sigma
    disc = discriminant(n, p)  # raises RegimeError outside 1 < p < 2n-1
    K = space.K
    hsrc = log_solution.h[mask]

    t_curv = -p * (n - 1) * K * f ** ((2 * p - 2) / p)
    t_h2 = disc * p * a**2 * hsrc**2 / (n - 1)
    t_f2 = p / (n - 1) * f**2
    t_mix = (2 * (p - 1) / (n - 1) - p) * f ** ((p - 2) / p) * dfm * dvm
    t_src = a * p * hsrc * (2 / (n - 1) - (sig / (p - 1) - 1)) * f
    terms = (t_curv, t_h2, t_f2, t_mix, t_src)
    return _bochner_report(log_solution, "lemma", mask, lhs, terms)


def check_bochner_thm2(log_solution: LogSolution, *, r_window=None) -> BochnerReport:
    """Check L(f) >= (p/n) f^2 - (n-1)Kp f^(2-2/p) - p f^(1-2/p) f' v'.

    Requires the sign condition a ((n+2)/n - sigma/(p-1)) >= 0; outside it
    the inequality is not claimed and a RegimeError is raised.
    """
    params, space = log_solution.params, log_solution.space
    if not thm2_condition(params.n, params.p, params.sigma, params.a):
        raise RegimeError(
            "sign condition violated: requires a > 0 with sigma <= (n+2)(p-1)/n "
            "or a < 0 with sigma >= (n+2)(p-1)/n"
        )
    mask, lhs, f, dvm, dfm = _bochner_common(log_solution, r_window)
    n, p = params.n, params.p
    K = space.K

    t_f2 = p / n * f**2
    t_curv = -(n - 1) * K * p * f ** (2 - 2 / p)
    t_mix = -p * f ** (1 - 2 / p) * dfm * dvm
    terms = (t_f2, t_curv, t_mix)
    return _bochner_report(log_solution, "thm2", mask, lhs, terms)


# ---------------------------------------------------------------------------
# cutoff and Caccioppoli-type integral inequality


@functools.cache
def _unit_simpson():
    """The unit grid t of the integral checks and Simpson's weights on it,
    read-only: they serve every call."""
    t = np.linspace(0.0, 1.0, _QUADRATURE_POINTS)
    w = np.full(_QUADRATURE_POINTS, 2.0)
    w[1::2] = 4.0
    w[[0, -1]] = 1.0
    w /= 3 * (_QUADRATURE_POINTS - 1)
    t.flags.writeable = w.flags.writeable = False
    return t, w


def _quadrature(space, R):
    """The unit grid t and weights w with which an integral over the ball of
    radius R is int_0^R h(r) s(r)^(n-1) dr = R^n (h(R t) @ w): Simpson's
    weights times (s(R t)/R)^(n-1), free of R at K = 0."""
    t, w = _unit_simpson()
    return t, w * (warp(space, R * t) / R) ** (space.n - 1)


class _CutoffEta:
    """C^1 cutoff: 1 on [0, 3R/4], smoothstep down to 0 at R, 0 beyond.

    max |eta'| = 6/R, attained mid-band; an R that overflows it is refused.
    """

    def __init__(self, R: float):
        _require_radius(R)
        self.R = R
        self.lipschitz_bound = 6.0 / float(R)  # a float quotient overflows to inf silently
        if self.lipschitz_bound == math.inf:
            raise ParameterError(f"R = {R} is too small: the cutoff slope 6/R overflows")

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


def cutoff_eta(R: float) -> _CutoffEta:
    """Build the cutoff used as eta in the integral inequality tests."""
    return _CutoffEta(R)


@dataclass(frozen=True)
class CaccioppoliConfig:
    """Exponent b of the test function psi = f^b eta^2: finite, and above
    b_min = max(1, 2 [p - 2(p-1)/(n-1)]^2 / (beta min(1, p-1))); the bound
    depends on the equation parameters and is enforced by check_caccioppoli,
    which takes b = 1.1 b_min when b is None."""

    b: float | None = None

    def __post_init__(self):
        if self.b is not None and not 1 < self.b < math.inf:
            raise ParameterError(f"b must be finite and > 1, got {self.b}")


def caccioppoli_b_min(n: int, p: float, sigma: float, sign_of_a: float) -> float:
    """Lower admissible exponent for the test function f^b eta^2."""
    bt = beta(n, p, sigma, sign_of_a)
    return max(1.0, 2 * (p - 2 * (p - 1) / (n - 1)) ** 2 / (bt * min(1.0, p - 1)))


@dataclass(frozen=True)
class CaccioppoliReport(_Report):
    """Both sides of the energy inequality with psi = f^b eta^2 on the ball
    of radius R; it passes when slack = rhs - lhs is not below
    -tol_quad * scale, with scale the largest side or term magnitude."""

    _check = "caccioppoli"
    _tolerances = {"tol_quad": _TOL_QUAD}
    samples_retained = _QUADRATURE_POINTS

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


def check_caccioppoli(
    log_solution: LogSolution, config: CaccioppoliConfig, R: float
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
    params, space = log_solution.params, log_solution.space
    _require_span(log_solution, R)
    n, p, a, sig = params.n, params.p, params.a, params.sigma
    bt = beta(n, p, sig, a)
    b_min = caccioppoli_b_min(n, p, sig, a)
    b = 1.1 * b_min if config.b is None else config.b
    if b <= b_min:
        raise ParameterError(f"b = {b} is not above the lower bound b_min = {b_min:.6g}")
    eta = cutoff_eta(R)
    t, w = _quadrature(space, R)
    x = R * t
    r = log_solution.r
    inner = (r > 0) & (r <= 0.75 * R)
    bad = inner & (log_solution.f <= 0)
    if np.any(bad):
        raise RegimeError(
            "f touches 0 inside (0, 3R/4] at r = "
            + ", ".join(f"{x:.6g}" for x in r[bad][:8])
        )

    from ._quad import pchip  # the Bochner checks never interpolate
    # interpolants on the profile's unit span r / r[-1], so that no coefficient
    # is divided by a tiny sample spacing; f' is scaled back by 1 / r[-1]
    span = r[-1]
    f_i = pchip(r / span, log_solution.f)
    where = f_i.locate(x / span)  # the three interpolants share the breakpoints
    fx = np.clip(f_i.at(where), 0.0, None)
    dfx = f_i.derivative().at(where) / span
    dvx = pchip(r / span, log_solution.dv).at(where)
    ex = eta(x)
    dex = eta.derivative(x)

    # f -> 0 only at the center, where every integrand below carries a
    # positive power of f, so the limit contribution is 0: f^b, f^(b-1) and
    # f^(2-2/p) vanish there (b > 1, p > 1), and f^(1-2/p) is set to 0
    e2 = np.square(ex)
    fb = fx**b
    psi = fb * e2
    dpsi = b * fx ** (b - 1) * dfx * e2 + 2 * fb * ex * dex
    with np.errstate(divide="ignore"):
        fpow = np.where(fx > 0, fx ** (1 - 2 / p), 0.0)

    integrands = (
        (p - 1) * fpow * dfx * dpsi,
        fx ** (b + 2) * e2,
        fx ** (2 - 2 / p) * psi,
        fpow * dfx * dvx * psi,
    )
    # numpy's power: R^n overflows to inf with a warning, not an OverflowError
    i_energy, i_f2, i_curv, i_mix = np.float64(R) ** n * (np.stack(integrands) @ w)

    lhs = i_energy + bt * i_f2
    rhs = (n - 1) * space.K * p * i_curv - (2 * (p - 1) / (n - 1) - p) * i_mix
    scale = max(abs(i_energy), abs(bt * i_f2), abs(rhs), abs(lhs), 1e-300)
    slack = rhs - lhs
    return CaccioppoliReport(
        params=params,
        space=space,
        R=R,
        b=b,
        b_min=b_min,
        beta=bt,
        lhs=float(lhs),
        rhs=float(rhs),
        slack=float(slack),
        scale=float(scale),
        passed=bool(slack >= -_TOL_QUAD * scale),
    )


# ---------------------------------------------------------------------------
# Sobolev ratio measurement


@dataclass(frozen=True)
class SobolevRatioReport(_Report):
    """Empirical constant of the ball Sobolev inequality for one test
    function; recorded, never asserted (only existence of a dimensional
    constant is claimed)."""

    _check = "sobolev"
    samples_retained = _QUADRATURE_POINTS

    space: ModelSpace
    R: float
    q: float
    lhs: float
    rhs_core: float
    volume: float
    empirical_constant: float


def sobolev_test_function(solution: RadialSolution, R: float):
    """g = u eta and g' = u' eta + u eta' for the cutoff eta of radius R,
    with u and u' the monotone cubic interpolants of the solved profile: the
    test function that measure_sobolev_ratio takes from a solution."""
    from ._quad import pchip
    _require_span(solution, R)
    _require_finite_profile(solution)
    eta = cutoff_eta(R)
    # interpolants on the profile's unit span, as in check_caccioppoli
    span = solution.r[-1]
    u_i = pchip(solution.r / span, solution.u)
    du_i = pchip(solution.r / span, solution.du)

    def g(r):
        return u_i(r / span) * eta(r)

    def dg(r):
        where = u_i.locate(r / span)  # du_i shares the breakpoints of u_i
        return du_i.at(where) * eta(r) + u_i.at(where) * eta.derivative(r)

    return g, dg


def measure_sobolev_ratio(g, space: ModelSpace, R: float, dg=None) -> SobolevRatioReport:
    """Measure lhs * V^(2/n) / rhs_core for a radial test function g with
    g(R) = 0, where lhs = (int |g|^(2q))^(1/q), q = n/(n-2), and
    rhs_core = R^2 int |g'|^2 + int g^2.

    The unit-sphere factor cancels between the two sides (both scale as its
    power 1 - 2/n once V is measured without it), so all integrals here are
    radial.  Scaling g leaves the ratio invariant: both sides are
    2-homogeneous in g.  Without dg, g' is the analytic derivative of a
    cutoff_eta cutoff and np.gradient in t for any other g.

    The integrals are sums on the unit grid t = r / R, and the constant is
    computed from those sums alone, free of R; lhs, rhs_core and volume
    carry R's powers, so they may underflow to 0 at a tiny R and overflow to
    inf at a huge one.
    """
    _require_radius(R)
    n = space.n
    t, w = _quadrature(space, R)
    x = R * t
    gx = np.asarray(g(x), dtype=float)
    gmax = float(np.max(np.abs(gx)))
    if gmax == 0:
        raise ParameterError("degenerate input: g vanishes identically")
    if abs(gx[-1]) > 1e-8 * gmax:
        raise ParameterError(f"g(R) must vanish, got g({R}) = {gx[-1]:.6g}")
    if dg is None and isinstance(g, _CutoffEta):
        dg = g.derivative
    # R g' = d g(R t) / dt
    Rdgx = np.gradient(gx, t) if dg is None else R * np.asarray(dg(x), dtype=float)
    q = n / (n - 2)
    s_g2q, s_dg2, s_g2 = np.stack((np.abs(gx) ** (2 * q), Rdgx**2, gx**2)) @ w
    s_1 = w.sum()
    Rf = np.float64(R)  # numpy's power: inf with a warning, not an OverflowError
    return SobolevRatioReport(
        space=space,
        R=R,
        q=q,
        lhs=float(Rf ** (n - 2) * s_g2q ** (1 / q)),  # n / q = n - 2
        rhs_core=float(Rf**n * (s_dg2 + s_g2)),
        volume=float(Rf**n * s_1),
        empirical_constant=float(s_g2q ** (1 / q) * s_1 ** (2 / n) / (s_dg2 + s_g2)),
    )
