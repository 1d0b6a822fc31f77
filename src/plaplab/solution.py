"""The solved radial profile and what is computed from it alone.

A shooting run ends in a RadialSolution: the run's configuration, how it
ended and its nodes, the state (r, u, w) at the series start and at the end
of each accepted Dormand-Prince step, and nothing else.  Its grid r, uniform
from 0 to the termination radius, follows from these, and the profile
(u, w) on it, with the flux w = |u'|^(p-2) u', from the nodes, on first
read, by one function, _profile_from_nodes.  From it follow the independent
finite-difference residuals, the log transform v = (p-1) log u and the
linearized operator on it that the pointwise checkers read, and the CSV
form in which the CLI hands a solution from solve to check: the nodes r,
u, w below the metadata.
The series start, the tableau, the vectorized right-hand side and the
dense output that rebuild a profile from its nodes live here, and the
solver takes them from here.

It also holds what the checkers of plaplab.verify and plaplab.proof share:

* reports serialize through ``to_report_dict`` into one flat JSON object
  per check, whose metrics are the report's fields outside the envelope
  and whose tolerances and sample count are class attributes of the
  report (each checker's fixed settings are constants of the one module
  that reads them);
* a radius R must be positive and finite, and inside the span of the
  solution it is checked on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cache, cached_property
from typing import get_type_hints

import numpy as np

from .errors import (ParameterError, SolutionFormatError, _is_path, _require_finite,
                     _write_output)
from .geometry import ModelSpace, _log_warp, radial_L_coefficient, radial_p_laplacian, warp
from .thresholds import EquationParams

# fraction of r_max at which the power-series start hands over to the ODE
_SERIES_FRACTION = 1e-6
_OUTPUT_POINTS = 2001  # samples of a solved profile
_EPS = math.ulp(1.0)


@dataclass(frozen=True)
class ShootingConfig:
    """Shooting-run configuration: start value, span, and control knobs."""

    u0: float = 1.0
    r_max: float = 10.0
    abs_tol: float = 1e-10
    rel_tol: float = 1e-9
    zero_threshold: float = 1e-8
    blowup_threshold: float = 1e8

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not 0 < value < math.inf:
                raise ParameterError(f"{f.name} must be positive and finite, got {value}")
        if not self.zero_threshold < self.u0 < self.blowup_threshold:
            raise ParameterError(
                f"center value u0 = {self.u0} is outside (zero_threshold, blowup_threshold)"
                f" = ({self.zero_threshold}, {self.blowup_threshold})"
            )

    def to_dict(self):
        """Field values in field order, each as a float."""
        return {f.name: float(getattr(self, f.name)) for f in fields(self)}


@dataclass(frozen=True)
class Termination:
    """How a shooting run ended.

    kind is one of reached_rmax | hit_zero | blow_up | step_failure and r is
    the radius at which the run stopped.  A step that fails close to the
    blow-up threshold ends the run as a blow-up at that radius.
    """

    kind: str
    r: float

    KINDS = ("reached_rmax", "hit_zero", "blow_up", "step_failure")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ParameterError(f"unknown termination kind {self.kind!r}")


@dataclass(frozen=True, kw_only=True, eq=False)
class RadialSolution:
    """A solved radial profile: a shooting run's nodes, the (3, m) array of
    r, u, w at the series start and at the full end of each of its m - 1
    accepted Dormand-Prince steps, with its configuration and how it ended.

    Construction refuses nodes that no run ends with (_require_nodes), so
    the writer never writes what the reader refuses, and a copy by
    dataclasses.replace is checked as a new run is.  The grid r is not a
    field: it is np.linspace(0, termination.r, 2001), set once at
    construction, which refuses a termination radius that is not finite and
    > 0 and a grid step that underflows to 0, so that the finite
    differences' step h = r[1] - r[0] holds by construction.  The profile
    (u, w) on it, with the flux w = |u'|^(p-2) u', is not stored either: the
    first read of u or w builds both, _profile_from_nodes of the run, so the
    nodes, which the CSV stores, are its one source.  The derivative
    du = u' = sgn(w) |w|^(1/(p-1)) is computed from w on first use.  As
    for every dataclass that holds arrays, == and hash go by identity.
    """

    params: EquationParams
    space: ModelSpace
    config: ShootingConfig
    termination: Termination
    nodes: np.ndarray

    def __post_init__(self):
        _dimension(self.params, self.space)
        object.__setattr__(self, "r", _grid(self.termination.r))
        object.__setattr__(self, "_limits", _run_limits(self.config))  # the build reads them
        _require_nodes(self.nodes, self._limits[3], self.termination.r)

    @property
    def r_end(self) -> float:
        return self.termination.r

    @cached_property
    def _profile(self) -> tuple[np.ndarray, np.ndarray]:
        return _profile_from_nodes(self)

    @property
    def u(self) -> np.ndarray:
        return self._profile[0]

    @property
    def w(self) -> np.ndarray:
        return self._profile[1]

    @cached_property
    def du(self) -> np.ndarray:
        """u' on the grid, derived from the flux w."""
        return _du_from_flux(self.w, self.params.p)


def _dimension(params, space) -> int:
    """The dimension n of a run, which its params and its space must share."""
    if params.n != space.n:
        raise ParameterError(f"dimension mismatch: params.n = {params.n}, space.n = {space.n}")
    return space.n


def _grid(r_end):
    """np.linspace(0, r_end, _OUTPUT_POINTS), the grid a solved profile is
    sampled on, refused unless r_end is finite and > 0 and the samples
    increase strictly: the step r_end / (_OUTPUT_POINTS - 1) is not 0."""
    if not 0 < r_end < math.inf:
        raise ParameterError(f"termination.r must be finite and > 0, got {r_end}")
    if r_end / (_OUTPUT_POINTS - 1) == 0:
        raise ParameterError(
            f"{_OUTPUT_POINTS} samples from 0 to termination.r = {r_end} do not increase strictly"
        )
    # near the float maximum (m - 1) * step overflows, and linspace sets the
    # last sample to r_end, as it does for any r_end
    with np.errstate(over="ignore"):
        return np.linspace(0.0, r_end, _OUTPUT_POINTS)


def _du_from_flux(w, p):
    """u' = copysign(|w|^(1/(p-1)), w), the inverse of w = |u'|^(p-2) u'."""
    return np.copysign(np.abs(w) ** (1.0 / (p - 1.0)), w)


# ---------------------------------------------------------------------------
# A run's start and its Dormand-Prince 5(4) steps: the series start and run
# limits of both steppers in plaplab.solver, and the tableau, right-hand side
# and dense output of the two vectorized paths, shoot_batch and
# _profile_from_nodes.  Tableau and dense output are those of
# scipy.integrate's RK45 (Dormand & Prince, J. Comput. Appl. Math. 6, 1980;
# Shampine, Math. Comp. 46, 1986).  Every operation is elementwise across
# steps and runs, so no result depends on the rest of its array.


def _run_limits(config: ShootingConfig):
    """(rtol, atol, u_floor, r_start) of a run: scipy's tolerances, rtol
    raised to 100 eps as RK45 raises it; the floor below the zero event
    under which u^sigma is continued Lipschitz; and the radius where the
    power-series start hands over to the ODE.  Every run ends at or beyond
    that radius, so _grid's rule is applied to it up front: the step
    r_start / (_OUTPUT_POINTS - 1) must not underflow to 0."""
    r_start = _SERIES_FRACTION * config.r_max
    if r_start / (_OUTPUT_POINTS - 1) == 0:
        raise ParameterError(
            f"r_max = {config.r_max} is too small: {_OUTPUT_POINTS} samples from 0 to the"
            f" series start {_SERIES_FRACTION} r_max do not increase strictly"
        )
    rtol = max(config.rel_tol, 100 * _EPS)
    return rtol, config.abs_tol, 0.5 * config.zero_threshold, r_start


def _series_u(p, a, sig, n, u0, r):
    """Power-series start: u0 plus the leading flux-driven correction.
    Elementwise in every argument."""
    c = (abs(a) * u0**sig / n) ** (1 / (p - 1)) * (p - 1) / p
    return u0 - np.copysign(c, a) * r ** (p / (p - 1))


def _series_w(a, sig, n, u0, r):
    return -a * u0**sig * r / n


_DP_C = (1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0)
_DP_A = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
)
_DP_B = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
_DP_E = (-71 / 57600, 0.0, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525, 1 / 40)
# dense output (Shampine 1986): y(t_old + x h) = y_old + h sum_j Q_j x^(j+1),
# with Q_0 = K_1 and Q_j = sum_k _DP_P[j - 1][k] K_k over the seven stages
_DP_P = (
    (
        -8048581381 / 2820520608,
        0.0,
        131558114200 / 32700410799,
        -1754552775 / 470086768,
        127303824393 / 49829197408,
        -282668133 / 205662961,
        40617522 / 29380423,
    ),
    (
        8663915743 / 2820520608,
        0.0,
        -68118460800 / 10900136933,
        14199869525 / 1410260304,
        -318862633887 / 49829197408,
        2019193451 / 616988883,
        -110615467 / 29380423,
    ),
    (
        -12715105075 / 11282082432,
        0.0,
        87487479700 / 32700410799,
        -10690763975 / 1880347072,
        701980252875 / 199316789632,
        -1453857185 / 822651844,
        69997945 / 29380423,
    ),
)

# The vectorized paths keep a step's seven stages in one array, in the order
# k2, k1, k3, ..., k7, and sum them with np.add.reduce over the leading axis
# from -0.0: numpy adds along a slow axis one row after another, -0.0 + x = x,
# and a2 k2 + a1 k1 = a1 k1 + a2 k2, so each sum equals the left-to-right sum
# of the tableau's nonzero terms bit for bit.  B, E and the dense output
# weigh k2 by zero: they sum rows 1 to 6.
_A_ROWS = tuple(np.array((*row[1::-1], *row[2:]))[:, None, None] for row in _DP_A[1:])
_B_ROWS = np.array((_DP_B[0], *_DP_B[2:]))[:, None, None]
_E_ROWS = np.array((_DP_E[0], *_DP_E[2:]))[:, None, None]
_P_ROWS = tuple(np.array((row[0], *row[2:]))[:, None, None] for row in _DP_P)
_STAGE_C = np.array((*_DP_C, 1.0))[:, None]  # stages 2 to 7 sit at t + c h


def _stage_sum(coeffs, stages):
    """sum_k coeffs[k] stages[k] over the leading axis, added in order."""
    return np.add.reduce(coeffs * stages, axis=0, initial=-0.0)


def _dense_coefficients(stages):
    """Q_0..Q_3 of _dense_output from the stages k1, k3, ..., k7 (leading axis)."""
    return np.stack((stages[0], *(_stage_sum(row, stages) for row in _P_ROWS)))


def _dense_output(step, t):
    """y(t) on the dense-output polynomial of each step (last axis), from
    step = (t_old, h, y_old, Q) with the step width h = t_new - t_old."""
    t_old, h, y_old, q = step
    x = (t - t_old) / h
    x2 = x * x
    x3 = x2 * x
    return h * (q[0] * x + q[1] * x2 + q[2] * x3 + q[3] * (x3 * x)) + y_old


def _rhs(y, damping, consts, u_floor, out):
    """(u', w') of the states y = (u, w) into out, with damping = (n-1) s'/s
    at their radii and consts = (-a, sigma, 1/(p-1)), arrays or floats:
    u' = sgn(w) |w|^(1/(p-1)), w' = -a max(u, u_floor)^sigma - damping w."""
    neg_a, sigma, inv_pm1 = consts
    np.copysign(np.power(np.abs(y[1]), inv_pm1), y[1], out=out[0])
    np.subtract(neg_a * np.power(np.fmax(y[0], u_floor), sigma), damping * y[1], out=out[1])
    return out


def _inner_stages(stages, y, h, damping, consts, u_floor):
    """The stages k2, ..., k6 of steps of width h from the states y into
    stages (k2, k1, k3, ..., k7), given k1 in stages[1] and the damping at
    the stage radii t + c h in the rows of damping."""
    _rhs(y + (_DP_A[0][0] * stages[1]) * h, damping[0], consts, u_floor, stages[0])
    for s, coeffs in enumerate(_A_ROWS, start=2):
        y_stage = y + _stage_sum(coeffs, stages[:s]) * h
        _rhs(y_stage, damping[s - 1], consts, u_floor, stages[s])


def _node_steps(sol):
    """(t_old, h, y_old, Q) of the steps between the nodes of the solved
    profile sol, for _dense_output: one numpy _rhs call per stage across all
    steps (k1, k7 at the nodes), summed in the scalar stepper's order, with
    numpy's power and tanh, which may differ in the last bit from the libm
    the scalar stepper calls."""
    n, u_floor = sol.space.n, sol._limits[2]
    r, y = sol.nodes[0], sol.nodes[1:]
    t_old, y_old = r[:-1], y[:, :-1]
    h = r[1:] - t_old
    consts = (-sol.params.a, sol.params.sigma, 1.0 / (sol.params.p - 1.0))
    log_warp = _log_warp(sol.space.K)
    stages = np.empty((7, *y_old.shape))  # k2, k1, k3, ..., k7
    with np.errstate(all="ignore"):
        damping = (n - 1) * log_warp(t_old + _STAGE_C * h)  # stages 2 to 7
        # the RHS at every node, each step's end at t_old + h as the stepper's k7
        node_damping = np.concatenate(((n - 1) * log_warp(r[:1]), damping[5]))
        at_nodes = _rhs(y, node_damping, consts, u_floor, np.empty_like(y))
        stages[1], stages[6] = at_nodes[:, :-1], at_nodes[:, 1:]
        _inner_stages(stages, y_old, h, damping, consts, u_floor)
        return t_old, h, y_old, _dense_coefficients(stages[1:])


def _profile_from_nodes(sol):
    """(u, w) on the grid sol.r of the solved profile sol, from its nodes.

    Below the first node, the series start, a sample takes the series;
    above it, the dense output of the step it lies in (_node_steps), a
    sample on a node the step that ends there, as scipy's does.  With one
    node (no accepted step) every sample takes the series.  One function
    builds the profile of every RadialSolution, solved or read from a CSV,
    so on one machine the profile read back equals the solved one bit for
    bit; its last bits follow numpy's SIMD power and tanh.  A hand-edited
    node whose stages overflow gives a profile that holds inf or nan, which
    every checker refuses.
    """
    p, a, sig, n, u0 = sol.params.p, sol.params.a, sol.params.sigma, sol.space.n, sol.config.u0
    rs, r = sol.r, sol.nodes[0]
    u = np.empty_like(rs)
    w = np.empty_like(rs)
    head = rs < (r[0] if r.size > 1 else math.inf)
    u[head] = _series_u(p, a, sig, n, u0, rs[head])
    w[head] = _series_w(a, sig, n, u0, rs[head])
    if r.size > 1:
        tail = rs[~head]
        index = np.searchsorted(r[1:], tail, side="left")
        step = [np.take(x, index, axis=-1) for x in _node_steps(sol)]
        with np.errstate(all="ignore"):
            u[~head], w[~head] = _dense_output(step, tail)
    return u, w


@dataclass(frozen=True, eq=False)
class LogSolution:
    """Log-transformed profile: v = (p-1) log u, f = |v'|^p, and the
    source weight h = (p-1)^(p-1) exp((sigma/(p-1) - 1) v); == and hash go
    by identity."""

    params: EquationParams
    space: ModelSpace
    config: ShootingConfig
    r: np.ndarray
    v: np.ndarray
    dv: np.ndarray
    f: np.ndarray
    h: np.ndarray

    def __post_init__(self):
        _dimension(self.params, self.space)

    @cached_property
    def transformed_residual(self) -> float:
        """Max relative residual, by finite differences on v alone, of the
        transformed equation div(|v'|^(p-2) v') + |v'|^p + a h = 0 (h as
        above); computed on first use."""
        # the log profile is singular at a zero hit, so its grid change per step
        # must stay well below the u-profile cap for the 4th-order stencil
        mask, dv, plap_v = _fd_p_laplacian(self, self.v, np.abs(self.dv), 0.01)
        source = self.params.a * self.h[mask]
        full = plap_v + np.abs(dv) ** self.params.p + source
        return float(np.max(np.abs(full)) / np.max(np.abs(source)))

    @cached_property
    def linearized_operator(self) -> tuple[np.ndarray, np.ndarray]:
        """(L f, f') on the grid, L(f) = s^(1-n) d/dr [ s^(n-1) (p-1)|v'|^(p-2) f' ]
        by nested 4th-order differences, NaN where v' = 0; computed on
        first use, so both Bochner checks of one profile share it."""
        r, dv = self.r, self.dv
        n = self.space.n
        h = r[1] - r[0]
        df = _fd4_first(self.f, h)
        s_pow = warp(self.space, r) ** (n - 1)
        coef = np.full_like(r, np.nan)
        moving = dv != 0
        coef[moving] = radial_L_coefficient(self.params.p, dv[moving])
        with np.errstate(divide="ignore", invalid="ignore"):
            Lf = _fd4_first(s_pow * coef * df, h) / s_pow
        return Lf, df


# ---------------------------------------------------------------------------
# finite-difference residuals and the log transform; the 4th-order central
# stencils leave NaN in the two border cells at each end, which masks drop


def _fd4_first(y, h):
    """(y[i-2] - 8 y[i-1] + 8 y[i+1] - y[i+2]) / (12 h), O(h^4)."""
    y = np.asarray(y, dtype=float)
    out = np.full_like(y, np.nan)
    out[2:-2] = (y[:-4] - 8 * y[1:-3] + 8 * y[3:-1] - y[4:]) / (12 * h)
    return out


def _fd4_second(y, h):
    """(-y[i-2] + 16 y[i-1] - 30 y[i] + 16 y[i+1] - y[i+2]) / (12 h^2), O(h^4)."""
    y = np.asarray(y, dtype=float)
    out = np.full_like(y, np.nan)
    out[2:-2] = (
        -y[:-4] + 16 * y[1:-3] - 30 * y[2:-2] + 16 * y[3:-1] - y[4:]
    ) / (12 * h * h)
    return out


def _fd_p_laplacian(solution, y, rel_change, max_step_change):
    """(mask, y', div(|y'|^(p-2) y')) of the profile y on the solution's
    grid, by 4th-order central differences, on the samples retained for
    residual checks: inside the central exclusion band, with complete FD
    stencils, nondegenerate gradient for p < 2, and resolvable on the grid
    (relative change per grid step capped, which drops the unresolvable
    tail next to a zero hit or a blow-up).  A grid of fewer than 5 samples
    has no complete stencil; a check that retains no sample is refused."""
    p, r = solution.params.p, solution.r
    h = r[1] - r[0]
    dy = _fd4_first(y, h)
    band = min(0.02 * solution.config.r_max, 0.25 * r[-1])
    mask = (r > band) & np.isfinite(dy)
    mask &= rel_change * h <= max_step_change
    if p < 2:
        mask &= dy != 0
    if not np.any(mask):
        raise ParameterError("no samples retained for the residual check")
    dy = dy[mask]
    return mask, dy, radial_p_laplacian(p, solution.space, dy, _fd4_second(y, h)[mask], r[mask])


def pde_residual(solution: RadialSolution) -> float:
    """Max relative residual of the original equation on the resampled grid.

    u' and u'' are rebuilt from (r, u) alone by 4th-order central
    differences, so this is an independent verification of the profile, not
    of the solver's own flux variable.  The residual is normalized by the
    largest source magnitude max |a| u^sigma over retained samples.
    """
    u = solution.u
    mask, _, plap = _fd_p_laplacian(solution, u, np.abs(solution.du) / u, 0.02)
    source = solution.params.a * u[mask] ** solution.params.sigma
    scale = np.max(np.abs(source))
    return float(np.max(np.abs(plap + source)) / scale)


def _require_finite_profile(solution):
    """Raise ParameterError unless u and w are finite on the whole grid: the
    rule of every checker that reads a RadialSolution."""
    bad = ~(np.isfinite(solution.u) & np.isfinite(solution.w))
    if np.any(bad):
        i = int(np.argmax(bad))
        raise ParameterError(
            f"profile is not finite at r = {solution.r[i]:.6g}:"
            f" u = {solution.u[i]}, w = {solution.w[i]}"
        )


def _jsonable(value):
    if isinstance(value, (np.generic, np.ndarray)):
        return value.tolist()
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


# report fields that go into the envelope rather than its metrics
_ENVELOPE = ("params", "space", "R", "passed")


class _Report:
    """to_report_dict for the report dataclasses: each declares its check
    name and its tolerances, a mapping from each printed name to the fixed
    setting, and may state samples_retained, the number of samples it was
    measured on; its fields outside the envelope are its metrics, in field
    order."""

    _tolerances = {}
    samples_retained = None

    def _metrics(self):
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name not in _ENVELOPE}

    def to_report_dict(self):
        params = getattr(self, "params", None)
        return _jsonable(
            {
                "check": self._check,
                "params": params.to_dict() if params is not None else None,
                "space": self.space.to_dict(),
                "R": getattr(self, "R", None),
                "pass": getattr(self, "passed", None),
                "metrics": self._metrics(),
                "samples_retained": self.samples_retained,
                "tolerances": dict(self._tolerances),
            }
        )


def _require_radius(R):
    if not R > 0:
        raise ParameterError(f"R must be positive, got {R}")
    _require_finite("R", R)


def _require_span(solution, R):
    """R > 0 inside the span of solution, a RadialSolution or a LogSolution."""
    _require_radius(R)
    if solution.r[-1] < R:
        raise ParameterError(
            f"solution extends only to r = {solution.r[-1]:.6g} < R = {R}"
        )


def to_log_solution(solution: RadialSolution) -> LogSolution:
    """Pointwise log-transform of a positive profile; the transformed
    equation is checked when its transformed_residual is first read."""
    _require_finite_profile(solution)
    if np.any(solution.u <= 0):
        raise ParameterError("log transform requires u > 0 on all samples")
    p, sig = solution.params.p, solution.params.sigma
    v = (p - 1) * np.log(solution.u)
    dv = (p - 1) * solution.du / solution.u
    f = np.abs(dv) ** p
    hsrc = (p - 1) ** (p - 1) * np.exp((sig / (p - 1) - 1) * v)
    return LogSolution(
        params=solution.params,
        space=solution.space,
        config=solution.config,
        r=solution.r,
        v=v,
        dv=dv,
        f=f,
        h=hsrc,
    )


def _cumulative_weighted_integral(r, g, n):
    """Cumulative integral of t^(n-1) g(t) on the grid r (r[0] = 0).

    Product quadrature: g is fitted by the parabola through each sample
    triple and integrated against the exact moments of t^(n-1), so the
    weight's vanishing at t = 0 costs no accuracy (plain Simpson is exact
    for parabolas but not for t^(n-1) * parabola, and its startup error is
    amplified by s^(1-n) in the flux identity).
    """
    m = len(r)
    k = np.arange(m - 1)
    left = np.clip(k - 1, 0, m - 3)  # triple (left, left+1, left+2) per interval
    t0, t1, t2 = r[left], r[left + 1], r[left + 2]
    g0, g1, g2 = g[left], g[left + 1], g[left + 2]
    d01 = (g1 - g0) / (t1 - t0)
    d12 = (g2 - g1) / (t2 - t1)
    c2 = (d12 - d01) / (t2 - t0)  # second divided difference
    # parabola around tau = t - r[k]:  A + B tau + C tau^2
    dk = r[k] - t0
    A = g0 + d01 * dk + c2 * dk * (r[k] - t1)
    B = d01 + c2 * (2 * r[k] - t0 - t1)
    C = c2
    h = r[k + 1] - r[k]
    increments = np.zeros(m - 1)
    for j in range(n):  # binomial expansion of (r_k + tau)^(n-1)
        binom = math.comb(n - 1, j)
        base = binom * r[k] ** (n - 1 - j)
        increments += base * (
            A * h ** (j + 1) / (j + 1)
            + B * h ** (j + 2) / (j + 2)
            + C * h ** (j + 3) / (j + 3)
        )
    out = np.zeros(m)
    np.cumsum(increments, out=out[1:])
    return out


def flux_residual(solution: RadialSolution) -> float:
    """Deviation of w from -s^(1-n) * integral_0^r a u^sigma s^(n-1) dt.

    The integral is evaluated by a product quadrature (exact moments of
    t^(n-1) against a piecewise-parabolic fit of the smooth factor), and
    the maximum absolute deviation is normalized by max(1, max |w|).  The
    final sample is excluded: it sits on the termination event, where the
    integrand may end in a cusp (u^sigma with sigma < 1 at a zero hit).
    """
    params, space = solution.params, solution.space
    r, u, w = solution.r, solution.u, solution.w
    n = space.n
    warp_ratio = np.ones_like(r)  # (s(t)/t)^(n-1), smooth, -> 1 at 0
    warp_ratio[1:] = (warp(space, r[1:]) / r[1:]) ** (n - 1)
    g = params.a * u**params.sigma * warp_ratio
    integral = _cumulative_weighted_integral(r, g, n)
    s_pow = warp_ratio[1:] * r[1:] ** (n - 1)
    dev = w[1:-1] + integral[1:-1] / s_pow[:-1]
    scale = max(1.0, float(np.max(np.abs(w))))
    return float(np.max(np.abs(dev)) / scale)


# ---------------------------------------------------------------------------
# CSV serialization: '#'-prefixed key=value metadata, then one row per node

_FLOAT_FMT = "%.17g"
_HEADER = "r,u,w"
_ROW_FMT = ",".join([_FLOAT_FMT] * 3) + "\n"
_type_hints = cache(get_type_hints)  # a class's annotations resolve once per process


def write_solution_csv(solution: RadialSolution, path_or_file) -> None:
    """Write a solution as CSV: metadata comment lines, the header r,u,w
    and one row per node.

    The 2001 samples are neither written nor built: a RadialSolution's
    (u, w) are _profile_from_nodes of its nodes, built on first read, and du
    follows from w.  Decimal output carries 17 significant digits, enough to
    round-trip float64 exactly.  The whole text is built before the output
    is opened; a path is rewritten in place and cut to length
    (errors._write_output).
    """
    meta = {}
    meta.update(solution.params.to_dict())
    meta.update(solution.space.to_dict())
    meta.update(solution.config.to_dict())
    meta["termination"] = solution.termination.kind
    meta["termination_r"] = solution.termination.r
    lines = [
        f"# {key}={_FLOAT_FMT % value if isinstance(value, float) else value}\n"
        for key, value in meta.items()
    ]
    lines.append(_HEADER + "\n")
    rows = solution.nodes.T
    lines.append((_ROW_FMT * len(rows)) % tuple(rows.ravel().tolist()))
    _write_output(path_or_file, "".join(lines))


def _from_meta(cls, meta):
    """The dataclass cls built from the metadata value of each of its
    fields, parsed as the field's annotated type."""
    types = _type_hints(cls)
    return cls(**{f.name: types[f.name](meta[f.name]) for f in fields(cls)})


def _header_index(lines, meta):
    """Index of the first non-blank line that is not metadata, len(lines)
    if there is none; the '#' lines above it are parsed as key=value into
    meta."""
    for i, line in enumerate(lines):
        line = line.strip()
        if line.startswith("#"):
            body = line[1:].strip()
            if "=" not in body:
                raise SolutionFormatError(f"malformed metadata line: {line!r}")
            key, _, value = body.partition("=")
            meta[key.strip()] = value.strip()
        elif line:
            return i
    return len(lines)


def _first_rejected_row(rows):
    """Index of the first row that np.loadtxt refuses below the row 0,0,0: a
    row that is not three numbers.  Called on the error path only, one row
    at a time."""
    for k, row in enumerate(rows):
        try:
            np.loadtxt(["0,0,0", row], delimiter=",", comments=None)
        except ValueError:
            return k


def _refuse_row(rows, start, k, problem):
    """Raise the error that names the file line of rows[k], the rows below
    the header at line index start, and quotes it."""
    raise SolutionFormatError(
        f"malformed data rows: line {start + 2 + k} {problem}: {rows[k]!r}"
    ) from None


def _bad_nodes(nodes):
    """Mask of the nodes that are not finite or do not increase the radius."""
    bad = ~np.isfinite(nodes).all(axis=0)
    bad[1:] |= ~(nodes[0, 1:] > nodes[0, :-1])
    return bad


def _require_nodes(nodes, r_start, r_end):
    """Refuse nodes that no run ends with: an array other than 3 rows of
    at least one node, a non-finite value, radii that do not increase
    strictly, a first radius other than the series start, and a
    termination radius outside the last step (r[-2], r[-1]], or other than
    r[0] with one node."""
    if np.ndim(nodes) != 2 or np.shape(nodes)[0] != 3 or np.size(nodes) == 0:
        raise ParameterError(f"nodes must be a (3, m) array of r, u, w, got {np.shape(nodes)}")
    bad = _bad_nodes(nodes)
    if bad.any():
        j = int(np.argmax(bad))
        raise ParameterError(
            f"node {j} (r, u, w) = {tuple(nodes[:, j].tolist())} is not finite"
            " or does not increase the radius"
        )
    r = nodes[0].tolist()
    if r[0] != r_start:
        raise ParameterError(
            f"first radius {r[0]!r} is not the series start {_SERIES_FRACTION} r_max = {r_start!r}"
        )
    if len(r) == 1 and r_end != r[0]:
        raise ParameterError(f"termination_r = {r_end!r} is not the one node's radius {r[0]!r}")
    if len(r) > 1 and not r[-2] < r_end <= r[-1]:
        raise ParameterError(
            f"termination_r = {r_end!r} is outside the last step ({r[-2]!r}, {r[-1]!r}]"
        )


def read_solution_csv(path_or_file) -> RadialSolution:
    """Parse a solution CSV written by write_solution_csv.

    Below the header r,u,w a data row is three comma-separated plain decimal
    fields, a node r, u, w: the file is the RadialSolution of its nodes,
    whose 2001 samples to termination_r are built from them on the first
    read of u, w or du, by _profile_from_nodes.  The nodes must be finite,
    their radii must increase strictly from the series start 1e-6 r_max, and
    termination_r must lie in the last step (r[-2], r[-1]], or equal r[0]
    with one node.  Any other header, such as the u,w of files that stored
    the 2001 samples, is refused.  Metadata lines go above the header; keys
    that name no field, such as the retired min_step, output_points and
    termination_detail, are ignored.  Below the header a '#' line or a line
    of spaces is refused; a refused row is named by its file line.  Blank
    lines, spaces around fields and \r\n line ends read.
    """
    if _is_path(path_or_file):
        with open(path_or_file) as fh:
            text = fh.read()
    else:  # an open file is read, not closed
        text = path_or_file.read()
    lines = text.split("\n")
    meta = {}
    start = _header_index(lines, meta)
    header = lines[start].strip() if start < len(lines) else None
    if header not in (None, _HEADER):
        raise SolutionFormatError(f"unexpected column header: {header!r}")
    # loadtxt skips empty lines (lone '\r's too) and strips each field
    rows = lines[start + 1 :]
    if not any(row.strip("\r") for row in rows):
        raise SolutionFormatError("no data rows found")
    try:
        data = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        _refuse_row(rows, start, _first_rejected_row(rows), "is not 3 comma-separated numbers")
    if data.shape[1] != 3:
        raise SolutionFormatError(f"data rows have {data.shape[1]} columns, expected 3")
    try:
        params, space, config = (
            _from_meta(cls, meta) for cls in (EquationParams, ModelSpace, ShootingConfig)
        )
        termination = Termination(meta["termination"], float(meta["termination_r"]))
    except (KeyError, ValueError) as exc:
        raise SolutionFormatError(f"bad or missing metadata: {exc}") from exc
    nodes = data.T
    bad = _bad_nodes(nodes)
    if bad.any():  # named by its file line; RadialSolution refuses the rest
        j = int(np.argmax(bad))
        k = [i for i, row in enumerate(rows) if row.strip("\r")][j]  # loadtxt skips blanks
        if np.isfinite(nodes[:, j]).all():
            _refuse_row(rows, start, k, "does not increase the radius")
        _refuse_row(rows, start, k, "holds a non-finite node")
    try:
        return RadialSolution(
            params=params, space=space, config=config, termination=termination, nodes=nodes
        )
    except ParameterError as exc:
        raise SolutionFormatError(str(exc)) from exc
