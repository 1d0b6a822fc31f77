"""Shooting solver for the radial equation div(|u'|^(p-2) u') + a u^sigma = 0
on a model space, robust across the degenerate (1 < p < 2) and singular
(p > 2) regimes.

The integration state is (u, w) with the flux variable w = |u'|^(p-2) u',
so the first-order system

    u' = sgn(w) |w|^(1/(p-1)),
    w' = -a u^sigma - (n-1) (s'/s) w,

has no singularity at critical points of u and is startable at r = 0 via a
short power series.  Termination is classified as reached_rmax, hit_zero
(u fell to the configured threshold), blow_up, or step_failure.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from ._fd import fd4_first, fd4_second
from .errors import ParameterError, SolutionFormatError
from .geometry import ModelSpace, _warp_log_derivative, warp, warp_log_derivative
from .thresholds import EquationParams

__all__ = [
    "ShootingConfig",
    "Termination",
    "RadialSolution",
    "LogSolution",
    "solve_radial",
    "shoot_batch",
    "pde_residual",
    "to_log_solution",
    "first_zero",
    "flux_residual",
    "write_solution_csv",
    "read_solution_csv",
]

# fraction of r_max at which the power-series start hands over to the ODE
_SERIES_FRACTION = 1e-6


@dataclass(frozen=True)
class ShootingConfig:
    """Shooting-run configuration: start value, span, and control knobs."""

    u0: float = 1.0
    r_max: float = 10.0
    abs_tol: float = 1e-10
    rel_tol: float = 1e-9
    zero_threshold: float = 1e-8
    blowup_threshold: float = 1e8
    min_step: float = 1e-12
    output_points: int = 2001

    def __post_init__(self):
        for name in (
            "u0",
            "r_max",
            "abs_tol",
            "rel_tol",
            "zero_threshold",
            "blowup_threshold",
            "min_step",
        ):
            if not getattr(self, name) > 0:
                raise ParameterError(f"{name} must be positive, got {getattr(self, name)}")
        if not self.zero_threshold < self.u0:
            raise ParameterError(
                f"zero_threshold ({self.zero_threshold}) must be below u0 ({self.u0})"
            )
        if not self.u0 < self.blowup_threshold:
            raise ParameterError("u0 must be below blowup_threshold")
        if not (isinstance(self.output_points, (int, np.integer)) and self.output_points >= 5):
            raise ParameterError(f"output_points must be an integer >= 5, got {self.output_points!r}")

    def to_dict(self):
        return {
            "u0": self.u0,
            "r_max": self.r_max,
            "abs_tol": self.abs_tol,
            "rel_tol": self.rel_tol,
            "zero_threshold": self.zero_threshold,
            "blowup_threshold": self.blowup_threshold,
            "min_step": self.min_step,
            "output_points": int(self.output_points),
        }


@dataclass(frozen=True)
class Termination:
    """How a shooting run ended.

    kind is one of reached_rmax | hit_zero | blow_up | step_failure and r is
    the radius at which the run stopped.  When a failing step and the
    blow-up threshold compete, both radii are recorded in ``detail``.
    """

    kind: str
    r: float
    detail: dict = field(default_factory=dict)

    KINDS = ("reached_rmax", "hit_zero", "blow_up", "step_failure")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ParameterError(f"unknown termination kind {self.kind!r}")


@dataclass(frozen=True)
class RadialSolution:
    """Uniformly resampled radial profile (r, u, u', flux w) plus verdict."""

    params: EquationParams
    space: ModelSpace
    config: ShootingConfig
    r: np.ndarray
    u: np.ndarray
    du: np.ndarray
    w: np.ndarray
    termination: Termination

    def __post_init__(self):
        m = len(self.r)
        if not (len(self.u) == len(self.du) == len(self.w) == m):
            raise ParameterError("grid arrays must have equal length")
        if m < 2 or self.r[0] != 0.0 or np.any(np.diff(self.r) <= 0):
            raise ParameterError("r must increase strictly from 0")

    @property
    def r_end(self) -> float:
        return float(self.r[-1])


@dataclass(frozen=True)
class LogSolution:
    """Log-transformed profile: v = (p-1) log u, f = |v'|^p, and the
    source weight h = (p-1)^(p-1) exp((sigma/(p-1) - 1) v)."""

    params: EquationParams
    space: ModelSpace
    r: np.ndarray
    v: np.ndarray
    dv: np.ndarray
    f: np.ndarray
    h: np.ndarray
    transformed_residual: float


def _series_u(p, a, sig, n, u0, r):
    """Power-series start: u0 plus the leading flux-driven correction.
    Elementwise in every argument."""
    c = (abs(a) * u0**sig / n) ** (1 / (p - 1)) * (p - 1) / p
    return u0 - np.copysign(c, a) * r ** (p / (p - 1))


def _series_w(a, sig, n, u0, r):
    return -a * u0**sig * r / n


def solve_radial(
    params: EquationParams, space: ModelSpace, config: ShootingConfig
) -> RadialSolution:
    """Integrate the radial profile from the regular center outward.

    Starts from a power series at r = 1e-6 * r_max, advances with an
    adaptive embedded Runge-Kutta pair, locates terminal events (zero hit,
    blow-up) in r to root-finding precision, and returns the profile
    uniformly resampled on [0, r_end] from the integrator's C^1 continuous
    extension (downstream off-grid interpolation is monotone cubic, in the
    checkers).
    """
    from scipy.integrate import solve_ivp  # on first use: import plaplab needs no scipy

    if params.n != space.n:
        raise ParameterError(
            f"dimension mismatch: params.n = {params.n}, space.n = {space.n}"
        )
    p, a, sig, n = params.p, params.a, params.sigma, params.n
    inv_pm1 = 1.0 / (p - 1.0)
    r_start = _SERIES_FRACTION * config.r_max
    u0 = config.u0
    y0 = [_series_u(p, a, sig, n, u0, r_start), _series_w(a, sig, n, u0, r_start)]
    u_floor = 0.5 * config.zero_threshold  # Lipschitz continuation below the zero event

    if space.K == 0:

        def log_warp(r):
            return 1.0 / r

    else:
        rk = math.sqrt(space.K)

        def log_warp(r):
            return rk / math.tanh(rk * r)

    def rhs(r, y):
        u, w = y
        du = math.copysign(abs(w) ** inv_pm1, w)
        u_eff = u if u > u_floor else u_floor
        dw = -a * u_eff**sig - (n - 1) * log_warp(r) * w
        return (du, dw)

    def ev_zero(r, y):
        return y[0] - config.zero_threshold

    ev_zero.terminal = True
    ev_zero.direction = -1

    def ev_blow(r, y):
        return config.blowup_threshold - max(abs(y[0]), abs(y[1]))

    ev_blow.terminal = True
    ev_blow.direction = -1

    sol = solve_ivp(
        rhs,
        (r_start, config.r_max),
        y0,
        method="RK45",
        rtol=config.rel_tol,
        atol=config.abs_tol,
        events=(ev_zero, ev_blow),
        dense_output=True,
    )

    if sol.status == 1:
        if len(sol.t_events[0]):
            termination = Termination("hit_zero", float(sol.t_events[0][0]))
        else:
            termination = Termination("blow_up", float(sol.t_events[1][0]))
    elif sol.status == 0:
        termination = Termination("reached_rmax", config.r_max)
    else:
        r_fail = float(sol.t[-1])
        u_last, w_last = float(sol.y[0, -1]), float(sol.y[1, -1])
        detail = {"failure_r": r_fail, "message": sol.message}
        if max(abs(u_last), abs(w_last)) >= 0.99 * config.blowup_threshold:
            detail["blowup_r"] = r_fail
            termination = Termination("blow_up", r_fail, detail)
        else:
            termination = Termination("step_failure", r_fail, detail)

    r_end = termination.r
    if len(sol.t) < 2 or r_end <= r_start:
        raise ParameterError(
            f"integration span collapsed (r_end = {r_end}); check the configuration"
        )

    # uniform resample straight from the integrator's continuous extension:
    # it is C^1 across steps, so downstream finite differences on the uniform
    # grid see only the (smooth, tolerance-sized) integration error
    rs = np.linspace(0.0, r_end, config.output_points)
    u = np.empty_like(rs)
    w = np.empty_like(rs)
    head = rs < r_start
    u[head] = _series_u(p, a, sig, n, u0, rs[head])
    w[head] = _series_w(a, sig, n, u0, rs[head])
    u[~head], w[~head] = sol.sol(rs[~head])
    du = np.sign(w) * np.abs(w) ** inv_pm1

    return RadialSolution(
        params=params,
        space=space,
        config=config,
        r=rs,
        u=u,
        du=du,
        w=w,
        termination=termination,
    )


# ---------------------------------------------------------------------------
# Batched shooting: many independent runs advanced in lockstep by one numpy
# Dormand-Prince 5(4) integrator.  Tableau, error norm, initial step and step
# controller are those of scipy.integrate's RK45 (Dormand & Prince, J. Comput.
# Appl. Math. 6, 1980; Hairer, Norsett & Wanner, Solving ODEs I, II.4 and
# II.6), so each run takes the step sequence a scalar solve_radial run takes.
# Stage sums run left to right elementwise: no reduction crosses runs, so a
# run's result does not depend on the rest of its batch.

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
# with Q_j = sum_k _DP_P[j][k] K_k over the seven stages
_DP_P = (
    (1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
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
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_ERROR_EXPONENT = -1 / 5
_EPS = np.finfo(float).eps
_KIND_NAMES = np.asarray(Termination.KINDS)
_REACHED, _ZERO, _BLOW, _FAILED = range(4)  # positions in Termination.KINDS


def _combine(coeffs, stages):
    """sum_k coeffs[k] stages[k], accumulated left to right."""
    total = None
    for c, k in zip(coeffs, stages):
        if c:
            total = c * k if total is None else total + c * k
    return total


def _rms(y):
    """scipy's RMS norm of each run's two-component vector (columns of y)."""
    return np.sqrt(y[0] * y[0] + y[1] * y[1]) / 2**0.5


def _max_abs(y):
    return np.maximum(np.abs(y[0]), np.abs(y[1]))


def _keep(runs, mask):
    """Drop the runs outside mask from every per-run array."""
    for name, value in vars(runs).items():
        setattr(runs, name, value[..., mask])


def shoot_batch(params, u0, space: ModelSpace, config: ShootingConfig):
    """Shoot many radial runs at once: run i solves params[i] from center
    value u0[i] on ``space``, with ``config`` for everything but u0.

    The runs advance in lockstep, each with its own adaptive step, and
    leave the batch as they finish.  Zero and blow-up events are located on
    the dense-output polynomial of the step in which the event function
    changed sign, by bisection to scipy's 4 eps tolerance; when both fire in
    one step the earlier wins.  No profile is kept.

    Returns three arrays with one entry per run: the termination kind (one
    of Termination.KINDS, as solve_radial classifies it, with a collapsed
    span reported as step_failure), its radius, and the largest relative
    excursion max |u - u0| / u0 over accepted step ends.
    """
    params = list(params)
    u0 = np.asarray(u0, dtype=float)
    if u0.shape != (len(params),):
        raise ParameterError("need one center value per parameter set")
    if any(prm.n != space.n for prm in params):
        raise ParameterError(f"dimension mismatch with space.n = {space.n}")
    zt, bt = config.zero_threshold, config.blowup_threshold
    if not np.all((zt < u0) & (u0 < bt)):
        raise ParameterError("center values must lie between the thresholds")
    m = len(params)
    kind = np.full(m, _FAILED)
    r_end = np.zeros(m)
    moved = np.zeros(m)
    if m == 0:
        return _KIND_NAMES[kind], r_end, moved

    n, r_max = space.n, config.r_max
    rtol, atol = max(config.rel_tol, 100 * _EPS), config.abs_tol
    u_floor = 0.5 * zt  # Lipschitz continuation below the zero event
    r_start = _SERIES_FRACTION * r_max
    p, a, sig = (np.array([getattr(x, k) for x in params]) for k in ("p", "a", "sigma"))

    def rhs(t, y, runs):
        u, w = y
        out = np.empty_like(y)
        np.copysign(np.abs(w) ** runs.inv_pm1, w, out=out[0])
        u_eff = np.where(u > u_floor, u, u_floor)
        lam = _warp_log_derivative(space.K, t)
        np.subtract(runs.neg_a * u_eff**runs.sig, ((n - 1) * lam) * w, out=out[1])
        return out

    y0 = (_series_u(p, a, sig, n, u0, r_start), _series_w(a, sig, n, u0, r_start))
    runs = SimpleNamespace(
        index=np.arange(m),
        neg_a=-a,
        sig=sig,
        inv_pm1=1.0 / (p - 1.0),
        u0=u0,
        t=np.full(m, r_start),
        y=np.stack(y0),
        retry=np.zeros(m, dtype=bool),  # the last attempt was rejected
        moved=np.zeros(m),
    )
    runs.f = rhs(runs.t, runs.y, runs)
    runs.g_zero = runs.y[0] - zt
    runs.g_blow = bt - _max_abs(runs.y)
    fired = []  # per lockstep iteration: the steps in which an event fired

    with np.errstate(all="ignore"):  # overflow and nan end a run, as in scipy
        runs.h_abs = _initial_step(rhs, runs, r_max - r_start, rtol, atol)
        while runs.index.size:
            t, y = runs.t, runs.y
            min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
            h_abs = np.where(runs.h_abs < min_step, min_step, runs.h_abs)
            failed = runs.retry & (runs.h_abs < min_step)
            t_new = t + h_abs
            t_new = np.where(t_new > r_max, r_max, t_new)
            h = t_new - t
            stages = [runs.f]
            for c, coeffs in zip(_DP_C, _DP_A):
                stages.append(rhs(t + c * h, y + _combine(coeffs, stages) * h, runs))
            y_new = y + h * _combine(_DP_B, stages)
            f_new = rhs(t + h, y_new, runs)
            stages.append(f_new)
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            error = _rms(_combine(_DP_E, stages) * h / scale)

            # step control, no growth right after a rejection; the
            # comparisons keep the nan behaviour of Python's min and max
            accepted = (error < 1) & ~failed
            factor = _SAFETY * error**_ERROR_EXPONENT
            grow = np.where(factor < _MAX_FACTOR, factor, _MAX_FACTOR)
            grow = np.where(error == 0, _MAX_FACTOR, grow)
            grow = np.where(runs.retry & ~(grow < 1), 1.0, grow)
            shrink = np.where(factor > _MIN_FACTOR, factor, _MIN_FACTOR)
            runs.h_abs = h * np.where(accepted, grow, shrink)
            runs.retry = ~accepted

            g_zero = y_new[0] - zt
            g_blow = bt - _max_abs(y_new)
            fire_zero = accepted & (runs.g_zero >= 0) & (g_zero <= 0)
            fire_blow = accepted & (runs.g_blow >= 0) & (g_blow <= 0)
            event = fire_zero | fire_blow
            if event.any():
                at = [stage[:, event] for stage in stages]
                dense = np.stack([_combine(row, at) for row in _DP_P])
                fired.append(
                    (runs.index[event], t[event], t_new[event], y[:, event], dense,
                     fire_zero[event], fire_blow[event])
                )
            excursion = np.maximum(runs.moved, np.abs(y_new[0] - runs.u0))
            runs.moved = np.where(accepted, excursion, runs.moved)
            runs.t = np.where(accepted, t_new, t)
            runs.y = np.where(accepted, y_new, y)
            runs.f = np.where(accepted, f_new, runs.f)
            runs.g_zero = np.where(accepted, g_zero, runs.g_zero)
            runs.g_blow = np.where(accepted, g_blow, runs.g_blow)

            finished = accepted & ~event & (t_new >= r_max)
            done = event | finished | failed
            if not done.any():
                continue
            kind[runs.index[finished]] = _REACHED
            r_end[runs.index[finished]] = r_max
            moved[runs.index[done]] = runs.moved[done] / runs.u0[done]
            # a failing step close to the blow-up threshold is a blow-up
            blown = _max_abs(runs.y[:, failed]) >= 0.99 * bt
            kind[runs.index[failed]] = np.where(blown, _BLOW, _FAILED)
            r_end[runs.index[failed]] = runs.t[failed]
            _keep(runs, ~done)

        if fired:
            index, *step, fire_zero, fire_blow = (
                np.concatenate(part, axis=-1) for part in zip(*fired)
            )
            r_zero = _event_root(lambda y: y[0] - zt, step, fire_zero)
            r_blow = _event_root(lambda y: bt - _max_abs(y), step, fire_blow)
            hit = r_zero <= r_blow
            kind[index] = np.where(hit, _ZERO, _BLOW)
            r_end[index] = np.where(hit, r_zero, r_blow)

    kind[r_end <= r_start] = _FAILED  # collapsed span: nothing was integrated
    return _KIND_NAMES[kind], r_end, moved


def _initial_step(rhs, runs, interval, rtol, atol):
    """scipy's select_initial_step (Hairer, Norsett & Wanner II.4), per run."""
    t0, y0, f0 = runs.t, runs.y, runs.f
    scale = atol + np.abs(y0) * rtol
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    h0 = np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1)
    h0 = np.where(interval < h0, interval, h0)
    f1 = rhs(t0 + h0, y0 + h0 * f0, runs)
    d2 = _rms((f1 - f0) / scale) / h0
    h1 = np.where(
        (d1 <= 1e-15) & (d2 <= 1e-15),
        np.maximum(1e-6, h0 * 1e-3),
        (0.01 / np.maximum(d1, d2)) ** (1 / 5),
    )
    return np.minimum(np.minimum(100 * h0, h1), interval)


def _event_root(g, step, fires):
    """Root of g(y(t)) inside each step where it fired, inf elsewhere.

    g >= 0 at the step's start and g <= 0 at its end.  Each bracket is
    halved on its step's dense-output polynomial until it is narrower than
    scipy's event tolerance 4 eps (1 + |t|), and then left alone, so a
    root does not depend on the other brackets."""
    t_old, t_new, y_old, q = (part[..., fires] for part in step)
    h = t_new - t_old
    lo, hi = t_old, t_new
    while True:
        wide = hi - lo > 4 * _EPS * (1 + np.abs(hi))
        if not wide.any():
            break
        mid = 0.5 * (lo + hi)
        x = (mid - t_old) / h
        x2 = x * x
        x3 = x2 * x
        y = h * (q[0] * x + q[1] * x2 + q[2] * x3 + q[3] * (x3 * x)) + y_old
        above = g(y) > 0
        lo = np.where(wide & above, mid, lo)
        hi = np.where(wide & ~above, mid, hi)
    roots = np.full(fires.shape, np.inf)
    roots[fires] = 0.5 * (lo + hi)
    return roots


def _residual_mask(solution, du_fd, rel_change, max_step_change):
    """Retained samples for residual checks: inside the central exclusion
    band, with complete FD stencils, nondegenerate gradient for p < 2, and
    resolvable on the grid (relative change per grid step capped, which
    drops the unresolvable tail next to a zero hit or a blow-up)."""
    r = solution.r
    h = r[1] - r[0]
    band = min(0.02 * solution.config.r_max, 0.25 * solution.r_end)
    mask = (r > band) & np.isfinite(du_fd)
    mask &= rel_change * h <= max_step_change
    if solution.params.p < 2:
        mask &= du_fd != 0
    return mask


def pde_residual(solution: RadialSolution) -> float:
    """Max relative residual of the original equation on the resampled grid.

    u' and u'' are rebuilt from (r, u) alone by 4th-order central
    differences, so this is an independent verification of the profile, not
    of the solver's own flux variable.  The residual is normalized by the
    largest source magnitude max |a| u^sigma over retained samples.
    """
    if len(solution.r) < 5:
        raise ParameterError("pde_residual needs at least 5 samples")
    p, a, sig = solution.params.p, solution.params.a, solution.params.sigma
    n = solution.params.n
    r, u = solution.r, solution.u
    h = r[1] - r[0]
    du = fd4_first(u, h)
    d2u = fd4_second(u, h)
    mask = _residual_mask(solution, du, np.abs(solution.du) / u, 0.02)
    if not np.any(mask):
        raise ParameterError("no samples retained for the residual check")
    rm, um, dum, d2um = r[mask], u[mask], du[mask], d2u[mask]
    lam = warp_log_derivative(solution.space, rm)
    with np.errstate(divide="ignore", invalid="ignore"):
        plap = np.abs(dum) ** (p - 2) * ((p - 1) * d2um + (n - 1) * lam * dum)
    plap = np.where(dum == 0, 0.0 if p != 2 else d2um, plap)
    source = a * um**sig
    scale = np.max(np.abs(source))
    return float(np.max(np.abs(plap + source)) / scale)


def to_log_solution(solution: RadialSolution) -> LogSolution:
    """Pointwise log-transform of a positive profile.

    Also re-verifies the transformed equation

        div(|v'|^(p-2) v') + |v'|^p + a (p-1)^(p-1) e^((sigma/(p-1)-1) v) = 0

    by finite differences on v alone; the normalized residual is recorded on
    the returned object.
    """
    if np.any(solution.u <= 0):
        raise ParameterError("log transform requires u > 0 on all samples")
    p, a, sig, n = (
        solution.params.p,
        solution.params.a,
        solution.params.sigma,
        solution.params.n,
    )
    v = (p - 1) * np.log(solution.u)
    dv = (p - 1) * solution.du / solution.u
    f = np.abs(dv) ** p
    hsrc = (p - 1) ** (p - 1) * np.exp((sig / (p - 1) - 1) * v)

    r = solution.r
    hstep = r[1] - r[0]
    dv_fd = fd4_first(v, hstep)
    d2v_fd = fd4_second(v, hstep)
    # the log profile is singular at a zero hit, so its grid change per step
    # must stay well below the u-profile cap for the 4th-order stencil
    mask = _residual_mask(solution, dv_fd, np.abs(dv), 0.01)
    resid = math.nan
    if np.any(mask):
        rm, dvm, d2vm = r[mask], dv_fd[mask], d2v_fd[mask]
        lam = warp_log_derivative(solution.space, rm)
        with np.errstate(divide="ignore", invalid="ignore"):
            plap_v = np.abs(dvm) ** (p - 2) * ((p - 1) * d2vm + (n - 1) * lam * dvm)
        plap_v = np.where(dvm == 0, 0.0 if p != 2 else d2vm, plap_v)
        full = plap_v + np.abs(dvm) ** p + a * hsrc[mask]
        scale = np.max(np.abs(a * hsrc[mask]))
        resid = float(np.max(np.abs(full)) / scale)

    return LogSolution(
        params=solution.params,
        space=solution.space,
        r=r,
        v=v,
        dv=dv,
        f=f,
        h=hsrc,
        transformed_residual=resid,
    )


def first_zero(solution: RadialSolution) -> float | None:
    """Event-refined zero-hit radius, or None if the run did not hit zero."""
    if solution.termination.kind == "hit_zero":
        return solution.termination.r
    return None


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
# CSV serialization: '#'-prefixed key=value metadata, then one row per sample

_FLOAT_FMT = "{:.17g}"


@contextmanager
def _opened(path_or_file, mode):
    """Open a path for the block and close it after; pass an open file through."""
    if isinstance(path_or_file, (str, bytes)) or hasattr(path_or_file, "__fspath__"):
        with open(path_or_file, mode) as fh:
            yield fh
    else:
        yield path_or_file


def write_solution_csv(solution: RadialSolution, path_or_file) -> None:
    """Write a solution as CSV with metadata comment lines.

    Decimal output carries 17 significant digits, enough to round-trip
    float64 exactly.
    """
    with _opened(path_or_file, "w") as fh:
        meta = {}
        meta.update(solution.params.to_dict())
        meta.update(solution.space.to_dict())
        meta.update(solution.config.to_dict())
        meta["termination"] = solution.termination.kind
        meta["termination_r"] = solution.termination.r
        meta["termination_detail"] = json.dumps(solution.termination.detail)
        for key, value in meta.items():
            if isinstance(value, float):
                value = _FLOAT_FMT.format(value)
            fh.write(f"# {key}={value}\n")
        fh.write("r,u,du,w\n")
        for row in zip(solution.r, solution.u, solution.du, solution.w):
            fh.write(",".join(_FLOAT_FMT.format(x) for x in row) + "\n")


def read_solution_csv(path_or_file) -> RadialSolution:
    """Parse a solution CSV written by write_solution_csv."""
    with _opened(path_or_file, "r") as fh:
        meta = {}
        header = None
        rows = []
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if "=" not in body:
                    raise SolutionFormatError(f"malformed metadata line: {line!r}")
                key, _, value = body.partition("=")
                meta[key.strip()] = value.strip()
            elif header is None:
                header = line
                if header != "r,u,du,w":
                    raise SolutionFormatError(f"unexpected column header: {header!r}")
            else:
                parts = line.split(",")
                if len(parts) != 4:
                    raise SolutionFormatError(f"malformed data row: {line!r}")
                try:
                    rows.append([float(x) for x in parts])
                except ValueError as exc:
                    raise SolutionFormatError(f"non-numeric data row: {line!r}") from exc
        if header is None or not rows:
            raise SolutionFormatError("no data rows found")
        try:
            params = EquationParams(
                n=int(meta["n"]),
                p=float(meta["p"]),
                a=float(meta["a"]),
                sigma=float(meta["sigma"]),
            )
            space = ModelSpace(n=int(meta["n"]), K=float(meta["K"]))
            config = ShootingConfig(
                u0=float(meta["u0"]),
                r_max=float(meta["r_max"]),
                abs_tol=float(meta["abs_tol"]),
                rel_tol=float(meta["rel_tol"]),
                zero_threshold=float(meta["zero_threshold"]),
                blowup_threshold=float(meta["blowup_threshold"]),
                min_step=float(meta["min_step"]),
                output_points=int(meta["output_points"]),
            )
            termination = Termination(
                kind=meta["termination"],
                r=float(meta["termination_r"]),
                detail=json.loads(meta.get("termination_detail", "{}")),
            )
        except (KeyError, ValueError) as exc:
            raise SolutionFormatError(f"bad or missing metadata: {exc}") from exc
        data = np.asarray(rows, dtype=float)
        try:
            return RadialSolution(
                params=params,
                space=space,
                config=config,
                r=data[:, 0],
                u=data[:, 1],
                du=data[:, 2],
                w=data[:, 3],
                termination=termination,
            )
        except ParameterError as exc:
            raise SolutionFormatError(str(exc)) from exc
