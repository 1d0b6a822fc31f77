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

import math
from dataclasses import replace

import numpy as np

from .errors import ParameterError
from .geometry import ModelSpace, _log_warp
from .solution import (
    _B_ROWS,
    _DP_A,
    _DP_B,
    _DP_C,
    _DP_E,
    _E_ROWS,
    _EPS,
    _STAGE_C,
    RadialSolution,
    ShootingConfig,
    Termination,
    _dense_coefficients,
    _dense_output,
    _dimension,
    _inner_stages,
    _rhs,
    _run_limits,
    _series_u,
    _series_w,
    _stage_sum,
)
from .thresholds import EquationParams


# How a run ends, in both steppers: a run is inside while both event functions
# are > 0 (false on nan; a start that is not is past its event, which can no
# longer fire), and an event fires in the step in which its function goes from
# >= 0 to <= 0.  Elementwise on arrays; on floats, with maximum=_float_maximum.
def _zero_event(u, zt):
    return u - zt


def _blowup_event(u, w, bt, maximum=np.maximum):
    return bt - maximum(abs(u), abs(w))


def _float_maximum(x, y):
    """np.maximum on two floats: the larger, nan if either is nan."""
    return x if x >= y or x != x else y


def _blew_up(u, w, bt, maximum=np.maximum):
    """Whether a step failing from (u, w), close to the threshold, is a blow-up."""
    return _blowup_event(u, w, 0.99 * bt, maximum) <= 0


def solve_radial(
    params: EquationParams, space: ModelSpace, config: ShootingConfig
) -> RadialSolution:
    """Integrate the radial profile from the regular center outward.

    Starts from a power series at the start radius of _run_limits and
    advances one run with a scalar Dormand-Prince 5(4) loop on Python
    floats: the scheme, error norm, initial step, step control and dense
    output (_dense_coefficients) of scipy's RK45, which shoot_batch also
    reproduces for many runs at once (solve_radial keeps the profile,
    shoot_batch does not).  The run ends as shoot_batch's does, by the
    shared rules _zero_event, _blowup_event and _blew_up.  A terminal event
    is located on the final step in Python floats, by _step_event, the
    bisection shoot_batch applies to its numpy arrays, on the dense output
    of the stepper's own stages; the steps leading there are computed apart,
    so the two radii agree to rounding, not bitwise.  The run keeps only its
    nodes, the state at the start and at each accepted step's full end: its
    profile, the steps' C^1 dense output on _OUTPUT_POINTS uniform samples
    on [0, r_end], is _profile_from_nodes of them, built on first read, as
    the CSV reader's is.  With no accepted step the run ends as step_failure
    at r_start, and its profile is the series start on [0, r_start].

    Raises ParameterError when params and space disagree on n, when r_max
    is so small that the series start underflows to 0, and when the series
    start is not inside (_zero_event or _blowup_event is not > 0).
    """
    n = _dimension(params, space)
    p, a, sig = params.p, params.a, params.sigma
    inv_pm1 = 1.0 / (p - 1.0)
    r_max, u0 = config.r_max, config.u0
    zt, bt = config.zero_threshold, config.blowup_threshold
    rtol, atol, u_floor, r_start = _run_limits(config)
    log_warp = _log_warp(space.K, math.tanh)
    # bound once per run: -a * x is (-a) * x and (n - 1) * l * w is ((n - 1) * l) * w
    neg_a, n_m1 = -a, n - 1

    def rhs(r, u, w):
        u_eff = u if u > u_floor else u_floor
        try:
            du = math.copysign(abs(w) ** inv_pm1, w)
            dw = neg_a * u_eff**sig - n_m1 * log_warp(r) * w
        except OverflowError:  # where numpy gives inf; either way the step is rejected
            return math.nan, math.nan
        return du, dw

    def rhs_columns(t, y):
        return np.array(rhs(t[0], y[0, 0], y[1, 0]))[:, None]

    t = r_start
    try:
        u, w = float(_series_u(p, a, sig, n, u0, t)), float(_series_w(a, sig, n, u0, t))
    except OverflowError:  # u0**sigma beyond the float range
        u = w = math.nan
    g_zero, g_blow = _zero_event(u, zt), _blowup_event(u, w, bt, _float_maximum)
    if not (g_zero > 0 and g_blow > 0):
        raise ParameterError(
            f"series start at r = {r_start} (u = {u}, w = {w}) is past the zero or "
            f"blow-up event (zero_threshold = {zt}, blowup_threshold = {bt}); "
            "check the configuration"
        )
    ku1, kw1 = rhs(t, u, w)
    start = (np.array([t]), np.array([[u], [w]]), np.array([[ku1], [kw1]]))
    with np.errstate(all="ignore"):  # an overflowing stage gives a nan step, which fails
        h_abs = float(_initial_step(rhs_columns, *start, r_max - r_start, rtol, atol)[0])

    c2, c3, c4, c5, c6 = _DP_C
    (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54), (a61, a62, a63, a64, a65) = _DP_A
    # the second stage has weight zero in the solution and in the error
    b1, _, b3, b4, b5, b6 = _DP_B
    e1, _, e3, e4, e5, e6, e7 = _DP_E
    retry = False  # the last attempt was rejected
    failed = fire_zero = fire_blow = False
    nodes = [(t, u, w)]  # the start and each accepted step's end
    while True:
        h_floor = 10 * (math.nextafter(t, math.inf) - t)
        if not h_abs >= h_floor:  # a nan step is below the floor too
            if retry:
                failed = True
                break
            h_abs = h_floor
        t_new = t + h_abs
        if t_new > r_max:
            t_new = r_max
        h = t_new - t
        ku2, kw2 = rhs(t + c2 * h, u + (a21 * ku1) * h, w + (a21 * kw1) * h)
        ku3, kw3 = rhs(
            t + c3 * h, u + (a31 * ku1 + a32 * ku2) * h, w + (a31 * kw1 + a32 * kw2) * h
        )
        ku4, kw4 = rhs(
            t + c4 * h,
            u + (a41 * ku1 + a42 * ku2 + a43 * ku3) * h,
            w + (a41 * kw1 + a42 * kw2 + a43 * kw3) * h,
        )
        ku5, kw5 = rhs(
            t + c5 * h,
            u + (a51 * ku1 + a52 * ku2 + a53 * ku3 + a54 * ku4) * h,
            w + (a51 * kw1 + a52 * kw2 + a53 * kw3 + a54 * kw4) * h,
        )
        ku6, kw6 = rhs(
            t + c6 * h,
            u + (a61 * ku1 + a62 * ku2 + a63 * ku3 + a64 * ku4 + a65 * ku5) * h,
            w + (a61 * kw1 + a62 * kw2 + a63 * kw3 + a64 * kw4 + a65 * kw5) * h,
        )
        u_new = u + h * (b1 * ku1 + b3 * ku3 + b4 * ku4 + b5 * ku5 + b6 * ku6)
        w_new = w + h * (b1 * kw1 + b3 * kw3 + b4 * kw4 + b5 * kw5 + b6 * kw6)
        ku7, kw7 = rhs(t + h, u_new, w_new)
        err_u = (e1 * ku1 + e3 * ku3 + e4 * ku4 + e5 * ku5 + e6 * ku6 + e7 * ku7) * h
        err_w = (e1 * kw1 + e3 * kw3 + e4 * kw4 + e5 * kw5 + e6 * kw6 + e7 * kw7) * h
        err_u /= atol + max(abs(u), abs(u_new)) * rtol
        err_w /= atol + max(abs(w), abs(w_new)) * rtol
        error = math.sqrt(err_u * err_u + err_w * err_w) / 2**0.5

        # step control as scipy's, with Python's min and max on nan
        if not error < 1:
            h_abs = h * max(_MIN_FACTOR, _SAFETY * error**_ERROR_EXPONENT)
            retry = True
            continue
        factor = _MAX_FACTOR if error == 0 else min(_MAX_FACTOR, _SAFETY * error**_ERROR_EXPONENT)
        h_abs = h * (min(1, factor) if retry else factor)
        retry = False
        g_zero_new = _zero_event(u_new, zt)
        g_blow_new = _blowup_event(u_new, w_new, bt, _float_maximum)
        fire_zero = g_zero >= 0 and g_zero_new <= 0
        fire_blow = g_blow >= 0 and g_blow_new <= 0
        if fire_zero or fire_blow:  # the stepper's own stages locate the event
            stages = (ku1, kw1, ku3, kw3, ku4, kw4, ku5, kw5, ku6, kw6, ku7, kw7)
            q = _dense_coefficients(np.reshape(stages, (6, 2, 1)))[..., 0].tolist()
            hit, r_event = _step_event((t, t_new, (u, w), q), fire_zero, fire_blow, zt, bt)
        t, u, w, ku1, kw1 = t_new, u_new, w_new, ku7, kw7
        nodes.append((t, u, w))
        if fire_zero or fire_blow or t >= r_max:
            break
        g_zero, g_blow = g_zero_new, g_blow_new

    if len(nodes) == 1:  # nothing was integrated: a step failure at the start
        termination = Termination("step_failure", r_start)
    elif failed:
        blown = _blew_up(u, w, bt, _float_maximum)
        termination = Termination("blow_up" if blown else "step_failure", t)
    elif fire_zero or fire_blow:
        termination = Termination("hit_zero" if hit else "blow_up", r_event)
    else:
        termination = Termination("reached_rmax", r_max)
    return RadialSolution(
        params=params,
        space=space,
        config=config,
        termination=termination,
        nodes=np.array(nodes).T,
    )


# ---------------------------------------------------------------------------
# Dormand-Prince 5(4) step control, shared by solve_radial's scalar loop and
# by shoot_batch, which advances many independent runs in lockstep with numpy.
# Error norm, initial step and step controller are those of scipy.integrate's
# RK45 (Hairer, Norsett & Wanner, Solving ODEs I, II.4), so both take scipy's
# step sequence; the tableau and dense output are in plaplab.solution.

_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_ERROR_EXPONENT = -1 / 5
_KIND_NAMES = np.asarray(Termination.KINDS)
_REACHED, _ZERO, _BLOW, _FAILED = range(4)  # positions in Termination.KINDS


def _rms(y):
    """scipy's RMS norm of each run's two-component vector (columns of y)."""
    squares = y * y
    return np.sqrt(squares[0] + squares[1]) / 2**0.5


def shoot_batch(params, u0, space: ModelSpace, config: ShootingConfig):
    """Shoot many radial runs at once: run i solves params[i] from center
    value u0[i] on ``space``, with ``config`` for everything but u0.

    The runs advance in lockstep, each with its own adaptive step, and
    leave the batch as they finish.  A lockstep step is a fixed sequence of
    numpy calls on arrays with one column per live run: the damping term
    at all six stage radii at once, one reduction per stage sum, and one
    masked copy that accepts the steps.  Runs end by the rules
    solve_radial shares: the events of _zero_event and _blowup_event are
    located on the dense-output polynomial of the step in which the event
    function changed sign, by bisection to scipy's 4 eps tolerance (the
    earlier wins when both fire in one step), and _blew_up tells a failed
    step's blow-up from a step failure.  No profile is kept.

    Returns three arrays with one entry per run: the termination kind (one
    of Termination.KINDS, as solve_radial classifies it, with a series
    start that solve_radial rejects reported as step_failure at radius 0),
    its radius, and the relative excursion |u - u0| / u0 of its last
    accepted state (0 with no accepted step): its largest, as u is monotone
    (by the flux identity (s^(n-1) w)' = -a u_eff^sigma s^(n-1), with
    u_eff = max(u, zero_threshold / 2) > 0, w has the sign of -a).

    Raises ParameterError when a parameter set and space disagree on n and
    when r_max is so small that the series start underflows to 0, and
    ShootingConfig's error for the first center value it rejects.
    """
    params = list(params)
    u0 = np.asarray(u0, dtype=float)
    if u0.shape != (len(params),):
        raise ParameterError("need one center value per parameter set")
    for prm in params:
        _dimension(prm, space)
    zt, bt = config.zero_threshold, config.blowup_threshold
    outside = ~((zt < u0) & (u0 < bt))
    if np.count_nonzero(outside):
        replace(config, u0=float(u0[outside][0]))  # raises ShootingConfig's error
    m = len(params)
    kind = np.full(m, _FAILED)
    r_end = np.zeros(m)
    u_end = u0.copy()  # u at each run's last accepted state, u0 before its first

    n, r_max = space.n, config.r_max
    rtol, atol, u_floor, r_start = _run_limits(config)
    p, a, sig = (np.array([getattr(x, k) for x in params]) for k in ("p", "a", "sigma"))

    log_warp = _log_warp(space.K)

    fired = []  # per lockstep iteration: the steps in which an event fired
    with np.errstate(all="ignore"):  # overflow and nan end a run, as in scipy
        y0 = np.stack((_series_u(p, a, sig, n, u0, r_start), _series_w(a, sig, n, u0, r_start)))
        # a start that solve_radial rejects is a step failure at radius 0
        g0 = np.stack((_zero_event(y0[0], zt), _blowup_event(*y0, bt)))
        index = np.flatnonzero(np.all(g0 > 0, axis=0))
        consts, y0, g0 = np.stack((-a, sig, 1.0 / (p - 1.0)))[:, index], y0[:, index], g0[:, index]
        t0 = np.full(index.size, r_start)

        def rhs_at(t, y):
            return _rhs(y, (n - 1) * log_warp(t), consts, u_floor, np.empty_like(y))

        f0 = rhs_at(t0, y0)
        h0 = _initial_step(rhs_at, t0, y0, f0, r_max - r_start, rtol, atol)
        # one column per live run, one row per quantity: t, u, w, u', w', the zero and
        # blow-up functions, the step size, -a, sigma, 1/(p-1).  Rows 0-6 are what an
        # accepted step replaces, so accepting steps and dropping runs are one call each
        state = np.vstack((t0, y0, f0, g0, h0, consts))
        retry = np.zeros(index.size, dtype=bool)  # the last attempt was rejected
        while index.size:
            t, y, f, g = state[0], state[1:3], state[3:5], state[5:7]  # g: zero, blow-up
            h_abs, consts = state[7], tuple(state[8:11])
            new = np.empty((7, index.size))  # rows 0-6 of state after the step
            h_floor = 10 * np.spacing(t)
            below = ~(h_abs >= h_floor)  # a nan step is below the floor too
            failed = retry & below
            t_new = np.minimum(t + np.fmax(h_abs, h_floor), r_max, out=new[0])
            h = t_new - t
            damping = (n - 1) * log_warp(t + _STAGE_C * h)
            stages = np.empty((7, *y.shape))  # k2, k1, k3, ..., k7
            stages[1] = f
            _inner_stages(stages, y, h, damping, consts, u_floor)
            y_new = np.add(y, h * _stage_sum(_B_ROWS, stages[1:6]), out=new[1:3])
            new[3:5] = _rhs(y_new, damping[5], consts, u_floor, stages[6])
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            error = _rms(_stage_sum(_E_ROWS, stages[1:]) * h / scale)

            # step control, no growth right after a rejection; fmin and fmax
            # clamp a nan factor as Python's min and max do in solve_radial,
            # and error 0 gives an infinite factor, clamped to _MAX_FACTOR
            accepted = (error < 1) & ~failed
            factor = _SAFETY * error**_ERROR_EXPONENT
            grow = np.fmin(factor, np.where(retry, 1.0, _MAX_FACTOR))
            np.multiply(h, np.where(accepted, grow, np.fmax(factor, _MIN_FACTOR)), out=h_abs)
            retry = ~accepted

            new[5] = _zero_event(y_new[0], zt)
            new[6] = _blowup_event(*y_new, bt)
            fire = accepted & (g >= 0) & (new[5:7] <= 0)
            event = fire[0] | fire[1]
            if np.count_nonzero(event):
                fired.append(
                    (index[event], t[event], t_new[event], y[:, event], stages[1:, :, event],
                     fire[:, event])
                )
            np.copyto(state[:7], new, where=accepted)

            finished = accepted & ~event & (t_new >= r_max)
            done = event | finished | failed
            if not np.count_nonzero(done):
                continue
            kind[index[finished]] = _REACHED
            r_end[index[finished]] = r_max
            u_end[index[done]] = y[0, done]  # y is the last accepted state
            if np.count_nonzero(failed):
                blown = _blew_up(*y[:, failed], bt)
                kind[index[failed]] = np.where(blown, _BLOW, _FAILED)
                r_end[index[failed]] = t[failed]
            keep = ~done
            state, index, retry = state[:, keep], index[keep], retry[keep]

        if fired:
            index, t_old, t_new, y_old, at, fire = (
                np.concatenate(part, axis=-1) for part in zip(*fired)
            )
            step = (t_old, t_new, y_old, _dense_coefficients(at))
            hit, r_end[index] = _first_event(step, *fire, zt, bt)
            kind[index] = np.where(hit, _ZERO, _BLOW)

    no_step = r_end <= r_start  # no accepted step: a step failure at the start
    kind[no_step], u_end[no_step] = _FAILED, u0[no_step]
    return _KIND_NAMES[kind], r_end, np.abs(u_end - u0) / u0


def _initial_step(rhs, t0, y0, f0, interval, rtol, atol):
    """scipy's select_initial_step (Hairer, Norsett & Wanner II.4), per run."""
    scale = atol + np.abs(y0) * rtol
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    h0 = np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1)
    h0 = np.where(interval < h0, interval, h0)
    f1 = rhs(t0 + h0, y0 + h0 * f0)
    d2 = _rms((f1 - f0) / scale) / h0
    h1 = np.where(
        (d1 <= 1e-15) & (d2 <= 1e-15),
        np.maximum(1e-6, h0 * 1e-3),
        (0.01 / np.maximum(d1, d2)) ** (1 / 5),
    )
    return np.minimum(np.minimum(100 * h0, h1), interval)


def _first_event(step, fire_zero, fire_blow, zt, bt):
    """(hit_zero, radius) for each step in which an event fired: the
    earlier root of the zero and the blow-up event, the zero on a tie.
    step = (t_old, t_new, y_old, Q); the zero event is located on u alone."""
    t_old, t_new, y_old, q = step
    r_zero = _event_root(lambda u: _zero_event(u, zt), (t_old, t_new, y_old[0], q[:, 0]), fire_zero)
    r_blow = _event_root(lambda y: _blowup_event(*y, bt), step, fire_blow)
    hit = r_zero <= r_blow
    return hit, np.where(hit, r_zero, r_blow)


def _event_root(g, step, fires):
    """Root of g(y(t)) inside each step where it fired, inf elsewhere.

    g >= 0 at the step's start and g <= 0 at its end.  Each bracket is
    halved on its step's dense-output polynomial until it is narrower than
    scipy's event tolerance 4 eps (1 + |t|), and then left alone, so a
    root does not depend on the other brackets."""
    roots = np.full(fires.shape, np.inf)
    if not np.count_nonzero(fires):
        return roots
    lo, hi, y_old, q = (part[..., fires] for part in step)
    polynomial = (lo, hi - lo, y_old, q)
    while True:
        wide = hi - lo > 4 * _EPS * (1 + np.abs(hi))
        if not np.count_nonzero(wide):
            break
        mid = 0.5 * (lo + hi)
        raise_lo = wide & (g(_dense_output(polynomial, mid)) > 0)
        lo = np.where(raise_lo, mid, lo)
        hi = np.where(wide ^ raise_lo, mid, hi)
    roots[fires] = 0.5 * (lo + hi)
    return roots


def _step_event(step, fire_zero, fire_blow, zt, bt):
    """_first_event for one step on Python floats: (hit_zero, radius).

    step = (t_old, t_new, (u_old, w_old), q) with q[j] = (Q_j of u, Q_j of
    w).  It bisects as _event_root does, on _dense_output of u for
    _zero_event and of (u, w) for _blowup_event (with _float_maximum,
    np.maximum's nan rule), so the radius equals _first_event's bit for
    bit; only numpy's per-call cost on one-element arrays is gone."""
    t_old, t_new, y_old, q = step
    # each component's (t_old, h, y_old, Q) for _dense_output
    polys = [(t_old, t_new - t_old, y, q_c) for y, q_c in zip(y_old, zip(*q))]

    def root(g, components):
        lo, hi = t_old, t_new
        while hi - lo > 4 * _EPS * (1 + abs(hi)):
            mid = 0.5 * (lo + hi)
            if g(*[_dense_output(poly, mid) for poly in components]) > 0:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    r_zero = root(lambda u: _zero_event(u, zt), polys[:1]) if fire_zero else math.inf
    r_blow = root(lambda *y: _blowup_event(*y, bt, _float_maximum), polys) if fire_blow else math.inf
    hit = r_zero <= r_blow
    return hit, r_zero if hit else r_blow

