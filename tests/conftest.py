import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import plaplab as pl
from plaplab.errors import ParameterError
from plaplab.solution import _OUTPUT_POINTS, _SERIES_FRACTION, _series_u, _series_w


def run_bounded(*argv, timeout=60):
    """Run python with argv and plaplab from this checkout, in a subprocess
    that a hang cannot outlive."""
    env = dict(os.environ)
    src = str(Path(pl.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *argv], env=env, capture_output=True, text=True, timeout=timeout
    )


@pytest.fixture(scope="session")
def flat3():
    return pl.ModelSpace(n=3, K=0.0)


@pytest.fixture(scope="session")
def sinc_solution(flat3):
    """Oracle instance: n=3, p=2, a=1, sigma=1, K=0 has u = sin(r)/r."""
    params = pl.EquationParams(n=3, p=2.0, a=1.0, sigma=1.0)
    config = pl.ShootingConfig(u0=1.0, r_max=4.0)
    return pl.solve_radial(params, flat3, config)


@pytest.fixture(scope="session")
def sinc_log(sinc_solution):
    return pl.to_log_solution(sinc_solution)


def sinc(r):
    r = np.asarray(r, dtype=float)
    out = np.ones_like(r)
    m = r > 0
    out[m] = np.sin(r[m]) / r[m]
    return out


@pytest.fixture(scope="session")
def hyperbolic_p2():
    """Oracle instances at K > 0: the function (r, a, K) -> u(r) for the
    solution with u(0) = 1 of Delta u + a u = 0 (n = 3, p = 2, sigma = 1) on
    the hyperbolic space of curvature -K.

    At K = 1 (H^3, s = sinh r) a radial v has Delta (v / sinh r) =
    (v'' - v) / sinh r, so u = sin(k r)/(k sinh r) with k = sqrt(a - 1) for
    a > 1 (first zero pi/k), r/sinh r for a = 1, the bottom of the spectrum,
    and sinh(k r)/(k sinh r) with k = sqrt(1 - a) for a < 1, positive for
    all r.  Other K follow by scaling r by sqrt(K) and a by K."""

    def u(r, a, K):
        rho = math.sqrt(K) * np.asarray(r, dtype=float)
        alpha = a / K
        out = np.ones_like(rho)
        m = rho > 0
        x = rho[m]
        if alpha > 1:
            k = math.sqrt(alpha - 1)
            out[m] = np.sin(k * x) / (k * np.sinh(x))
        elif alpha < 1:
            k = math.sqrt(1 - alpha)
            out[m] = np.sinh(k * x) / (k * np.sinh(x))
        else:
            out[m] = x / np.sinh(x)
        return out

    return u


def scipy_reference(params, space, config):
    """solve_radial as scipy's solve_ivp (RK45, dense output, terminal
    events) computes it: the oracle for the in-house steppers.  Same
    arguments, result and errors as pl.solve_radial."""
    if params.n != space.n:
        raise ParameterError(
            f"dimension mismatch: params.n = {params.n}, space.n = {space.n}"
        )
    p, a, sig, n = params.p, params.a, params.sigma, params.n
    inv_pm1 = 1.0 / (p - 1.0)
    r_start = _SERIES_FRACTION * config.r_max
    u0 = config.u0
    y0 = [_series_u(p, a, sig, n, u0, r_start), _series_w(a, sig, n, u0, r_start)]
    zt, bt = config.zero_threshold, config.blowup_threshold
    if not (zt < y0[0] and abs(y0[0]) < bt and abs(y0[1]) < bt):
        raise ParameterError(f"series start {y0} at r = {r_start} is past an event")
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

    accepted = len(sol.t) > 1
    if not accepted:  # nothing was integrated: a step failure at the start
        termination = pl.Termination("step_failure", r_start)
    elif sol.status == 1:
        if len(sol.t_events[0]):
            termination = pl.Termination("hit_zero", float(sol.t_events[0][0]))
        else:
            termination = pl.Termination("blow_up", float(sol.t_events[1][0]))
    elif sol.status == 0:
        termination = pl.Termination("reached_rmax", config.r_max)
    else:
        r_fail = float(sol.t[-1])
        u_last, w_last = float(sol.y[0, -1]), float(sol.y[1, -1])
        blew_up = max(abs(u_last), abs(w_last)) >= 0.99 * config.blowup_threshold
        termination = pl.Termination("blow_up" if blew_up else "step_failure", r_fail)

    # uniform resample straight from the integrator's continuous extension:
    # it is C^1 across steps, so downstream finite differences on the uniform
    # grid see only the (smooth, tolerance-sized) integration error; with no
    # step, every sample takes the series
    rs = np.linspace(0.0, termination.r, _OUTPUT_POINTS)
    u = np.empty_like(rs)
    w = np.empty_like(rs)
    head = rs < (r_start if accepted else math.inf)
    u[head] = _series_u(p, a, sig, n, u0, rs[head])
    w[head] = _series_w(a, sig, n, u0, rs[head])
    if accepted:
        u[~head], w[~head] = sol.sol(rs[~head])

    return pl.RadialSolution(
        params=params,
        space=space,
        config=config,
        u=u,
        w=w,
        termination=termination,
    )

