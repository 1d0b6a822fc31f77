"""Shooting solver: closed-form oracles, symmetry identities, serialization."""

import io
import math

import numpy as np
import pytest
from scipy.interpolate import PchipInterpolator

import plaplab as pl
from plaplab.errors import ParameterError, SolutionFormatError

from conftest import sinc


def relative_profile_gap(sol_a, sol_b, scale_u=1.0, scale_r=1.0, trim=0.98):
    """max_i |u_a(r_i) - scale_u u_b(scale_r r_i)| / (scale_u |u_b| + 1)."""
    r_hi = min(sol_a.r_end, sol_b.r_end / scale_r) * trim
    rs = np.linspace(0.0, r_hi, 800)
    ua = PchipInterpolator(sol_a.r, sol_a.u)(rs)
    ub = scale_u * PchipInterpolator(sol_b.r, sol_b.u)(scale_r * rs)
    return float(np.max(np.abs(ua - ub) / (np.abs(ub) + 1.0)))


# ---------------------------------------------------------------------------
# closed-form oracle: u = sin(r)/r


def test_sinc_profile(sinc_solution):
    mask = sinc_solution.r <= 3.0
    err = np.max(np.abs(sinc_solution.u[mask] - sinc(sinc_solution.r[mask])))
    assert err < 1e-6
    assert sinc_solution.termination.kind == "hit_zero"
    assert abs(sinc_solution.termination.r - math.pi) < 1e-4


def test_sinc_first_zero(sinc_solution):
    assert abs(pl.first_zero(sinc_solution) - math.pi) < 1e-4


def test_sinc_residual(sinc_solution):
    assert pl.pde_residual(sinc_solution) < 1e-5  # default-tolerance contract


def test_sinc_flux_identity(sinc_solution):
    assert pl.flux_residual(sinc_solution) < 1e-8


def test_weighted_cumulative_quadrature_exact_for_parabolas():
    """The flux quadrature integrates t^(n-1) times any parabola exactly."""
    from plaplab.solver import _cumulative_weighted_integral

    r = np.linspace(0.0, 2.0, 41)
    for n in (3, 4, 6):
        g = 3.0 + 2.0 * r - 1.5 * r**2
        got = _cumulative_weighted_integral(r, g, n)
        exact = (
            3.0 * r**n / n
            + 2.0 * r ** (n + 1) / (n + 1)
            - 1.5 * r ** (n + 2) / (n + 2)
        )
        assert np.max(np.abs(got - exact)) < 1e-13 * max(1.0, exact[-1])


def test_weighted_cumulative_quadrature_converges():
    """Fourth-order-like convergence on a smooth non-polynomial factor."""
    from scipy.integrate import quad

    from plaplab.solver import _cumulative_weighted_integral

    n = 4
    exact, _ = quad(lambda t: t ** (n - 1) * math.cos(t), 0.0, 2.0, epsrel=1e-13)
    errs = []
    for m in (41, 81):
        r = np.linspace(0.0, 2.0, m)
        got = _cumulative_weighted_integral(r, np.cos(r), n)
        errs.append(abs(got[-1] - exact))
    assert errs[1] < errs[0] / 6  # better than 2nd order under halving h


def test_flux_sign_consistency(sinc_solution):
    s = sinc_solution
    p = s.params.p
    assert np.all(np.sign(s.du) == np.sign(s.w))
    assert np.max(np.abs(np.abs(s.du) - np.abs(s.w) ** (1 / (p - 1)))) < 1e-10


def test_monotone_decrease_for_positive_a(sinc_solution):
    du = np.diff(sinc_solution.u)
    assert np.all(du <= 0)
    assert np.all(du[5:] < 0)


# ---------------------------------------------------------------------------
# blow-up oracle: independent fixed-step RK4 integrator


def rk4_blowup_radius(n, p, a, sig, u0, r_max, h=1e-5, cap=1e8):
    inv = 1.0 / (p - 1.0)

    def rhs(r, u, w):
        du = math.copysign(abs(w) ** inv, w)
        dw = -a * u**sig - (n - 1) * w / r
        return du, dw

    r = 1e-8
    u, w = u0, -a * u0**sig * r / n
    while r < r_max:
        try:
            k1 = rhs(r, u, w)
            k2 = rhs(r + h / 2, u + h / 2 * k1[0], w + h / 2 * k1[1])
            k3 = rhs(r + h / 2, u + h / 2 * k2[0], w + h / 2 * k2[1])
            k4 = rhs(r + h, u + h * k3[0], w + h * k3[1])
            u += h / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
            w += h / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        except OverflowError:
            return r
        r += h
        if not (math.isfinite(u) and math.isfinite(w)) or max(abs(u), abs(w)) >= cap:
            return r
    return None


def test_blowup_radius_against_fixed_step_oracle(flat3):
    params = pl.EquationParams(n=3, p=2.0, a=-1.0, sigma=3.0)
    sol = pl.solve_radial(params, flat3, pl.ShootingConfig(u0=1.0, r_max=5.0))
    assert sol.termination.kind == "blow_up"
    oracle = rk4_blowup_radius(3, 2.0, -1.0, 3.0, 1.0, 5.0)
    assert abs(sol.termination.r - oracle) < 1e-3
    assert pl.first_zero(sol) is None


def test_reached_rmax_has_no_zero(flat3):
    params = pl.EquationParams(n=3, p=2.0, a=1.0, sigma=5.0)
    sol = pl.solve_radial(params, flat3, pl.ShootingConfig(u0=1.0, r_max=10.0))
    assert sol.termination.kind == "reached_rmax"
    assert pl.first_zero(sol) is None


# ---------------------------------------------------------------------------
# symmetry identities


def test_center_value_scaling(flat3):
    """u0 = lam with coefficient a matches lam * (u0 = 1 run with the
    coefficient rescaled by lam^(sigma - (p-1)))."""
    p, a, sig, lam = 2.0, 1.0, 1.0, 2.0
    params = pl.EquationParams(n=3, p=p, a=a, sigma=sig)
    cfg = pl.ShootingConfig(u0=1.0, r_max=4.0)
    sol_lam = pl.solve_radial(
        params,
        flat3,
        pl.ShootingConfig(u0=lam, r_max=4.0, zero_threshold=1e-8 * lam),
    )
    rescaled = pl.EquationParams(n=3, p=p, a=a * lam ** (sig - (p - 1)), sigma=sig)
    sol_ref = pl.solve_radial(rescaled, flat3, cfg)
    assert relative_profile_gap(sol_lam, sol_ref, scale_u=lam) < 1e-8


def test_coefficient_scaling_by_residual_substitution(flat3):
    """lam * u must satisfy the equation with a rescaled by lam^(p-1-sigma):
    verified by substituting the scaled record into the FD residual."""
    from dataclasses import replace as dc_replace

    p, a, sig = 3.0, 1.0, 2.0
    params = pl.EquationParams(n=3, p=p, a=a, sigma=sig)
    sol = pl.solve_radial(
        params,
        flat3,
        pl.ShootingConfig(u0=1.0, r_max=4.0, rel_tol=1e-12, abs_tol=1e-13),
    )
    for lam in (0.5, 2.0):
        scaled = pl.RadialSolution(
            params=pl.EquationParams(n=3, p=p, a=a * lam ** (p - 1 - sig), sigma=sig),
            space=sol.space,
            config=dc_replace(sol.config, u0=lam * sol.config.u0,
                              zero_threshold=lam * sol.config.zero_threshold),
            r=sol.r,
            u=lam * sol.u,
            du=lam * sol.du,
            w=lam ** (p - 1) * sol.w,
            termination=sol.termination,
        )
        assert pl.pde_residual(scaled) < 1e-6


def test_euclidean_dilation(flat3):
    """u(mu r) solves the equation with the coefficient rescaled by mu^p."""
    params = pl.EquationParams(n=3, p=3.0, a=1.0, sigma=2.0)
    cfg = pl.ShootingConfig(u0=1.0, r_max=4.0)
    sol = pl.solve_radial(params, flat3, cfg)
    mu = 2.0
    dil = pl.EquationParams(n=3, p=3.0, a=mu**3.0, sigma=2.0)
    sol_mu = pl.solve_radial(dil, flat3, pl.ShootingConfig(u0=1.0, r_max=4.0 / mu))
    assert relative_profile_gap(sol_mu, sol, scale_r=mu) < 1e-7


def test_grid_refinement_convergence(flat3):
    params = pl.EquationParams(n=3, p=2.0, a=1.0, sigma=1.0)
    coarse = pl.solve_radial(params, flat3, pl.ShootingConfig(u0=1.0, r_max=4.0))
    fine_tol = 0.5e-9
    fine = pl.solve_radial(
        params,
        flat3,
        pl.ShootingConfig(u0=1.0, r_max=4.0, rel_tol=fine_tol, abs_tol=0.5e-10),
    )
    assert relative_profile_gap(coarse, fine, trim=0.999) < 10 * fine_tol


# ---------------------------------------------------------------------------
# log transform


def test_log_transform_inverts(sinc_solution, sinc_log):
    p = sinc_solution.params.p
    back = np.exp(sinc_log.v / (p - 1))
    assert np.max(np.abs(back - sinc_solution.u)) < 1e-12


def test_log_transform_exponential_profile(flat3):
    """Synthetic u = e^r at p = 2 gives v = r and f = 1 identically."""
    r = np.linspace(0.0, 2.0, 201)
    u = np.exp(r)
    syn = pl.RadialSolution(
        params=pl.EquationParams(n=3, p=2.0, a=1.0, sigma=1.0),
        space=flat3,
        config=pl.ShootingConfig(u0=1.0, r_max=2.0, output_points=201),
        r=r,
        u=u,
        du=u.copy(),
        w=u.copy(),
        termination=pl.Termination("reached_rmax", 2.0),
    )
    ls = pl.to_log_solution(syn)
    assert np.max(np.abs(ls.v - r)) < 1e-14
    assert np.max(np.abs(ls.f - 1.0)) < 1e-12


def test_log_gradient_closed_form(sinc_log):
    # v' = cot r - 1/r, so f(1) = (cot 1 - 1)^2
    expected = (1 / math.tan(1.0) - 1.0) ** 2
    f_at_1 = PchipInterpolator(sinc_log.r, sinc_log.f)(1.0)
    assert f_at_1 == pytest.approx(expected, abs=1e-7)


def test_log_transform_residual_contract(sinc_log):
    assert sinc_log.transformed_residual < 1e-4


def test_log_transform_rejects_nonpositive(flat3):
    r = np.linspace(0.0, 1.0, 11)
    u = np.linspace(1.0, -0.1, 11)
    syn = pl.RadialSolution(
        params=pl.EquationParams(n=3, p=2.0, a=1.0, sigma=1.0),
        space=flat3,
        config=pl.ShootingConfig(u0=1.0, r_max=1.0, output_points=11),
        r=r,
        u=u,
        du=np.zeros(11),
        w=np.zeros(11),
        termination=pl.Termination("reached_rmax", 1.0),
    )
    with pytest.raises(ParameterError):
        pl.to_log_solution(syn)


# ---------------------------------------------------------------------------
# residual on non-solutions


def test_constant_profile_is_not_a_solution(flat3):
    r = np.linspace(0.0, 2.0, 101)
    syn = pl.RadialSolution(
        params=pl.EquationParams(n=3, p=2.0, a=1.0, sigma=2.0),
        space=flat3,
        config=pl.ShootingConfig(u0=1.0, r_max=2.0, output_points=101),
        r=r,
        u=np.ones_like(r),
        du=np.zeros_like(r),
        w=np.zeros_like(r),
        termination=pl.Termination("reached_rmax", 2.0),
    )
    assert pl.pde_residual(syn) == pytest.approx(1.0, abs=1e-12)


def test_residual_needs_samples(flat3):
    r = np.linspace(0.0, 1.0, 4)
    syn = pl.RadialSolution(
        params=pl.EquationParams(n=3, p=2.0, a=1.0, sigma=2.0),
        space=flat3,
        config=pl.ShootingConfig(u0=1.0, r_max=1.0, output_points=5),
        r=r,
        u=np.ones_like(r),
        du=np.zeros_like(r),
        w=np.zeros_like(r),
        termination=pl.Termination("reached_rmax", 1.0),
    )
    with pytest.raises(ParameterError):
        pl.pde_residual(syn)


# ---------------------------------------------------------------------------
# configuration validation and termination handling


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(u0=-1.0),
        dict(r_max=0.0),
        dict(abs_tol=0.0),
        dict(zero_threshold=2.0, u0=1.0),
        dict(output_points=3),
        dict(u0=1e9),
    ],
)
def test_config_rejects(kwargs):
    with pytest.raises(ParameterError):
        pl.ShootingConfig(**kwargs)


def test_dimension_mismatch_rejected(flat3):
    params = pl.EquationParams(n=4, p=2.0, a=1.0, sigma=1.0)
    with pytest.raises(ParameterError):
        pl.solve_radial(params, flat3, pl.ShootingConfig(u0=1.0, r_max=1.0))


def test_hyperbolic_critical_damping_never_crosses():
    """At K = 1, n = 3, the linear instance a = 1, sigma = 1 is exactly
    critically damped (u ~ e^{-r} at infinity) and stays positive."""
    params = pl.EquationParams(n=3, p=2.0, a=1.0, sigma=1.0)
    sp = pl.ModelSpace(n=3, K=1.0)
    sol = pl.solve_radial(params, sp, pl.ShootingConfig(u0=1.0, r_max=6.0))
    assert sol.termination.kind == "reached_rmax"
    assert np.all(sol.u > 0)
    assert pl.pde_residual(sol) < 1e-5


def test_hyperbolic_solve_hits_zero():
    """A coefficient above the critical-damping threshold oscillates."""
    params = pl.EquationParams(n=3, p=2.0, a=4.0, sigma=1.0)
    sp = pl.ModelSpace(n=3, K=1.0)
    sol = pl.solve_radial(params, sp, pl.ShootingConfig(u0=1.0, r_max=6.0))
    assert sol.termination.kind == "hit_zero"
    assert pl.pde_residual(sol) < 1e-5


def test_termination_kinds_are_validated():
    with pytest.raises(ParameterError):
        pl.Termination("exploded", 1.0)


# ---------------------------------------------------------------------------
# CSV serialization


def test_csv_io_closes_only_files_it_opened(sinc_solution, tmp_path):
    buf = io.StringIO()
    pl.write_solution_csv(sinc_solution, buf)
    assert not buf.closed
    buf.seek(0)
    pl.read_solution_csv(buf)
    assert not buf.closed
    path = tmp_path / "sinc.csv"  # a path-like is opened, written and closed
    pl.write_solution_csv(sinc_solution, path)
    assert path.read_text() == buf.getvalue()
    assert pl.read_solution_csv(path).termination == sinc_solution.termination


def test_csv_round_trip_is_exact(sinc_solution):
    buf = io.StringIO()
    pl.write_solution_csv(sinc_solution, buf)
    buf.seek(0)
    back = pl.read_solution_csv(buf)
    assert back.params == sinc_solution.params
    assert back.space == sinc_solution.space
    assert back.config == sinc_solution.config
    assert back.termination == sinc_solution.termination
    for name in ("r", "u", "du", "w"):
        assert np.array_equal(getattr(back, name), getattr(sinc_solution, name))


@pytest.mark.parametrize(
    "text",
    [
        "",  # empty
        "# n=3\nr,u,du,w\n",  # no rows
        "# n=3\nbad,header\n0,1,0,0\n",  # wrong header
        "# n=3\nr,u,du,w\n0,1,0\n",  # short row
        "# n=3\nr,u,du,w\n0,one,0,0\n",  # non-numeric
        "# broken line\nr,u,du,w\n0,1,0,0\n",  # metadata without '='
    ],
)
def test_csv_rejects_malformed(text):
    with pytest.raises(SolutionFormatError):
        pl.read_solution_csv(io.StringIO(text))


def test_csv_rejects_missing_metadata(sinc_solution):
    buf = io.StringIO()
    pl.write_solution_csv(sinc_solution, buf)
    body = "\n".join(
        ln for ln in buf.getvalue().splitlines() if not ln.startswith("# p=")
    )
    with pytest.raises(SolutionFormatError):
        pl.read_solution_csv(io.StringIO(body))
