"""Shooting solver: closed-form oracles, symmetry identities, serialization."""

import dataclasses
import io
import math
import re
import typing

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.interpolate import PchipInterpolator

import plaplab as pl
import plaplab.solution as plsolution
from plaplab.cli import main
from plaplab.errors import ParameterError, SolutionFormatError
from plaplab.solution import _dense_output, _du_from_flux, _node_steps, _profile_from_nodes

from conftest import run_bounded, scipy_reference, sinc


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
    assert sinc_solution.termination.kind == "hit_zero"
    assert abs(sinc_solution.termination.r - math.pi) < 1e-4


def test_sinc_residual(sinc_solution):
    assert pl.pde_residual(sinc_solution) < 1e-5  # default-tolerance contract


def test_sinc_flux_identity(sinc_solution):
    assert pl.flux_residual(sinc_solution) < 1e-8


def test_weighted_cumulative_quadrature_exact_for_parabolas():
    """The flux quadrature integrates t^(n-1) times any parabola exactly."""
    from plaplab.solution import _cumulative_weighted_integral

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

    from plaplab.solution import _cumulative_weighted_integral

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


def test_reached_rmax_has_no_zero(flat3):
    params = pl.EquationParams(n=3, p=2.0, a=1.0, sigma=5.0)
    sol = pl.solve_radial(params, flat3, pl.ShootingConfig(u0=1.0, r_max=10.0))
    assert sol.termination.kind == "reached_rmax"
    assert sol.termination.r == 10.0


# ---------------------------------------------------------------------------
# closed-form oracle for p != 2: Talenti's bubble at the critical exponent


def talenti_bubble(n, p, u0, r):
    """U = u0 (1 + (lam r)^(p/(p-1)))^(-(n-p)/p) and U', which solve the
    equation with a = 1 at sigma = p* - 1 = (n(p-1)+p)/(n-p), and lam."""
    c0 = (n * ((n - p) / (p - 1)) ** (p - 1)) ** ((n - p) / p**2)
    lam = (u0 / c0) ** (p / (n - p))
    q = p / (p - 1)
    base = 1 + (lam * r) ** q
    u = u0 * base ** (-(n - p) / p)
    du = -u0 * (n - p) / (p - 1) * lam**q * r ** (q - 1) * base ** (-(n - p) / p - 1)
    return u, du, lam


def critical_params(p, n=3):
    return pl.EquationParams(n=n, p=p, a=1.0, sigma=(n * (p - 1) + p) / (n - p))


@pytest.mark.parametrize(
    "p, u0, r_max, blowup_threshold",
    [
        (1.5, 1.0, 4.0, 1e8),
        (2.0, 1.0, 4.0, 1e8),
        (2.5, 1.0, 4.0, 1e8),
        (2.8, 1.0, 4.0, 1e8),
        pytest.param(
            2.8, 3.0, 0.04, 1e20,
            marks=pytest.mark.xfail(
                strict=True,
                reason="the series starts at r = 1e-6 r_max = 4e-8, within the bubble's "
                "scale 1/lam = 7.5e-8; with the blow-up threshold above its w = -4.9e11 "
                "the start is accepted and u is 15% off; the start needs to follow 1/lam",
            ),
        ),
    ],
)
def test_talenti_bubble(flat3, p, u0, r_max, blowup_threshold):
    """The profile, its derived du and its CSV record on the exact bubble."""
    config = pl.ShootingConfig(u0=u0, r_max=r_max, blowup_threshold=blowup_threshold)
    sol = pl.solve_radial(critical_params(p), flat3, config)
    u, du, _ = talenti_bubble(3, p, u0, sol.r)
    assert sol.termination.kind == "reached_rmax"
    assert np.max(np.abs(sol.u - u) / u) <= 1e-7
    assert np.max(np.abs(sol.du - du)) / np.max(np.abs(du)) <= 1e-6
    buf = io.StringIO()
    pl.write_solution_csv(sol, buf)
    back = pl.read_solution_csv(io.StringIO(buf.getvalue()))
    for name in ("r", "u", "du", "w"):
        assert np.array_equal(_bits(getattr(back, name)), _bits(getattr(sol, name)))


@pytest.mark.parametrize(
    "r_max, start",
    [
        pytest.param(4.0, r"r = 4e-06 \(u = -100\.", id="past-zero"),
        pytest.param(0.04, r"r = 4e-08 \(u = 2\.92\d*, w = -486306618362\.", id="past-blow-up"),
    ],
)
def test_talenti_bubble_start_past_an_event(flat3, r_max, start):
    """At u0 = 3, p = 2.8 the bubble's scale is 1/lam = 7.5e-8.  The series
    start r = 1e-6 r_max is beyond it at r_max = 4, where u = -100 is past
    the zero event, and near it at r_max = 0.04, where |w| = 4.9e11 is past
    the blow-up event.  Neither event can fire any more, so the start is
    rejected instead of integrating to r_max as a persisting profile."""
    params = critical_params(2.8)
    config = pl.ShootingConfig(u0=3.0, r_max=r_max)
    assert talenti_bubble(3, 2.8, 3.0, 0.0)[2] > 1 / 4e-6
    with pytest.raises(ParameterError, match="series start at " + start):
        pl.solve_radial(params, flat3, config)
    kinds, radii, _ = pl.shoot_batch([params, params], [3.0, 1.0], flat3, config)
    assert list(kinds) == ["step_failure", "reached_rmax"]
    assert radii[0] == 0.0
    assert pl.classify_existence(params, flat3, config, (3.0,)) == ("numerical_failure", None)


# ---------------------------------------------------------------------------
# scipy's solve_ivp as the oracle of the scalar stepper


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(
    p=st.floats(1.2, 5.0),
    sigma=st.floats(0.1, 6.0),
    a=st.sampled_from([1.0, -1.0]),
    K=st.floats(0.0, 4.0),
    u0=st.floats(0.25, 4.0),
    r_max=st.floats(1.0, 50.0),
)
def test_solve_radial_matches_scipy(p, sigma, a, K, u0, r_max):
    """Same termination (kind and radius) and, away from the terminal
    sample, the same profile within the symmetry
    identities' 1e-7."""
    args = (
        pl.EquationParams(n=3, p=p, a=a, sigma=sigma),
        pl.ModelSpace(n=3, K=K),
        pl.ShootingConfig(u0=u0, r_max=r_max),
    )
    try:
        ref = scipy_reference(*args)
    except ParameterError:
        with pytest.raises(ParameterError):
            pl.solve_radial(*args)
        return
    sol = pl.solve_radial(*args)
    ours, theirs = sol.termination, ref.termination
    assert ours.kind == theirs.kind
    assert abs(ours.r - theirs.r) <= 1e-8 * theirs.r
    for name in ("u", "w"):
        got, want = getattr(sol, name)[:-1], getattr(ref, name)[:-1]
        assert np.max(np.abs(got - want) / (np.abs(want) + 1.0)) <= 1e-7


@pytest.mark.parametrize(
    "p, a, sigma, K, u0, r_max",
    [
        (2.0, 1.0, 1.0, 1e4, 1.0, 4.0),  # stiff: coth damping
        (2.0, 1.0, 1.0, 1e6, 1.0, 4.0),
        (2.0, 1.0, 5.0, 0.0, 2.0, 50.0),
        (1.2, 1.0, 3.0, 1.0, 1.0, 10.0),
        (4.5, 1.0, 0.5, 1.0, 1.0, 10.0),  # hit_zero
    ],
)
def test_profile_is_scipys_to_rounding(p, a, sigma, K, u0, r_max):
    """Every sample agrees with scipy's to 1e-12 relative: the steps are
    scipy's, rejections included (a different step sequence moves the
    profile by the 1e-9 tolerance)."""
    args = (
        pl.EquationParams(n=3, p=p, a=a, sigma=sigma),
        pl.ModelSpace(n=3, K=K),
        pl.ShootingConfig(u0=u0, r_max=r_max),
    )
    sol, ref = pl.solve_radial(*args), scipy_reference(*args)
    assert sol.termination.kind == ref.termination.kind
    for name in ("r", "u", "w"):
        got, want = getattr(sol, name), getattr(ref, name)
        assert np.max(np.abs(got - want) / (np.abs(want) + 1.0)) <= 1e-12


def test_rel_tol_floor(flat3):
    """A rel_tol below 100 eps integrates as 100 eps does, as in scipy."""
    params = pl.EquationParams(n=3, p=2.0, a=1.0, sigma=1.0)
    low, floor = (
        pl.solve_radial(params, flat3, pl.ShootingConfig(r_max=4.0, rel_tol=tol, abs_tol=1e-14))
        for tol in (1e-16, 100 * np.finfo(float).eps)
    )
    assert low.termination == floor.termination
    for name in ("u", "w"):
        assert np.array_equal(getattr(low, name), getattr(floor, name))


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
            u=lam * sol.u,
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
        config=pl.ShootingConfig(u0=1.0, r_max=2.0),
        u=u,
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


@pytest.mark.parametrize("K", [0.0, 1.0])
def test_residual_contracts_below_p2(K):
    """Both residual contracts hold at p < 2, where the residuals also drop
    the samples at which the differenced gradient vanishes."""
    params = pl.EquationParams(n=3, p=1.5, a=1.0, sigma=0.5)
    sol = pl.solve_radial(params, pl.ModelSpace(n=3, K=K), pl.ShootingConfig(r_max=6.0))
    assert pl.pde_residual(sol) < 1e-5
    assert pl.to_log_solution(sol).transformed_residual < 1e-4


def test_log_transform_rejects_nonpositive(flat3):
    r = np.linspace(0.0, 1.0, 11)
    u = np.linspace(1.0, -0.1, 11)
    syn = pl.RadialSolution(
        params=pl.EquationParams(n=3, p=2.0, a=1.0, sigma=1.0),
        space=flat3,
        config=pl.ShootingConfig(u0=1.0, r_max=1.0),
        u=u,
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
        config=pl.ShootingConfig(u0=1.0, r_max=2.0),
        u=np.ones_like(r),
        w=np.zeros_like(r),
        termination=pl.Termination("reached_rmax", 2.0),
    )
    assert pl.pde_residual(syn) == pytest.approx(1.0, abs=1e-12)


def test_residual_needs_samples(flat3):
    """Both residuals refuse a grid too short for one complete 4th-order
    stencil, by one rule."""
    r = np.linspace(0.0, 1.0, 4)
    syn = pl.RadialSolution(
        params=pl.EquationParams(n=3, p=2.0, a=1.0, sigma=2.0),
        space=flat3,
        config=pl.ShootingConfig(u0=1.0, r_max=1.0),
        u=np.ones_like(r),
        w=np.zeros_like(r),
        termination=pl.Termination("reached_rmax", 1.0),
    )
    for residual in (pl.pde_residual, lambda s: pl.to_log_solution(s).transformed_residual):
        with pytest.raises(ParameterError, match="no samples retained for the residual check"):
            residual(syn)


def test_radial_solution_rejects_unequal_lengths(sinc_solution):
    for field in ("u", "w"):
        shorter = getattr(sinc_solution, field)[:-1]
        with pytest.raises(ParameterError, match="grid arrays must have equal length"):
            dataclasses.replace(sinc_solution, **{field: shorter})


@pytest.mark.filterwarnings("error")
def test_radial_solution_r_is_the_grid_to_termination_r(sinc_solution):
    """r is not a field but np.linspace(0, termination.r, len(u)) bit for
    bit, and r_end is termination.r; a termination radius of 0, -0, inf or
    nan, or one whose grid step underflows to 0, is refused.  At the edges
    of float64 r is linspace too, without a warning: near the float maximum,
    where linspace's (m - 1) * step overflows, and at subnormal radii over
    a few samples, for a sampled profile and for one read from its nodes."""
    r, end = sinc_solution.r, sinc_solution.termination.r
    assert "r" not in {f.name for f in dataclasses.fields(pl.RadialSolution)}
    assert np.array_equal(_bits(r), _bits(np.linspace(0.0, end, len(sinc_solution.u))))
    assert sinc_solution.r_end == end
    for value in (0.0, -0.0, math.inf, math.nan):
        termination = pl.Termination(sinc_solution.termination.kind, value)
        with pytest.raises(ParameterError, match="^termination.r must be finite and > 0"):
            dataclasses.replace(sinc_solution, termination=termination)
    # the grid step 1e-309 / 2000 is a subnormal above 0; 5e-324 / 2000 is 0
    sampled = dataclasses.replace(sinc_solution, nodes=None)
    tiny = dataclasses.replace(sampled, termination=pl.Termination("step_failure", 1e-309))
    assert np.array_equal(_bits(tiny.r), _bits(np.linspace(0.0, 1e-309, 2001)))
    with pytest.raises(ParameterError, match="do not increase strictly"):
        dataclasses.replace(sinc_solution, termination=pl.Termination("step_failure", 5e-324))
    with pytest.raises(ParameterError, match="1 samples .* do not increase strictly"):
        dataclasses.replace(sinc_solution, u=sinc_solution.u[:1], w=sinc_solution.w[:1])
    for end in (x for x in EDGE_FLOATS if x > 0):
        for m in (2, 3, 4, 31):
            if end / (m - 1) == 0:  # refused, as 5e-324 over 2001 samples above
                continue
            with np.errstate(over="ignore"):  # (m - 1) * step may pass the float maximum
                grid = np.linspace(0.0, end, m)
            edge = dataclasses.replace(
                sampled, u=np.ones(m), w=np.zeros(m), termination=pl.Termination("blow_up", end)
            )
            assert np.array_equal(_bits(edge.r), _bits(grid)), (end, m)
            assert _bits(edge.r_end) == _bits(end)
        if end < 1.0:
            continue
        # a node file whose one step ends there, as a hand-written one may
        nodes = np.array([[sinc_solution.nodes[0, 0], end], [1.0, 0.5], [-0.0, -1.0]])
        termination = pl.Termination("blow_up", end)
        solved = pl.RadialSolution(
            params=sinc_solution.params,
            space=sinc_solution.space,
            config=sinc_solution.config,
            termination=termination,
            nodes=nodes,
        )
        _, back = _round_trip(solved)
        with np.errstate(over="ignore"):
            grid = np.linspace(0.0, end, 2001)
        assert np.array_equal(_bits(back.r), _bits(grid)), end
        assert back.termination == termination


@pytest.mark.filterwarnings("error")
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    end=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    m=st.integers(min_value=2, max_value=31),
)
@example(end=1.7976931348623157e308, m=4)
@example(end=1e-323, m=3)  # the grid's step is the smallest subnormal
def test_radial_solution_grid_at_any_finite_radius(sinc_solution, end, m):
    """Any positive finite termination radius over m samples gives the grid
    np.linspace(0, r_end, m) bit for bit, without a warning, unless its step
    underflows to 0, which is refused."""
    sampled = dataclasses.replace(sinc_solution, nodes=None)
    termination = pl.Termination("reached_rmax", end)
    if end / (m - 1) == 0:
        with pytest.raises(ParameterError, match="do not increase strictly"):
            dataclasses.replace(sampled, u=np.ones(m), w=np.ones(m), termination=termination)
        return
    edge = dataclasses.replace(sampled, u=np.ones(m), w=np.ones(m), termination=termination)
    with np.errstate(over="ignore"):
        assert np.array_equal(_bits(edge.r), _bits(np.linspace(0.0, end, m)))


# ---------------------------------------------------------------------------
# configuration validation and termination handling


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(u0=-1.0),
        dict(r_max=0.0),
        dict(abs_tol=0.0),
        dict(zero_threshold=2.0, u0=1.0),
        dict(rel_tol=math.nan),
        dict(u0=1e9),
    ],
)
def test_config_rejects(kwargs):
    with pytest.raises(ParameterError):
        pl.ShootingConfig(**kwargs)


def test_config_rejects_infinite_span():
    with pytest.raises(ParameterError, match="r_max"):
        pl.ShootingConfig(r_max=math.inf)


def _past_an_event(start):
    return (
        f"error: series start at r = 4e-06 ({start}) is past the zero or blow-up event "
        "(zero_threshold = 1e-08, blowup_threshold = 100000000.0); check the configuration"
    )


@pytest.mark.parametrize(
    "flags, message",
    [
        pytest.param(  # the start overflows to inf
            ("--a", "1e308", "--sigma", "3", "--u0", "10", "--r-max", "4"),
            _past_an_event("u = -inf, w = -inf"),
            id="flags0",
        ),
        pytest.param(  # u0**sigma overflows in the series
            ("--a", "1", "--sigma", "2000", "--u0", "2", "--r-max", "4"),
            _past_an_event("u = nan, w = nan"),
            id="flags1",
        ),
        pytest.param(  # the series start 1e-6 r_max underflows to 0
            ("--a", "1", "--sigma", "1", "--r-max", "1e-320"),
            "error: r_max = 1e-320 is too small: 2001 samples from 0 to the series start"
            " 1e-06 r_max do not increase strictly",
            id="r-max-underflows",
        ),
        pytest.param(  # the series start is subnormal, its 2000 grid steps 0
            ("--a", "1", "--sigma", "1", "--r-max", "4e-318"),
            "error: r_max = 4e-318 is too small: 2001 samples from 0 to the series start"
            " 1e-06 r_max do not increase strictly",
            id="r-max-grid-underflows",
        ),
    ],
)
def test_overflowing_start_ends_as_invalid_input(flags, message, tmp_path):
    """A start state beyond the float range, or at r = 0, is rejected
    before the first step: the solve ends with exit 2, one line on stderr
    and no file."""
    out = tmp_path / "s.csv"
    proc = run_bounded(
        "-m", "plaplab.cli", "solve", "--n", "3", "--p", "2", *flags, "--out", str(out)
    )
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [message]
    assert not out.exists()


def test_start_with_no_accepted_step_is_a_step_failure(tmp_path):
    """A finite start inside the thresholds at r = 1e-309, where (n-1)/r
    overflows: the first derivative and the initial step are nan, and a nan
    step counts as below the step floor, so no step is accepted.  The solve
    fails at once instead of retrying forever, as a numerical failure (exit
    3): step_failure at the start radius, with the series start written as
    a CSV that reads back."""
    out = tmp_path / "s.csv"
    proc = run_bounded(
        "-W", "error", "-m", "plaplab.cli", "solve", "--n", "3", "--p", "2", "--a", "1",
        "--sigma", "1", "--r-max", "1e-303", "--out", str(out),
    )
    assert proc.returncode == 3
    assert proc.stderr == ""
    assert proc.stdout == f"termination=step_failure r=1e-309 samples=2001 steps=0 out={out}\n"
    back = pl.read_solution_csv(out)
    assert back.termination == pl.Termination("step_failure", 1e-309)
    assert back.r[-1] == 1e-309
    assert np.all(back.u == 1.0)


@pytest.mark.parametrize("flag", ["--a", "--sigma", "--K", "--p", "--r-max"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_solve_flags_are_invalid(flag, value, tmp_path):
    proc = run_bounded(
        "-m", "plaplab.cli", "solve", "--n", "3", "--p", "2", "--a", "1", "--sigma", "1",
        "--r-max", "4", flag, value, "--out", str(tmp_path / "s.csv"),
    )
    assert proc.returncode == 2
    assert len(proc.stderr.splitlines()) == 1 and "Traceback" not in proc.stderr


def test_dimension_mismatch_rejected(sinc_solution, sinc_log):
    """params.n and space.n must agree wherever a run is solved or held:
    solve_radial, shoot_batch, a RadialSolution and a LogSolution each
    raise the one dimension mismatch error."""
    params, config = sinc_solution.params, sinc_solution.config
    space5 = pl.ModelSpace(n=5)
    attempts = {
        "solve_radial": lambda: pl.solve_radial(params, space5, config),
        "shoot_batch": lambda: pl.shoot_batch([params], [config.u0], space5, config),
        "RadialSolution": lambda: dataclasses.replace(sinc_solution, space=space5),
        "LogSolution": lambda: dataclasses.replace(sinc_log, space=space5),
    }
    for name, attempt in attempts.items():
        with pytest.raises(ParameterError) as exc:
            attempt()
        assert str(exc.value) == "dimension mismatch: params.n = 3, space.n = 5", name


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


@pytest.mark.parametrize("K", [0.25, 1.0, 4.0])
def test_hyperbolic_p2_closed_form(hyperbolic_p2, K):
    """Both steppers against the exact K > 0 profiles of n = 3, p = 2,
    sigma = 1 on [0, 6/sqrt(K)], for a/K on both sides of the bottom of the
    spectrum 1: solve_radial's profile to 1e-6 relative where |u| > 1e-6;
    its zero radius within 2 zero_threshold / |u'| of pi/(k sqrt(K)), where
    |u'| = sqrt(K)/sinh(pi/k); and shoot_batch's radius, one run per a, to
    1e-12 relative of solve_radial's."""
    space = pl.ModelSpace(n=3, K=K)
    config = pl.ShootingConfig(r_max=6 / math.sqrt(K))
    ratios = (5.0, 2.0, 1.5, 1.0, 0.75, -3.0)
    params = [pl.EquationParams(n=3, p=2.0, a=ratio * K, sigma=1.0) for ratio in ratios]
    kinds, radii, _ = pl.shoot_batch(params, [1.0] * len(params), space, config)
    for ratio, prm, kind, radius in zip(ratios, params, kinds, radii):
        sol = pl.solve_radial(prm, space, config)
        exact = hyperbolic_p2(sol.r, prm.a, K)
        kept = np.abs(exact) > 1e-6
        err = np.max(np.abs(sol.u[kept] - exact[kept]) / np.abs(exact[kept]))
        assert err < 1e-6, (ratio, err)
        assert kind == sol.termination.kind == ("hit_zero" if ratio > 1 else "reached_rmax")
        assert radius == pytest.approx(sol.termination.r, rel=1e-12, abs=0)
        if ratio > 1:
            k = math.sqrt(ratio - 1)
            slope = math.sqrt(K) / math.sinh(math.pi / k)
            zero = math.pi / (k * math.sqrt(K))
            assert abs(sol.termination.r - zero) <= 2 * config.zero_threshold / slope


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


# a complete file, the one solve writes for the sinc instance at r_max = 4
# with abs_tol = rel_tol = 1e-3, whose run takes five accepted steps; each
# malformed case below breaks one thing in it
VALID_META = """\
# n=3
# p=2
# a=1
# sigma=1
# K=0
# u0=1
# r_max=4
# abs_tol=0.001
# rel_tol=0.001
# zero_threshold=1e-08
# blowup_threshold=100000000
# termination=hit_zero
# termination_r=3.1437843437081181
"""
VALID_CONFIG = pl.ShootingConfig(r_max=4.0, abs_tol=1e-3, rel_tol=1e-3)
# r, u, w of each node: the series start 1e-6 r_max and the full end of each
# accepted step, the last one at r_max, past the zero at termination_r
VALID_NODES = [
    ("3.9999999999999998e-06", "0.99999999999733336", "-1.3333333333333332e-06"),
    ("0.13351817185794218", "0.99703168212991278", "-0.04442837989256504"),
    ("0.56096328599037171", "0.94837411763171608", "-0.18117156459728093"),
    ("1.7336565795459975", "0.56925520733221435", "-0.4216814351981405"),
    ("3.116495740410171", "0.0087356420790137834", "-0.32282387222643899"),
    ("4", "-0.21396965480633515", "-0.19639156871726582"),
]
# the writer's r,u,w layout holds nodes; the reader refuses the u,w and
# r,u,du,w layouts of files that held samples by their header (du equals w
# at p = 2)
HEADERS = ("u,w", "r,u,w", "r,u,du,w")


def _rows(header):
    fields = [dict(zip("ruw", node), du=node[2]) for node in VALID_NODES]
    return [",".join(f[name] for name in header.split(",")) for f in fields]


def _csv(header, rows):
    return VALID_META + header + "\n" + "".join(row + "\n" for row in rows)


def _edit_first(header, edit):
    """The valid file under header, with its first row replaced by edit
    applied to that row's list of fields."""
    rows = _rows(header)
    rows[0] = edit(rows[0].split(","))
    return _csv(header, rows)


def _with_radius(rows, k, radius):
    """rows with the radius of rows[k] replaced."""
    rows = list(rows)
    rows[k] = radius + rows[k][rows[k].index(",") :]
    return rows


def _malformed(header):
    """(name, text) of each malformed file built from the valid file under
    header; each breaks one thing in it."""
    k = header.split(",").index("u")

    def with_u(text):
        return _edit_first(header, lambda f: ",".join(f[:k] + [text] + f[k + 1 :]))

    rows = _rows(header)
    text = _csv(header, rows)
    end = "# termination_r=3.1437843437081181\n"
    off_start = "4.0000000000000007e-06"  # the float above the series start 4e-06
    past_start = "# termination_r=1e-05\n"

    def ending_at(value):
        return text.replace(end, f"# termination_r={value}\n")

    # the samples span a grid to termination_r, which a run's last step holds
    termination_cases = [
        (f"{value}-termination-radius", ending_at(value))
        for value in ("nan", "inf", "0", "-0", "5e-324")
    ] + [("one-row", _csv(header, rows[:1]))]
    nan_inf_radius = [
        ("nan-radius", _csv(header, _with_radius(rows, 1, "nan"))),
        ("inf-radius", _csv(header, _with_radius(rows, 2, "inf"))),
    ]
    radius_cases = {
        "u,w": termination_cases,
        "r,u,du,w": nan_inf_radius,
        # the nodes of a run: finite, from the series start, radii increasing,
        # and termination_r inside the last step (r[-2], r[-1]]
        "r,u,w": nan_inf_radius + termination_cases + [
            ("repeated-radius", _csv(header, _with_radius(rows, 2, "0.13351817185794218"))),
            ("falling-radius", _csv(header, _with_radius(rows, 3, "0.5"))),
            ("radius-from-zero", _csv(header, _with_radius(rows, 0, "0"))),
            ("radius-off-the-series-start", _csv(header, _with_radius(rows, 0, off_start))),
            ("termination-radius-on-the-step-start", ending_at("3.116495740410171")),
            ("termination-radius-past-the-last-node", ending_at("4.0000000000000009")),
            ("one-row-past-its-radius", _csv(header, rows[:1]).replace(end, past_start)),
            ("nan-u", _csv(header, [rows[0], "0.13351817185794218,nan,-0.1", *rows[2:]])),
            ("inf-w", _csv(header, [*rows[:5], "4,-0.2,-inf"])),
        ],
    }[header]

    return [
        ("no-rows", _csv(header, [])),
        ("wrong-header", _csv("bad,header", _rows(header))),
        ("short-row", _edit_first(header, lambda f: ",".join(f[:-1]))),
        ("non-numeric", with_u("one")),
        ("metadata-without-equals", "# broken line\n" + _csv(header, _rows(header))),
        ("trailing-comment", _edit_first(header, lambda f: ",".join(f) + " # x")),
        ("trailing-comma", _edit_first(header, lambda f: ",".join(f) + ",")),
        ("empty-field", with_u("")),
        ("tab-separated", _edit_first(header, "\t".join)),
        ("extra-column", _csv(header, [row + ",0" for row in _rows(header)])),
        # fields are plain ASCII decimals, although float() takes these two
        ("digit-separator", with_u("0.9_0")),
        ("fullwidth-digit", with_u("\uff11")),
        *radius_cases,
        # metadata goes above the header, and a blank row holds no spaces
        ("metadata-after-rows", _csv(header, rows) + "# K=0\n"),
        ("metadata-between-rows", _csv(header, [rows[0], "# K=0", *rows[1:]])),
        ("spaces-between-rows", _csv(header, [rows[0], "   ", *rows[1:]])),
    ]


# the r,u,du,w cases keep the ids they had when that was the only header;
# the first five are the bare fragments these cases once were
LEGACY_IDS = {
    "no-rows": "# n=3\nr,u,du,w\n",
    "wrong-header": "# n=3\nbad,header\n0,1,0,0\n",
    "short-row": "# n=3\nr,u,du,w\n0,1,0\n",
    "non-numeric": "# n=3\nr,u,du,w\n0,one,0,0\n",
    "metadata-without-equals": "# broken line\nr,u,du,w\n0,1,0,0\n",
    "extra-column": "five-columns",
}

# a file of samples, as solve wrote them before the nodes: the sinc instance
# at r_max = 4 sampled at 3 points from 0 to termination_r, with r, u, du, w
SAMPLE_CSV = """\
# n=3
# p=2
# a=1
# sigma=1
# K=0
# u0=1
# r_max=4
# abs_tol=1e-10
# rel_tol=1.0000000000000001e-09
# zero_threshold=1e-08
# blowup_threshold=100000000
# termination=hit_zero
# termination_r=3.1415926223734867
r,u,du,w
0,1,0,-0
1.5707963111867433,0.63661977864062869,-0.40528473266127835,-0.40528473266127835
3.1415926223734867,1.0000000026327382e-08,-0.31830989204867161,-0.31830989204867161
"""


def _split_at_header(text):
    """(metadata lines, header, data rows) of a CSV text."""
    lines = text.splitlines()
    k = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    return lines[:k], lines[k], lines[k + 1 :]


def _cut(text, header):
    """A CSV text with its columns cut to those of header."""
    meta, names, rows = _split_at_header(text)
    keep = [names.split(",").index(name) for name in header.split(",")]
    body = "".join(",".join(row.split(",")[k] for k in keep) + "\n" for row in rows)
    return "".join(line + "\n" for line in meta) + header + "\n" + body


def _nodes_of(text):
    return np.array([[float(x) for x in row.split(",")] for row in _split_at_header(text)[2]]).T


def test_valid_csv_reads():
    """The valid file reads bit for bit: the nodes are its rows, r is the
    grid from 0 to termination_r, (u, w) is the profile _profile_from_nodes
    builds from the nodes and du is derived from w.  It is the file solve
    writes for its run, and it is written back unchanged."""
    text = _csv("r,u,w", _rows("r,u,w"))
    sol = pl.read_solution_csv(io.StringIO(text))
    assert sol.config == VALID_CONFIG
    assert sol.termination == pl.Termination("hit_zero", 3.1437843437081181)
    assert np.array_equal(_bits(sol.nodes), _bits(_nodes_of(text)))
    assert np.array_equal(_bits(sol.r), _bits(np.linspace(0.0, sol.termination.r, 2001)))
    u, w = _profile_from_nodes(sol.params, sol.space, sol.config, sol.nodes, sol.termination)
    assert np.array_equal(_bits(sol.u), _bits(u))
    assert np.array_equal(_bits(sol.w), _bits(w))
    # du copies the sign of w, the -0.0 at the center included
    assert np.array_equal(_bits(sol.du), _bits(_du_from_flux(w, 2.0)))
    assert _bits(sol.du[0]) == _bits(-0.0)
    for solution in (sol, pl.solve_radial(sol.params, sol.space, VALID_CONFIG)):
        buf = io.StringIO()
        pl.write_solution_csv(solution, buf)
        assert buf.getvalue() == text


@pytest.mark.parametrize("value", ["5", "3", "2001", "1e9", "any"])
def test_csv_output_points_line_is_ignored(value):
    """A retired output_points line, whatever its value and whatever the
    row count, reads back to the solution of the same file without it."""
    text = _csv("r,u,w", _rows("r,u,w"))
    old = pl.read_solution_csv(io.StringIO(f"# output_points={value}\n" + text))
    new = pl.read_solution_csv(io.StringIO(text))
    assert (old.params, old.space, old.config, old.termination) == (
        new.params,
        new.space,
        new.config,
        new.termination,
    )
    for name in ("r", "u", "w", "nodes"):
        assert np.array_equal(_bits(getattr(old, name)), _bits(getattr(new, name)))


@pytest.mark.parametrize(
    "text",
    [pytest.param("", id="")]  # empty
    + [
        pytest.param(text, id=LEGACY_IDS.get(name, name))
        for name, text in _malformed("r,u,du,w")
    ]
    + [pytest.param(text, id="r,u,w-" + name) for name, text in _malformed("r,u,w")]
    + [pytest.param(text, id="u,w-" + name) for name, text in _malformed("u,w")]
    + [pytest.param(_edit_first("r,u,du,w", lambda f: "0,1,one,-0"), id="legacy-du-non-numeric")]
    # a file of samples in each layout that held them: refused by its header,
    # and under r,u,w by its first radius, 0, which is not the series start
    + [pytest.param(_cut(SAMPLE_CSV, header), id=header) for header in HEADERS],
)
def test_csv_rejects_malformed(text):
    with pytest.raises(SolutionFormatError):
        pl.read_solution_csv(io.StringIO(text))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("header", HEADERS)
@pytest.mark.parametrize("rows", ["\r\n\r\n", "\r\r\n\r"])
def test_csv_without_data_rows_is_refused(header, rows):
    """A data section of lone '\\r' lines, which a StringIO or a file opened
    with newline='' keeps, has no data rows: under r,u,w the reader says so,
    under a legacy header it refuses that header first, and np.loadtxt is
    not asked to parse the rows (it would warn)."""
    text = VALID_META + header + "\n" + rows
    error = "no data rows found" if header == "r,u,w" else f"unexpected column header: '{header}'"
    with pytest.raises(SolutionFormatError, match=f"^{error}$"):
        pl.read_solution_csv(io.StringIO(text, newline=""))


@pytest.mark.parametrize("header", HEADERS)
def test_csv_accepts_loose_layout(sinc_solution, header):
    """Blank lines between rows, a space after each comma and \\r\\n line
    ends read back to the same solution under r,u,w; under a legacy header
    the same layout is refused by that header, read without its '\\r'."""
    buf = io.StringIO()
    pl.write_solution_csv(sinc_solution, buf)
    meta, _, body = buf.getvalue().partition("r,u,w\n")
    # at p = 2 the legacy du column equals w
    fields = [dict(zip("ruw", row.split(",")), du=row.split(",")[2]) for row in body.splitlines()]
    rows = [",".join(f[name] for name in header.split(",")) for f in fields]
    loose = meta + header + "\n\n" + "\n\n".join(r.replace(",", ", ") for r in rows) + "\n"
    # StringIO keeps each '\r', where a file opened by path would drop it
    loose = io.StringIO(loose.replace("\n", "\r\n"))
    if header != "r,u,w":
        with pytest.raises(SolutionFormatError, match=f"^unexpected column header: '{header}'$"):
            pl.read_solution_csv(loose)
        return
    back = pl.read_solution_csv(loose)
    assert (back.params, back.space, back.config, back.termination) == (
        sinc_solution.params,
        sinc_solution.space,
        sinc_solution.config,
        sinc_solution.termination,
    )
    for name in ("r", "u", "du", "w", "nodes"):
        assert np.array_equal(_bits(getattr(back, name)), _bits(getattr(sinc_solution, name)))


# finite values at the edges of float64: subnormals, signed zeros, the
# smallest normal, and the largest finite values
EDGE_FLOATS = [
    0.0,
    -0.0,
    5e-324,
    -5e-324,
    2.225073858507201e-308,
    -2.2250738585072014e-308,
    1.7976931348623157e308,
    -1.7976931348623157e308,
    1.7976931348623155e308,
]
CSV_VALUES = st.one_of(
    st.sampled_from(EDGE_FLOATS),
    st.floats(allow_nan=False, allow_infinity=False),
)


def _bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


@pytest.mark.parametrize("p", [1.25, 2.0, 3.5])
def test_du_copies_the_sign_of_w(sinc_solution, p):
    """u' takes the sign of w as both steppers do, a zero w's included: an
    a > 0 profile starts at w = -0.0, and its du starts at -0.0 too."""
    assert (_bits(sinc_solution.w[0]), _bits(sinc_solution.du[0])) == (_bits(-0.0),) * 2
    w = np.array([-0.0, 0.0, -2.5, 3.0, -5e-324])
    sol = dataclasses.replace(
        sinc_solution,
        nodes=None,
        params=dataclasses.replace(sinc_solution.params, p=p),
        u=np.ones(5),
        w=w,
    )
    expected = np.copysign(np.abs(w) ** (1 / (p - 1)), w)
    assert np.array_equal(_bits(sol.du), _bits(expected))


def _round_trip(solution):
    """(text, read-back solution) of a solution written as CSV."""
    buf = io.StringIO()
    pl.write_solution_csv(solution, buf)
    text = buf.getvalue()
    return text, pl.read_solution_csv(io.StringIO(text))


def _drawn_solves(test):
    """Run test(solved) on 60 derandomized solves across the window (n 3..6,
    p in (1.1, 2n - 1), both signs of a and of sigma, K in {0, 1}) and on an
    example of each termination kind."""

    def solved(n, p, a, sigma, K, r_max):
        assume(p < 2 * n - 1)
        params = pl.EquationParams(n=n, p=p, a=a, sigma=sigma)
        test(pl.solve_radial(params, pl.ModelSpace(n=n, K=K), pl.ShootingConfig(r_max=r_max)))

    solved.__name__, solved.__doc__ = test.__name__, test.__doc__
    drawn = given(
        n=st.integers(min_value=3, max_value=6),
        p=st.floats(min_value=1.1, max_value=11.0, exclude_min=True),
        a=st.sampled_from([-1.0, 1.0]),
        sigma=st.one_of(st.floats(min_value=-0.9, max_value=-0.05), st.floats(0.05, 6.0)),
        K=st.sampled_from([0.0, 1.0]),
        r_max=st.sampled_from([2.0, 8.0, 30.0]),
    )(solved)
    for case in [
        (3, 2.0, 1.0, 1.0, 0.0, 2.0),  # reached_rmax
        (3, 2.0, 1.0, 1.0, 0.0, 4.0),  # hit_zero
        (3, 2.0, -1.0, 3.0, 0.0, 5.0),  # blow_up
        (3, 1.2, -1.0, 3.0, 0.0, 10.0),  # step_failure
        (3, 2.0, 1.0, 1.0, 0.0, 1e-303),  # step_failure at the start
    ]:
        drawn = example(**dict(zip(("n", "p", "a", "sigma", "K", "r_max"), case)))(drawn)
    return settings(max_examples=60, deadline=None, derandomize=True, database=None)(drawn)


@_drawn_solves
def test_csv_round_trip_property(solved):
    """A solved profile's CSV round trip is exact for every termination
    kind: the data rows are the per-value '{:.17g}' text of the nodes, and
    r, u, du, w, the nodes and the termination read back bit for bit."""
    text, back = _round_trip(solved)
    expected = [",".join("{:.17g}".format(x) for x in node) for node in solved.nodes.T]
    assert text.splitlines()[-len(expected) - 1 :] == ["r,u,w"] + expected
    assert (back.params, back.space, back.config) == (solved.params, solved.space, solved.config)
    assert back.termination == solved.termination
    assert _bits(back.termination.r) == _bits(solved.termination.r)
    with np.errstate(all="ignore"):  # a blow-up's du may overflow, on both sides alike
        for name in ("r", "u", "du", "w", "nodes"):
            assert np.array_equal(_bits(getattr(back, name)), _bits(getattr(solved, name))), name


@pytest.mark.parametrize(
    "n, p, a, sigma, K, r_max, kind",
    [
        (3, 2.0, 1.0, 1.0, 0.0, 2.0, "reached_rmax"),
        (3, 2.0, 1.0, 1.0, 0.0, 4.0, "hit_zero"),
        (4, 3.0, 3.0, 2.0, 1.0, 8.0, "hit_zero"),
        (3, 2.0, -1.0, 3.0, 0.0, 5.0, "blow_up"),
        (3, 1.2, -1.0, 3.0, 0.0, 10.0, "step_failure"),
        (3, 2.0, 1.0, 1.0, 0.0, 1e-303, "step_failure"),
    ],
)
def test_profile_is_built_from_the_nodes(n, p, a, sigma, K, r_max, kind):
    """solve_radial's profile, built on first read, is _profile_from_nodes
    of its own nodes, bit for bit, and the nodes are what the CSV reader
    takes: finite, from the series start, their radii increasing, with the
    termination radius in the last step (r[-2], r[-1]], or at the start
    with no accepted step."""
    params = pl.EquationParams(n=n, p=p, a=a, sigma=sigma)
    space = pl.ModelSpace(n=n, K=K)
    config = pl.ShootingConfig(r_max=r_max)
    sol = pl.solve_radial(params, space, config)
    assert sol.termination.kind == kind
    u, w = _profile_from_nodes(params, space, config, sol.nodes, sol.termination)
    assert np.array_equal(_bits(sol.u), _bits(u))
    assert np.array_equal(_bits(sol.w), _bits(w))
    r = sol.nodes[0]
    assert np.isfinite(sol.nodes).all()
    assert r[0] == 1e-6 * r_max
    assert np.all(np.diff(r) > 0)
    if r.size == 1:
        assert sol.termination.r == r[0]
    else:
        assert r[-2] < sol.termination.r <= r[-1]


def _node_misfit(sol):
    """max over the steps between sol's nodes of |y(end) - node| / max(|node|, 1),
    y(end) the dense output that _node_steps recomputes, at the step's end."""
    if sol.nodes.shape[1] == 1:
        return 0.0
    ends = sol.nodes[1:, 1:]
    y = _dense_output(_node_steps(sol.params, sol.space, sol.config, sol.nodes), sol.nodes[0, 1:])
    return float(np.max(np.abs(y - ends) / np.maximum(np.abs(ends), 1.0)))


@_drawn_solves
def test_rebuilt_steps_end_on_their_nodes(solved):
    """Each step the rebuild recomputes from the nodes, with numpy, ends
    within 1e-13 of the node the scalar stepper accepted, relative to
    max(|y|, 1): the stages are computed apart, so this checks the rebuild
    against the stepper and not against itself."""
    assert _node_misfit(solved) <= 1e-13


def test_a_stage_out_of_order_misses_the_nodes(sinc_solution, monkeypatch):
    """The check above sees a stage taken out of order: with k4 summed from
    k2, k1, k3 in reverse, the sinc profile's steps miss their nodes."""
    assert _node_misfit(sinc_solution) <= 1e-13
    rows = list(plsolution._A_ROWS)
    rows[1] = rows[1][::-1]
    monkeypatch.setattr(plsolution, "_A_ROWS", tuple(rows))
    assert _node_misfit(sinc_solution) > 1e-6


def _count_builds(monkeypatch):
    """The list of calls to solution._profile_from_nodes from now on."""
    calls, build = [], plsolution._profile_from_nodes

    def counted(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(plsolution, "_profile_from_nodes", counted)
    return calls


def test_solved_profile_is_built_on_first_read(sinc_solution, tmp_path, monkeypatch, capsys):
    """A solve that is only written never builds its 2001 samples, in
    process or through the CLI's solve; a profile read back builds them
    once, on the first read of u, w or du, and keeps them.  Construction
    still refuses nodes that no run ends with, and a termination radius
    off the grid rule, before any read."""
    expected = {name: getattr(sinc_solution, name) for name in ("u", "w", "du")}
    calls = _count_builds(monkeypatch)
    sol = pl.solve_radial(sinc_solution.params, sinc_solution.space, sinc_solution.config)
    buf = io.StringIO()
    pl.write_solution_csv(sol, buf)
    argv = ["solve", "--n", "3", "--p", "2", "--a", "1", "--sigma", "1", "--r-max", "4"]
    assert main(argv + ["--out", str(tmp_path / "sinc.csv")]) == 0
    assert "samples=2001" in capsys.readouterr().out
    assert calls == []
    for name in ("u", "w", "du"):
        back = pl.read_solution_csv(io.StringIO(buf.getvalue()))
        assert len(calls) == 0
        first = getattr(back, name)
        assert np.array_equal(_bits(first), _bits(expected[name]))
        assert getattr(back, name) is first
        assert back.u is back.u and back.w is back.w
        assert len(calls) == 1
        calls.clear()
    fields = dict(params=sol.params, space=sol.space, config=sol.config)
    for nodes, termination in [
        (sol.nodes[:2], sol.termination),  # _require_nodes: not (3, m)
        (sol.nodes[:, :-1], sol.termination),  # _require_nodes: not in the last step
        (sol.nodes, pl.Termination("hit_zero", math.inf)),  # _grid: not finite
        (sol.nodes, pl.Termination("hit_zero", 5e-324)),  # _grid: the step underflows
    ]:
        with pytest.raises(ParameterError):
            pl.RadialSolution(**fields, termination=termination, nodes=nodes)
    assert calls == []
    with pytest.raises(ParameterError, match="^a solved profile's u and w are built from"):
        dataclasses.replace(sol, termination=sol.termination)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=st.data(), p=st.sampled_from([1.25, 2.0, 3.5]))
def test_csv_node_values_round_trip(sinc_solution, data, p):
    """Any finite u and w at the nodes, edge floats included, are written as
    their '{:.17g}' text and read back bit for bit, with the profile that
    _profile_from_nodes builds from them, inf or nan where the stages
    overflow (at p = 1.25, |w|^4 overflows numpy's power)."""
    m = sinc_solution.nodes.shape[1]
    u, w = (data.draw(st.lists(CSV_VALUES, min_size=m, max_size=m)) for _ in range(2))
    nodes = np.array([sinc_solution.nodes[0], u, w])
    sol = pl.RadialSolution(
        params=dataclasses.replace(sinc_solution.params, p=p),
        space=sinc_solution.space,
        config=sinc_solution.config,
        termination=sinc_solution.termination,
        nodes=nodes,
    )
    text, back = _round_trip(sol)
    expected = [",".join("{:.17g}".format(x) for x in node) for node in nodes.T]
    assert text.splitlines()[-m:] == expected
    assert np.array_equal(_bits(back.nodes), _bits(nodes))
    profile = _profile_from_nodes(
        back.params, back.space, back.config, nodes, back.termination
    )
    for name, column in zip(("u", "w"), profile):
        assert np.array_equal(_bits(getattr(sol, name)), _bits(column))
        assert np.array_equal(_bits(getattr(back, name)), _bits(column))


def test_solved_profile_is_its_nodes(sinc_solution):
    """A RadialSolution given nodes builds its u and w from them and refuses
    u or w given besides, so a copy of a solved profile by
    dataclasses.replace that keeps the nodes is refused, whatever it
    replaces; and it refuses nodes that no run ends with, so the writer
    never writes what the reader refuses.  A profile needs its nodes or
    both u and w."""
    fields = dict(
        params=sinc_solution.params,
        space=sinc_solution.space,
        config=sinc_solution.config,
        termination=sinc_solution.termination,
    )
    nodes = sinc_solution.nodes
    solved = pl.RadialSolution(**fields, nodes=nodes)
    for name in ("r", "u", "w"):
        assert np.array_equal(_bits(getattr(solved, name)), _bits(getattr(sinc_solution, name)))
    built = (
        "^a solved profile's u and w are built from its nodes: sample one by hand with nodes=None$"
    )
    last_step = "({!r}, {!r}]".format(*nodes[0, -2:].tolist())
    shorter = pl.Termination("hit_zero", float(np.mean(nodes[0, -2:])))
    for changes in (
        dict(u=1.5 * sinc_solution.u),
        dict(w=2.0 * sinc_solution.w),
        dict(termination=shorter),
        dict(params=dataclasses.replace(sinc_solution.params, a=2.0)),
    ):
        with pytest.raises(ParameterError, match=built):
            dataclasses.replace(sinc_solution, **changes)
    with pytest.raises(ParameterError, match=built):
        pl.RadialSolution(**fields, u=sinc_solution.u, w=sinc_solution.w, nodes=nodes)
    for u, w in ((None, None), (sinc_solution.u, None), (None, sinc_solution.w)):
        with pytest.raises(ParameterError, match="^a profile is given by its nodes, or by both u"):
            pl.RadialSolution(**fields, u=u, w=w)
    off_start = nodes.copy()
    off_start[0, 0] = 0.0
    backwards = nodes.copy()
    backwards[0, 3] = backwards[0, 2]
    non_finite = nodes.copy()
    non_finite[1, 2] = math.nan
    for bad, error in [
        (nodes[:2], r"^nodes must be a \(3, m\) array of r, u, w, got \(2, 61\)$"),
        (nodes[:, :0], r"^nodes must be a \(3, m\) array of r, u, w, got \(3, 0\)$"),
        (off_start, "^first radius 0.0 is not the series start 1e-06 r_max = 4e-06$"),
        (backwards, "^node 3 .* is not finite or does not increase the radius$"),
        (non_finite, "^node 2 .* is not finite or does not increase the radius$"),
        (nodes[:, :-1], re.escape(f"termination_r = {fields['termination'].r!r} is outside")),
        (nodes[:, :1], re.escape(f"termination_r = {fields['termination'].r!r} is not the one")),
    ]:
        with pytest.raises(ParameterError, match=error):
            pl.RadialSolution(**fields, nodes=bad)
    with pytest.raises(ParameterError, match=re.escape(f"outside the last step {last_step}")):
        pl.RadialSolution(**fields | dict(termination=pl.Termination("blow_up", 1.0)), nodes=nodes)


def test_write_refuses_a_profile_without_nodes(sinc_solution):
    """A profile sampled by hand has no nodes: it can be checked, but the
    CSV, which stores nodes, refuses it with one line."""
    sampled = dataclasses.replace(sinc_solution, nodes=None)
    pl.check_gradient_estimate(sampled, 2.0)
    buf = io.StringIO()
    with pytest.raises(
        ParameterError, match="^only a solved profile can be written: this one has no nodes$"
    ):
        pl.write_solution_csv(sampled, buf)
    assert buf.getvalue() == ""


# written when ShootingConfig still had min_step and output_points fields and
# Termination a detail field (sinc instance, r_max = 4, 5 output points)
RETIRED_MIN_STEP_CSV = """\
# n=3
# p=2
# a=1
# sigma=1
# K=0
# u0=1
# r_max=4
# abs_tol=1e-10
# rel_tol=1.0000000000000001e-09
# zero_threshold=1e-08
# blowup_threshold=100000000
# min_step=9.9999999999999998e-13
# output_points=5
# termination=hit_zero
# termination_r=3.1415926223734867
# termination_detail={}
r,u,du,w
0,1,0,-0
0.78539815559337167,0.90031631799556755,-0.24600201818832265,-0.24600201818832265
1.5707963111867433,0.63661977864062869,-0.40528473266127835,-0.40528473266127835
2.3561944667801149,0.30010544875362438,-0.42747414419797197,-0.42747414419797197
3.1415926223734867,1.0000000026327382e-08,-0.31830989204867161,-0.31830989204867161
"""


# a step failure written when Termination had a detail field (p = 1.2,
# a = -1, sigma = 3, r_max = 10, 5 output points)
RETIRED_DETAIL_CSV = """\
# n=3
# p=1.2
# a=-1
# sigma=3
# K=0
# u0=1
# r_max=10
# abs_tol=1e-10
# rel_tol=1.0000000000000001e-09
# zero_threshold=1e-08
# blowup_threshold=100000000
# output_points=5
# termination=step_failure
# termination_r=2.7628783052665149
# termination_detail={"failure_r": 2.762878305266515, "message": "Required step size is less than spacing between numbers."}
r,u,du,w
0,1,0,0
0.69071957631662873,1.0000744961230315,0.00064723844735843942,0.23025701034117335
1.3814391526332575,1.0048244249046714,0.021207204146456781,0.4626969997283466
2.0721587289498862,1.0629639776820281,0.21185626738984728,0.73317603895032724
2.7628783052665149,277376.61943381932,1.9512318913129006e+18,4550.527854654154
"""
RETIRED_KEYS = ("# min_step=", "# output_points=", "# termination_detail=")


def _with_solved_nodes(text, params):
    """A retired CSV text, its metadata kept, with its rows replaced by the
    node rows of today's solve of the run it records."""
    config = pl.ShootingConfig(r_max=float(re.search(r"# r_max=(.*)", text)[1]))
    solved = pl.solve_radial(params, pl.ModelSpace(n=3, K=0.0), config)
    buf = io.StringIO()
    pl.write_solution_csv(solved, buf)
    meta = _split_at_header(text)[0]
    _, header, rows = _split_at_header(buf.getvalue())
    return "".join(line + "\n" for line in [*meta, header, *rows])


@pytest.mark.parametrize(
    "text, params, termination",
    [
        (
            RETIRED_MIN_STEP_CSV,
            pl.EquationParams(n=3, p=2.0, a=1.0, sigma=1.0),
            pl.Termination("hit_zero", 3.1415926223734867),
        ),
        (
            RETIRED_DETAIL_CSV,
            pl.EquationParams(n=3, p=1.2, a=-1.0, sigma=3.0),
            pl.Termination("step_failure", 2.762878305266515),
        ),
    ],
    ids=["min_step", "termination_detail"],
)
def test_csv_with_retired_keys_reads_back(text, params, termination):
    """Retired keys are ignored: each file's metadata over the nodes of its
    run reads back to the solution its text without those lines gives, and
    is written back as that text."""
    old_text = _with_solved_nodes(text, params)
    current = "".join(
        ln for ln in old_text.splitlines(keepends=True) if not ln.startswith(RETIRED_KEYS)
    )
    assert current != old_text
    old = pl.read_solution_csv(io.StringIO(old_text))
    new = pl.read_solution_csv(io.StringIO(current))
    assert (old.params, old.termination) == (params, termination)
    assert (old.params, old.space, old.config, old.termination) == (
        new.params,
        new.space,
        new.config,
        new.termination,
    )
    for name in ("r", "u", "du", "w", "nodes"):
        assert np.array_equal(_bits(getattr(old, name)), _bits(getattr(new, name)))
    buf = io.StringIO()
    pl.write_solution_csv(old, buf)
    assert buf.getvalue() == current


@pytest.mark.parametrize(
    "text",
    [_cut(SAMPLE_CSV, "r,u,w"), SAMPLE_CSV, RETIRED_MIN_STEP_CSV, RETIRED_DETAIL_CSV],
    ids=["r,u,w", "r,u,du,w", "min_step", "termination_detail"],
)
def test_csv_refuses_a_radius_off_the_grid(text):
    """No sample radius is read from a file, so none off the grid reaches a
    RadialSolution: r is the grid from 0 to termination_r, whatever the
    node radii.  A file of samples, which carries their radii, here with
    one radius a float step off the grid, is refused: under r,u,w by its
    first radius, 0, which is not the series start, and under r,u,du,w by
    its header."""
    meta, header, rows = _split_at_header(text)
    r, rest = rows[1].split(",", 1)
    rows[1] = f"{np.nextafter(float(r), 0.0):.17g},{rest}"
    off = "\n".join([*meta, header, *rows]) + "\n"
    error = (
        "first radius 0.0 is not the series start 1e-06 r_max = 4e-06"
        if header == "r,u,w"
        else f"unexpected column header: '{header}'"
    )
    with pytest.raises(SolutionFormatError, match=f"^{re.escape(error)}$"):
        pl.read_solution_csv(io.StringIO(off))
    back = pl.read_solution_csv(io.StringIO(_csv("r,u,w", _rows("r,u,w"))))
    assert np.array_equal(_bits(back.r), _bits(np.linspace(0.0, back.termination.r, 2001)))


def test_config_metadata_follows_fields(sinc_solution):
    """One metadata line per ShootingConfig field, in field order; each
    is required."""
    buf = io.StringIO()
    pl.write_solution_csv(sinc_solution, buf)
    text = buf.getvalue()
    names = [f.name for f in dataclasses.fields(pl.ShootingConfig)]
    keys = [ln[2:].partition("=")[0] for ln in text.splitlines() if ln.startswith("# ")]
    assert [k for k in keys if k in names] == names
    for name in names:
        body = "".join(
            ln for ln in text.splitlines(keepends=True) if not ln.startswith(f"# {name}=")
        )
        with pytest.raises(SolutionFormatError, match=name):
            pl.read_solution_csv(io.StringIO(body))


@pytest.mark.parametrize("cls, attr", [(pl.EquationParams, "params"), (pl.ModelSpace, "space")])
def test_params_and_space_metadata_follow_fields(sinc_solution, cls, attr):
    """Each EquationParams and ModelSpace field has a metadata line, is
    required, and reads back as its annotated type."""
    buf = io.StringIO()
    pl.write_solution_csv(sinc_solution, buf)
    text = buf.getvalue()
    keys = [ln[2:].partition("=")[0] for ln in text.splitlines() if ln.startswith("# ")]
    back = getattr(pl.read_solution_csv(io.StringIO(text)), attr)
    assert back == getattr(sinc_solution, attr)
    types = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        assert f.name in keys
        assert type(getattr(back, f.name)) is types[f.name]
        body = "".join(
            ln for ln in text.splitlines(keepends=True) if not ln.startswith(f"# {f.name}=")
        )
        with pytest.raises(SolutionFormatError, match=f.name):
            pl.read_solution_csv(io.StringIO(body))


def test_csv_rejects_missing_metadata(sinc_solution):
    buf = io.StringIO()
    pl.write_solution_csv(sinc_solution, buf)
    body = "\n".join(
        ln for ln in buf.getvalue().splitlines() if not ln.startswith("# p=")
    )
    with pytest.raises(SolutionFormatError):
        pl.read_solution_csv(io.StringIO(body))
