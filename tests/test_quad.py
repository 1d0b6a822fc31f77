"""The numpy PCHIP port equals scipy's bit for bit, and the integral
checks' Simpson weights on the unit grid agree with scipy's simpson.

scipy stays the oracle here: the checkers use the port and the weights so
that they run without importing scipy, and a verdict must not depend on
which is used.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import simpson as scipy_simpson
from scipy.interpolate import PchipInterpolator

import plaplab as pl
import plaplab._quad
from plaplab._quad import pchip
from plaplab.geometry import warp
from plaplab.proof import _quadrature, _unit_simpson


def assert_bitwise(ours, theirs):
    ours, theirs = np.asarray(ours, dtype=float), np.asarray(theirs, dtype=float)
    assert ours.shape == theirs.shape
    assert np.array_equal(ours.view(np.uint64), theirs.view(np.uint64))


@st.composite
def grids(draw):
    """Strictly increasing x, uniform or not, and y with sign changes and
    flat runs (repeated values), which reach the zero-slope and end-slope
    branches of PCHIP.  Besides hypothesis' own values, which favour exact
    and extreme numbers, a seeded generator supplies generic ones, whose
    products and quotients round: only those tell operation orders apart."""
    n = draw(st.integers(2, 40))
    x0 = draw(st.floats(-10.0, 10.0))
    kind = draw(st.sampled_from(["uniform", "gaps", "generic"]))
    if kind == "generic":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        x = x0 + np.concatenate(([0.0], np.cumsum(rng.uniform(1e-3, 10.0, n - 1))))
        y = rng.normal(scale=100.0, size=n)
        y[rng.random(n) < 0.2] = 0.0
        return x, y
    if kind == "uniform":
        x = np.linspace(x0, x0 + draw(st.floats(1e-2, 50.0)), n)
    else:
        gaps = draw(st.lists(st.floats(1e-3, 10.0), min_size=n - 1, max_size=n - 1))
        x = x0 + np.concatenate(([0.0], np.cumsum(gaps)))
    value = st.one_of(st.sampled_from([0.0, 1.0, -1.0, 2.5]), st.floats(-1e3, 1e3))
    y = np.array(draw(st.lists(value, min_size=n, max_size=n)))
    return x, y


def evaluation_points(x, t):
    """The knots, both endpoints, points beyond either end and interior points."""
    span = x[-1] - x[0]
    outside = [x[0] - span, x[0] - 1e-9, x[-1] + 1e-9, x[-1] + span]
    return np.concatenate((x, [x[0], x[-1]], outside, x[0] + t * span))


SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")  # as scipy's
@SETTINGS
@given(grid=grids(), t=st.lists(st.floats(0.0, 1.0), max_size=20).map(np.array))
@example(grid=(np.array([0.0, 1.0]), np.array([1.0, -2.0])), t=np.array([0.5]))
@example(grid=(np.array([0.0, 0.5, 3.0]), np.array([0.0, 0.0, 1.0])), t=np.array([0.3]))
def test_pchip_matches_scipy(grid, t):
    x, y = grid
    ours, theirs = pchip(x, y), PchipInterpolator(x, y)
    pts = evaluation_points(x, t)
    assert_bitwise(ours.c, theirs.c)
    assert_bitwise(ours(pts), theirs(pts))
    assert_bitwise(ours.derivative().c, theirs.derivative().c)
    assert_bitwise(ours.derivative()(pts), theirs.derivative()(pts))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")  # as scipy's
@SETTINGS
@given(grid=grids(), t=st.lists(st.floats(0.0, 1.0), max_size=20).map(np.array))
def test_one_lookup_serves_every_interpolant_on_the_grid(grid, t):
    """Interpolants and a derivative on the same breakpoints, evaluated from
    one locate of the points (inside, on the breakpoints and beyond either
    end), equal their own calls and scipy's bit for bit."""
    x, y = grid
    pts = evaluation_points(x, t)
    ours = (pchip(x, y), pchip(x, y[::-1]), pchip(x, y).derivative())
    theirs = (
        PchipInterpolator(x, y),
        PchipInterpolator(x, y[::-1]),
        PchipInterpolator(x, y).derivative(),
    )
    where = ours[0].locate(pts)
    for poly, reference in zip(ours, theirs):
        assert_bitwise(poly.at(where), poly(pts))
        assert_bitwise(poly.at(where), reference(pts))


def test_ports_match_scipy_on_generic_small_grids():
    """Many short non-uniform grids of generic numbers: there the PCHIP end
    slopes weigh most in the result, so a changed operation order shows in
    the last bit."""
    rng = np.random.default_rng(2024)
    for _ in range(1500):
        n = int(rng.integers(2, 9))
        x = np.concatenate(([0.0], np.cumsum(rng.uniform(1e-3, 10.0, n - 1))))
        y = rng.uniform(-1e3, 1e3, n)
        pts = evaluation_points(x, rng.random(4))
        assert_bitwise(pchip(x, y)(pts), PchipInterpolator(x, y)(pts))


@pytest.mark.parametrize("K", [0.0, 1.0])
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_ports_match_scipy_on_solved_profiles(p, K):
    params = pl.EquationParams(n=3, p=p, a=1.0, sigma=1.0)
    sol = pl.solve_radial(params, pl.ModelSpace(n=3, K=K), pl.ShootingConfig(r_max=3.0))
    log = pl.to_log_solution(sol)
    x = np.linspace(0.0, 0.9 * sol.r_end, 4001)
    for y in (sol.u, sol.du, log.f, log.dv):
        ours, theirs = pchip(sol.r, y), PchipInterpolator(sol.r, y)
        assert_bitwise(ours(x), theirs(x))
        assert_bitwise(ours.derivative()(x), theirs.derivative()(x))


def test_pchip_rejects_bad_grids():
    with pytest.raises(ValueError, match="equal length"):
        pchip(np.arange(4.0), np.ones(3))
    with pytest.raises(ValueError, match="strictly increasing"):
        pchip(np.array([0.0, 1.0, 1.0, 2.0]), np.ones(4))
    with pytest.raises(ValueError, match="strictly increasing"):
        pchip(np.array([0.0, 2.0, 1.0]), np.ones(3))
    with pytest.raises(ValueError, match="equal length"):
        pchip(np.arange(4.0), np.ones((2, 3)))
    with pytest.raises(ValueError, match="1-D"):
        pchip(np.arange(4.0), np.ones((2, 4)))


# ---------------------------------------------------------------------------
# the integral checks' quadrature


def test_unit_weights_integrate_cubics_exactly():
    """Simpson's rule is exact on cubics: to rounding on the unit grid, and
    on [0, R] once the weights carry the volume factor (s(R t)/R)^(n-1)."""
    t, w = _unit_simpson()
    assert len(t) == len(w) == 4001 and t[0] == 0.0 and t[-1] == 1.0
    for k in range(4):
        assert t**k @ w == pytest.approx(1 / (k + 1), rel=1e-15)
    R = 3.0
    t, w = _quadrature(pl.ModelSpace(n=3, K=0.0), R)  # weight t^2
    assert R**3 * ((R * t) @ w) == pytest.approx(R**4 / 4, rel=1e-15)
    with pytest.raises(ValueError):
        _unit_simpson()[1][0] = 0.0  # the cached weights are read-only


def _solved(K):
    """The sin(r)/r profile at K = 0 and one K = 1 profile."""
    params = pl.EquationParams(n=3, p=2.0 if K == 0 else 2.5, a=1.0, sigma=1.0)
    sol = pl.solve_radial(params, pl.ModelSpace(n=3, K=K), pl.ShootingConfig(r_max=4.0))
    return sol, pl.to_log_solution(sol)


def _simpson_ball(h, space, x):
    """int_0^R h(r) s(r)^(n-1) dr by scipy's simpson on the grid x of [0, R]."""
    return scipy_simpson(h * warp(space, x) ** (space.n - 1), x=x)


@pytest.mark.parametrize("K", [0.0, 1.0])
def test_sobolev_sums_match_scipy_simpson(K):
    """Each integral of measure_sobolev_ratio, from its report, equals
    scipy's simpson of the same integrand on [0, R] to 1e-13 relative."""
    sol, _ = _solved(K)
    space, n, R = sol.space, sol.space.n, 0.9 * sol.r_end
    g, dg = pl.sobolev_test_function(sol, R)
    rep = pl.measure_sobolev_ratio(g, space, R, dg=dg)
    x = np.linspace(0.0, R, 4001)
    q = n / (n - 2)
    lhs = _simpson_ball(np.abs(g(x)) ** (2 * q), space, x) ** (1 / q)
    rhs_core = R**2 * _simpson_ball(dg(x) ** 2, space, x) + _simpson_ball(g(x) ** 2, space, x)
    volume = _simpson_ball(np.ones_like(x), space, x)
    assert rep.lhs == pytest.approx(lhs, rel=1e-13)
    assert rep.rhs_core == pytest.approx(rhs_core, rel=1e-13)
    assert rep.volume == pytest.approx(volume, rel=1e-13)
    constant = lhs * volume ** (2 / n) / rhs_core
    assert rep.empirical_constant == pytest.approx(constant, rel=1e-13)


@pytest.mark.parametrize("K", [0.0, 1.0])
def test_caccioppoli_integrals_match_scipy(K):
    """Both sides of check_caccioppoli equal the inequality's four integrals
    by scipy's PCHIP on the profile's grid and scipy's simpson on [0, R],
    each integrand as the check's docstring writes it, to 1e-13 of the
    report's scale."""
    _, log = _solved(K)
    space, R = log.space, 0.5 * log.r[-1]
    n, p = space.n, log.params.p
    rep = pl.check_caccioppoli(log, pl.CaccioppoliConfig(), R)
    b, bt = rep.b, rep.beta
    x = np.linspace(0.0, R, 4001)
    f_i = PchipInterpolator(log.r, log.f)
    f, df = np.clip(f_i(x), 0.0, None), f_i.derivative()(x)
    dv = PchipInterpolator(log.r, log.dv)(x)
    eta = pl.cutoff_eta(R)
    e, de = eta(x), eta.derivative(x)
    psi = f**b * e**2
    dpsi = b * f ** (b - 1) * df * e**2 + 2 * f**b * e * de
    with np.errstate(divide="ignore"):
        fpow = np.where(f > 0, f ** (1 - 2 / p), 0.0)
    energy = _simpson_ball((p - 1) * fpow * df * dpsi, space, x)
    f2 = _simpson_ball(f ** (b + 2) * e**2, space, x)
    curv = _simpson_ball(f ** (2 - 2 / p) * psi, space, x)
    mix = _simpson_ball(fpow * df * dv * psi, space, x)
    lhs = energy + bt * f2
    rhs = (n - 1) * space.K * p * curv - (2 * (p - 1) / (n - 1) - p) * mix
    assert abs(rep.lhs - lhs) <= 1e-13 * rep.scale
    assert abs(rep.rhs - rhs) <= 1e-13 * rep.scale
    assert rep.scale > 1e-300 and rep.passed


def _ball_radius(r, where):
    """A Caccioppoli radius R on the grid r: on sample 1000, just above it,
    just below a sample k >= 1000 where R / span rounds onto r[k] / span, at
    the end, or inside the first interval."""
    span = r[-1]
    if where == "on-sample":
        return r[1000]
    if where == "between":
        return float(np.nextafter(r[1000], np.inf))
    if where == "rounds-onto-next":
        k = next(k for k in range(1000, len(r)) if np.nextafter(r[k], 0) / span == r[k] / span)
        return float(np.nextafter(r[k], 0))
    if where == "end":
        return span
    return 0.5 * r[1]


@pytest.mark.parametrize("K", [0.0, 1.0])
@pytest.mark.parametrize("where", ["on-sample", "between", "rounds-onto-next", "end", "first"])
def test_caccioppoli_ball_fit_is_the_full_fit(K, where, monkeypatch):
    """check_caccioppoli fits f and v' only up to the second sample past the
    interval that holds R / span; its report equals, bit for bit, the one
    computed from PCHIP fits over the whole grid."""
    _, log = _solved(K)
    r = log.r
    R = _ball_radius(r, where)
    span = r[-1]
    fitted = []

    def recorded(x, y, upto=None):
        poly = pchip(x, y, upto=upto)
        fitted.append(len(poly.x))
        return poly

    config = pl.CaccioppoliConfig()
    monkeypatch.setattr(plaplab._quad, "pchip", recorded)
    ball = pl.check_caccioppoli(log, config, R)
    interval = np.searchsorted(r[1:-1] / span, R / span, side="right")
    assert fitted == [min(interval + 3, len(r))] * 2
    assert (fitted[0] == len(r)) == (where == "end")
    monkeypatch.setattr(plaplab._quad, "pchip", lambda x, y, upto=None: pchip(x, y))
    full = pl.check_caccioppoli(log, config, R)
    for name in ("lhs", "rhs", "slack", "scale"):
        assert_bitwise(getattr(ball, name), getattr(full, name))
    assert ball.passed == full.passed
