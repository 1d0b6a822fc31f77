"""The numpy PCHIP and Simpson ports equal scipy's bit for bit.

scipy stays the oracle here: the checkers use the ports so that they run
without importing scipy, and a verdict must not depend on which is used.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import simpson as scipy_simpson
from scipy.interpolate import PchipInterpolator

import plaplab as pl
from plaplab._quad import pchip, simpson


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


@SETTINGS
@given(grid=grids().filter(lambda grid: len(grid[0]) % 2))
@example(grid=(np.array([0.0, 0.2, 1.5]), np.array([2.0, -1.0, 0.5])))
@example(grid=(np.array([0.0, 0.2, 1.5]), np.array([-0.0, -0.0, -0.0])))  # signed zeros
def test_simpson_matches_scipy(grid):
    """One call and stacked integrands alike, on the odd sample counts the
    port takes: each row of a (k, N) call, C or Fortran ordered, is its own
    1-D call and scipy's, bit for bit."""
    x, y = grid
    assert_bitwise(simpson(y, x=x), scipy_simpson(y, x=x))
    rows = np.stack((y, -y, y[::-1], 1.37 * y))
    for stack in (rows, np.asfortranarray(rows)):
        stacked = simpson(stack, x=x)
        assert stacked.shape == (len(rows),)
        for row, value in zip(rows, stacked):
            assert_bitwise(value, simpson(row, x=x))
            assert_bitwise(value, scipy_simpson(row, x=x))


def test_ports_match_scipy_on_generic_small_grids():
    """Many short non-uniform grids of generic numbers: there each Simpson
    panel and the PCHIP end slopes weigh most in the result, so a changed
    operation order shows in the last bit."""
    rng = np.random.default_rng(2024)
    for _ in range(1500):
        n = int(rng.integers(2, 9))
        x = np.concatenate(([0.0], np.cumsum(rng.uniform(1e-3, 10.0, n - 1))))
        y = rng.uniform(-1e3, 1e3, n)
        if n % 2:
            assert_bitwise(simpson(y, x=x), scipy_simpson(y, x=x))
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
        assert_bitwise(simpson(y, x=sol.r), scipy_simpson(y, x=sol.r))


@pytest.mark.parametrize("port", [pchip, lambda x, y: simpson(y, x=x)])
def test_ports_reject_bad_grids(port):
    with pytest.raises(ValueError, match="equal length"):
        port(np.arange(4.0), np.ones(3))
    with pytest.raises(ValueError, match="strictly increasing"):
        port(np.array([0.0, 1.0, 1.0, 2.0]), np.ones(4))
    with pytest.raises(ValueError, match="strictly increasing"):
        port(np.array([0.0, 2.0, 1.0]), np.ones(3))
    with pytest.raises(ValueError, match="equal length"):
        port(np.arange(4.0), np.ones((2, 3)))
    if port is pchip:  # Simpson takes rows of integrands, PCHIP one curve
        with pytest.raises(ValueError, match="1-D"):
            port(np.arange(4.0), np.ones((2, 4)))
    else:  # and whole panels: an even count is refused, not cut short
        for N in (2, 4, 4000):
            with pytest.raises(ValueError, match=f"odd sample count, got {N}"):
                port(np.linspace(0.0, 1.0, N), np.ones((2, N)))
