"""Batched shooting: agreement with the scalar scipy solve, run by run, and
independence of each run from the rest of its batch."""

import pytest
from hypothesis import given, settings, strategies as st

import plaplab as pl
from plaplab.errors import ParameterError
from plaplab.solver import shoot_batch


def reference(params, space, config):
    """(kind, r) of the scalar solve; a collapsed span is a step failure."""
    try:
        t = pl.solve_radial(params, space, config).termination
    except ParameterError:
        return "step_failure", None
    return t.kind, t.r


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(
    p=st.floats(1.2, 5.0),
    sigma=st.floats(0.1, 6.0),
    a=st.sampled_from([1.0, -1.0]),
    K=st.floats(0.0, 4.0),
    u0=st.floats(0.25, 4.0),
    r_max=st.floats(1.0, 50.0),
)
def test_batch_of_one_matches_scipy(p, sigma, a, K, u0, r_max):
    params = pl.EquationParams(n=3, p=p, a=a, sigma=sigma)
    space = pl.ModelSpace(n=3, K=K)
    config = pl.ShootingConfig(u0=u0, r_max=r_max)
    kind, r_ref = reference(params, space, config)
    kinds, radii, _ = shoot_batch([params], [u0], space, config)
    assert kinds[0] == kind
    if r_ref is not None:
        assert abs(radii[0] - r_ref) <= 1e-8 * r_ref


def test_runs_independent_of_batch(flat3):
    """A run's result is bitwise the same alone, in a batch, and in that
    batch reversed: no run's arithmetic reads another run."""
    config = pl.ShootingConfig(r_max=50.0)
    params = [
        pl.EquationParams(n=3, p=p, a=a, sigma=s)
        for p in (1.5, 3.0)
        for a, s in ((1.0, 1.0), (1.0, 5.0), (-1.0, 3.0))
    ]
    u0 = [0.5 + 0.25 * i for i in range(len(params))]
    batch = shoot_batch(params, u0, flat3, config)
    backward = shoot_batch(params[::-1], u0[::-1], flat3, config)
    assert set(batch[0]) == {"hit_zero", "reached_rmax", "blow_up"}
    for i, (prm, c) in enumerate(zip(params, u0)):
        alone = shoot_batch([prm], [c], flat3, config)
        for ours, single, reversed_ in zip(batch, alone, backward):
            assert ours[i] == single[0] == reversed_[-1 - i]


def test_reached_rmax_excursion_matches_profile(flat3):
    """The running excursion equals max |u - u0| / u0 of the resampled
    profile: both are taken at r_max for a monotone profile."""
    params = pl.EquationParams(n=3, p=2.0, a=1.0, sigma=5.0)
    config = pl.ShootingConfig(u0=2.0, r_max=50.0)
    sol = pl.solve_radial(params, flat3, config)
    kinds, _, moved = shoot_batch([params], [2.0], flat3, config)
    assert kinds[0] == sol.termination.kind == "reached_rmax"
    assert moved[0] == pytest.approx(max(abs(sol.u - 2.0)) / 2.0, rel=1e-9)


def test_batch_validation(flat3):
    params = pl.EquationParams(n=3, p=2.0, a=1.0, sigma=1.0)
    config = pl.ShootingConfig()
    with pytest.raises(ParameterError):
        shoot_batch([params], [1.0, 2.0], flat3, config)
    with pytest.raises(ParameterError):
        shoot_batch([params], [config.zero_threshold], flat3, config)
    with pytest.raises(ParameterError):
        shoot_batch([params], [1.0], pl.ModelSpace(n=4), config)
    kinds, radii, moved = shoot_batch([], [], flat3, config)
    assert len(kinds) == len(radii) == len(moved) == 0
