"""Batched shooting: agreement with scipy's solve and with solve_radial,
run by run, and independence of each run from the rest of its batch."""

import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import plaplab as pl
from plaplab.errors import ParameterError
from plaplab.solver import (
    _blew_up,
    _blowup_event,
    _dense_output,
    _first_event,
    _float_maximum,
    _step_event,
    _zero_event,
    shoot_batch,
)

from conftest import run_bounded, scipy_reference


def reference(params, space, config):
    """(kind, r) of scipy's solve; a rejected series start is a step failure."""
    try:
        t = scipy_reference(params, space, config).termination
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


@pytest.mark.parametrize(
    "p, a, sigma, K",
    [
        (1.5, 1.0, 1.0, 0.0),  # hit_zero
        (1.5, 1.0, 5.0, 0.0),  # reached_rmax
        (1.5, -1.0, 3.0, 0.0),  # blow_up
        (3.0, 4.0, 1.0, 1.0),  # hit_zero, curved
        (1.2, -1.0, 3.0, 0.0),  # step_failure
    ],
)
def test_batch_of_one_matches_solve_radial(p, a, sigma, K):
    """The two steppers end a run alike: same kind, same radius, on one
    run of each termination kind."""
    params = pl.EquationParams(n=3, p=p, a=a, sigma=sigma)
    space = pl.ModelSpace(n=3, K=K)
    config = pl.ShootingConfig(r_max=10.0)
    t = pl.solve_radial(params, space, config).termination
    kinds, radii, _ = shoot_batch([params], [config.u0], space, config)
    assert kinds[0] == t.kind
    assert abs(radii[0] - t.r) <= 1e-8 * t.r


@st.composite
def shooting_runs(draw):
    """(n, p, a, sigma, K, u0, r_max, zero_threshold, blowup_threshold)
    across the admissible window, center values and thresholds spread over
    decades."""
    n = draw(st.integers(3, 6))
    p = draw(st.floats(1.0, 2 * n - 1.0, exclude_min=True, exclude_max=True))
    a = draw(st.sampled_from([1.0, -1.0])) * 10 ** draw(st.floats(-1.0, 1.0))
    sigma = draw(st.one_of(st.floats(-6.3, -0.03), st.floats(0.05, 8.0)))
    K = draw(st.one_of(st.just(0.0), st.floats(0.0, 4.0)))
    u0, r_max, zt, bt = (10 ** draw(st.floats(lo, hi)) for lo, hi in
                         ((-2.0, 2.0), (-1.0, 2.0), (-12.0, -4.0), (4.0, 14.0)))
    return n, p, a, sigma, K, u0, r_max, zt, bt


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(run=shooting_runs())
# every step from the series start fails: both end as step_failure at the start
@example(run=(5, 1.5, -1.0, 7.3249018655778295, 3.3963356340842843, 66.66106837805097, 1.0,
              2.23275479940515e-06, 1240490256426.4636))
def test_drawn_batch_of_one_matches_solve_radial(run):
    """The two steppers end a run alike: same kind, same radius to 1e-8
    relative (the steps leading to an event are computed apart, so the
    radii agree to rounding, not bitwise).  Where solve_radial rejects the
    series start, shoot_batch reports a step failure at radius 0.

    shoot_batch's excursion is |u - u0| / u0 of the run's last accepted
    state: at r_max it is that of solve_radial's last sample, to rounding,
    and a run that hit zero has moved from u0 to at most zero_threshold."""
    n, p, a, sigma, K, u0, r_max, zt, bt = run
    assume(zt < u0 < bt)
    params = pl.EquationParams(n=n, p=p, a=a, sigma=sigma)
    space = pl.ModelSpace(n=n, K=K)
    config = pl.ShootingConfig(u0=u0, r_max=r_max, zero_threshold=zt, blowup_threshold=bt)
    kinds, radii, moved = shoot_batch([params], [u0], space, config)
    try:
        sol = pl.solve_radial(params, space, config)
    except ParameterError as exc:
        assert "series start" in str(exc)
        assert (kinds[0], radii[0], moved[0]) == ("step_failure", 0.0, 0.0)
        return
    t = sol.termination
    assert kinds[0] == t.kind
    assert abs(radii[0] - t.r) <= 1e-8 * t.r
    if t.kind == "reached_rmax":
        assert moved[0] == pytest.approx(abs(sol.u[-1] - u0) / u0, rel=1e-9, abs=1e-12)
    elif t.kind == "hit_zero":
        assert moved[0] >= 1 - zt / u0 - 1e-12


def test_event_rules_match_the_comparisons_they_replace():
    """The start test (both event functions > 0) and the failed-step rule
    (the blow-up event at 0.99 bt is <= 0) decide as the comparisons they
    replace, kept here as the reference, on arrays and on floats: at and
    next to each threshold, at 0, -1 and -bt, and on +-inf and nan.  The
    reference maximum has np.maximum's nan rule; Python's max, which the
    float stepper took before, differs from it only where w is nan, and
    an accepted step never holds nan (its error norm is nan)."""
    zt, bt = 1e-8, 1e8
    values = [0.0, -1.0, math.inf, -math.inf, math.nan, -bt]
    for x in (zt, bt, 0.99 * bt):
        values += [x, math.nextafter(x, -math.inf), math.nextafter(x, math.inf)]
    u, w = (grid.ravel() for grid in np.meshgrid(values, values))
    inside = (zt < u) & (abs(u) < bt) & (abs(w) < bt)
    blown = np.maximum(abs(u), abs(w)) >= 0.99 * bt
    assert u.size == 225 and 0 < np.count_nonzero(inside) < np.count_nonzero(blown) < 225
    assert np.array_equal((_zero_event(u, zt) > 0) & (_blowup_event(u, w, bt) > 0), inside)
    assert np.array_equal(_blew_up(u, w, bt), blown)
    for x, y, inside_xy, blown_xy in zip(u.tolist(), w.tolist(), inside, blown):
        g_zero, g_blow = _zero_event(x, zt), _blowup_event(x, y, bt, _float_maximum)
        assert (g_zero > 0 and g_blow > 0) == inside_xy
        assert _blew_up(x, y, bt, _float_maximum) == blown_xy
        assert float(_float_maximum(x, y)).hex() == float(np.maximum(x, y)).hex()


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


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(
    K=st.floats(0.0, 4.0),
    runs=st.lists(
        st.tuples(
            st.floats(1.2, 5.0, exclude_min=True, exclude_max=True),
            st.sampled_from([1.0, -1.0]),
            st.floats(0.1, 6.0, exclude_min=True, exclude_max=True),
            st.floats(0.25, 4.0),
        ),
        min_size=2,
        max_size=6,
    ),
    data=st.data(),
)
def test_runs_independent_of_shuffled_batch(K, runs, data):
    """Each run alone equals itself inside a shuffled batch, bit for bit,
    on flat and curved spaces: no run's arithmetic reads another run."""
    space = pl.ModelSpace(n=3, K=K)
    config = pl.ShootingConfig(r_max=20.0)
    order = data.draw(st.permutations(range(len(runs))))

    def shoot(subset):
        params = [pl.EquationParams(n=3, p=p, a=a, sigma=s) for p, a, s, _ in subset]
        kinds, radii, moved = shoot_batch(params, [c for *_, c in subset], space, config)
        return [(str(k), float(r).hex(), float(x).hex()) for k, r, x in zip(kinds, radii, moved)]

    batch = shoot([runs[i] for i in order])
    for position, i in enumerate(order):
        assert batch[position] == shoot([runs[i]])[0]


# shoot_batch's (kind, r_end, excursion) per run, r_end and the excursion as
# float.hex, on GOLDEN_PARAMS x GOLDEN_U0 at r_max = 10 for each K
GOLDEN_PARAMS = (
    (1.5, 1.0, 1.0),
    (1.5, -1.0, 3.0),
    (3.0, 1.0, 1.0),
    (1.2, -1.0, 3.0),
    (4.0, -1.0, 2.0),
    (2.0, 1.0, 0.5),
)
GOLDEN_U0 = (0.25, 1.0, 4.0)
GOLDEN = {
    0.0: """
hit_zero 0x1.a5c2cda96c51cp+2 0x1.0023d1bc88268p+0
hit_zero 0x1.09b158adf0232p+2 0x1.0292167b79855p+0
hit_zero 0x1.4ec07cbd25984p+1 0x1.001f008f33e0bp+0
reached_rmax 0x1.4000000000000p+3 0x1.395e4d066a0e0p-5
blow_up 0x1.38f52bab3d114p+1 0x1.06b75b9f52c5bp+20
blow_up 0x1.f0ca14b12b8e4p-3 0x1.0ca9dca2cb4b3p+18
hit_zero 0x1.699b708a2d7a2p+0 0x1.00397cd6b2cebp+0
hit_zero 0x1.1f02008e9792ap+1 0x1.002ae28294c49p+0
hit_zero 0x1.c798b574cf662p+1 0x1.001d4b6079e02p+0
reached_rmax 0x1.4000000000000p+3 0x1.56ef9ede80000p-19
step_failure 0x1.61a5ff0df94a9p+1 0x1.0f32485305736p+18
step_failure 0x1.bd91b00b8b8aep-4 0x1.24c59fcd0d6a3p+18
reached_rmax 0x1.4000000000000p+3 0x1.3ea74de11023dp+7
reached_rmax 0x1.4000000000000p+3 0x1.ce34769ad4b75p+5
reached_rmax 0x1.4000000000000p+3 0x1.7134caabe50fbp+4
hit_zero 0x1.f24aa3a2fe06fp+0 0x1.0000322f8f00cp+0
hit_zero 0x1.605868bfc25f8p+1 0x1.00002fbe05d5fp+0
hit_zero 0x1.f24aa486f0bacp+1 0x1.000183353f3d7p+0
""",
    1.0: """
reached_rmax 0x1.4000000000000p+3 0x1.703657e5481e2p-2
reached_rmax 0x1.4000000000000p+3 0x1.6b8afec06a068p-1
reached_rmax 0x1.4000000000000p+3 0x1.d6ce006066a67p-1
reached_rmax 0x1.4000000000000p+3 0x1.13cb2b8cb8200p-9
blow_up 0x1.7924164b7e0eep+1 0x1.0d185dd87b057p+20
blow_up 0x1.f1af11f1a6b02p-3 0x1.0b95de620401dp+18
hit_zero 0x1.7d3229b2635f6p+0 0x1.00313acd36287p+0
hit_zero 0x1.47a728f9aa2b2p+1 0x1.001a17c9e8a05p+0
hit_zero 0x1.37006f61c771ep+2 0x1.0006eaf258949p+0
reached_rmax 0x1.4000000000000p+3 0x1.fe06e00000000p-31
step_failure 0x1.6afb1b68d2fcbp+2 0x1.8a2004a0d3b74p+17
step_failure 0x1.bde463d4d7153p-4 0x1.26b401ffbec92p+18
reached_rmax 0x1.4000000000000p+3 0x1.7d359363cb1b3p+6
reached_rmax 0x1.4000000000000p+3 0x1.17c0e15af98bcp+5
reached_rmax 0x1.4000000000000p+3 0x1.c64ade6bf4db6p+3
hit_zero 0x1.260c5dd616634p+1 0x1.000063d051823p+0
hit_zero 0x1.f1021bbb8fa4bp+1 0x1.00004e387f2b9p+0
hit_zero 0x1.db7958646df16p+2 0x1.00004b6c2bc40p+0
""",
    4.0: """
reached_rmax 0x1.4000000000000p+3 0x1.0510e4c945bdcp-3
reached_rmax 0x1.4000000000000p+3 0x1.7dc4308f453dap-2
reached_rmax 0x1.4000000000000p+3 0x1.6cb9c82385d32p-1
reached_rmax 0x1.4000000000000p+3 0x1.2999d59a83000p-11
blow_up 0x1.38438e97ca320p+2 0x1.0a93699b77c43p+20
blow_up 0x1.f46182806858ep-3 0x1.07b8aaa9f2a78p+18
hit_zero 0x1.bc9cf76975fd4p+0 0x1.002631a857bf2p+0
hit_zero 0x1.bd92324c2c9b8p+1 0x1.000bf0affae97p+0
hit_zero 0x1.d1ce3c23dd254p+2 0x1.0004edb5bb2d3p+0
reached_rmax 0x1.4000000000000p+3 0x1.1f81800000000p-35
reached_rmax 0x1.4000000000000p+3 0x1.32f991cccf400p-7
step_failure 0x1.bedd7755276d0p-4 0x1.18d8b3b865b23p+18
reached_rmax 0x1.4000000000000p+3 0x1.0911f96bce70dp+6
reached_rmax 0x1.4000000000000p+3 0x1.8d04394d8be6fp+4
reached_rmax 0x1.4000000000000p+3 0x1.4a5af02288438p+3
hit_zero 0x1.db79540840af1p+1 0x1.0000893632413p+0
hit_zero 0x1.e156bfafc3c32p+2 0x1.000003e48a38ap+0
reached_rmax 0x1.4000000000000p+3 0x1.b1447210051c1p-1
""",
}


@pytest.mark.parametrize("K", sorted(GOLDEN))
def test_batch_matches_golden_bits(K):
    """A mixed batch (every termination kind, a = +-1) ends bit for bit as
    recorded.  The sweep reference tables compare r_star only to 1e-8
    relative; a reordered stage sum or a changed clamp in the lockstep loop
    shows here in the last bit of some run."""
    params = [pl.EquationParams(n=3, p=p, a=a, sigma=s) for p, a, s in GOLDEN_PARAMS]
    kinds, radii, moved = shoot_batch(
        [prm for prm in params for _ in GOLDEN_U0],
        [u0 for _ in params for u0 in GOLDEN_U0],
        pl.ModelSpace(n=3, K=K),
        pl.ShootingConfig(r_max=10.0),
    )
    ours = [f"{k} {float(r).hex()} {float(x).hex()}" for k, r, x in zip(kinds, radii, moved)]
    assert ours == GOLDEN[K].split("\n")[1:-1]
    assert set(kinds) == set(pl.Termination.KINDS)


def test_reached_rmax_excursion_matches_profile(flat3):
    """The excursion, read at the last accepted state, equals
    max |u - u0| / u0 of the resampled profile: the profile is monotone, so
    both are taken at r_max."""
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
    # both steppers refuse an r_max whose series start 1e-6 r_max is 0 or
    # too small for the 2001 samples of a profile to increase strictly
    for r_max in ("1e-320", "4e-318"):
        tiny = pl.ShootingConfig(r_max=float(r_max))
        for run in (lambda: shoot_batch([params], [1.0], flat3, tiny),
                    lambda: pl.solve_radial(params, flat3, tiny)):
            with pytest.raises(ParameterError, match=f"^r_max = {r_max} is too small"):
                run()
    kinds, radii, moved = shoot_batch([], [], flat3, config)
    assert len(kinds) == len(radii) == len(moved) == 0


# ---------------------------------------------------------------------------
# solve_radial's scalar event root against shoot_batch's numpy one


OVERFLOW_BATCH = """
import json
import plaplab as pl
flat = pl.ModelSpace(n=3)
params = [pl.EquationParams(3, 2.0, 1.0, 60.0), pl.EquationParams(3, 2.0, 1.0, 1.0)]
kinds, radii, _ = pl.shoot_batch(params, [1e7, 1.0], flat, pl.ShootingConfig(r_max=4.0))
print(json.dumps([kinds.tolist(), radii.tolist()]))
"""


def test_overflowing_run_fails_without_stalling_its_batch():
    """u0**sigma = 1e420 overflows the start of the first run: it ends as
    step_failure, silently, and its batch-mate still hits zero at pi."""
    proc = run_bounded("-W", "error", "-c", OVERFLOW_BATCH)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    kinds, radii = json.loads(proc.stdout)
    assert kinds == ["step_failure", "hit_zero"]
    assert abs(radii[1] - np.pi) < 1e-6


NAN_STEP_BATCH = """
import json
import plaplab as pl
flat = pl.ModelSpace(n=3)
params = [pl.EquationParams(3, 2.0, 1.0, 1.0), pl.EquationParams(3, 1.5, -1.0, 2.0)]
kinds, radii, _ = pl.shoot_batch(params, [1.0, 2.0], flat, pl.ShootingConfig(r_max=1e-303))
print(json.dumps([kinds.tolist(), radii.tolist()]))
"""


def test_nan_initial_step_fails_without_stalling_its_batch():
    """At r_max = 1e-303 every start is finite and inside the thresholds,
    but the warp term (n-1)/r overflows at r = 1e-309, so each run's
    initial step is nan.  A nan step counts as below the step floor: both
    runs end as step_failure at the start instead of stepping forever."""
    proc = run_bounded("-W", "error", "-c", NAN_STEP_BATCH)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert json.loads(proc.stdout) == [["step_failure", "step_failure"], [1e-309, 1e-309]]


def random_step(rng, t_scale):
    """(t_old, t_new, y_old, Q) of one step as shoot_batch holds it, with
    random stage combinations, and thresholds zt and bt that the zero and
    blow-up functions cross at random points inside the step."""
    t_old = rng.uniform(0.0, 3.0) * t_scale
    t_new = t_old + rng.uniform(1e-3, 1.0) * t_scale
    step = (
        np.array([t_old]),
        np.array([t_new]),
        rng.normal(size=(2, 1)),
        rng.normal(size=(4, 2, 1)),
    )
    u_cross = _dense_output(step, t_old + rng.random() * (t_new - t_old))[0, 0]
    y_cross = _dense_output(step, t_old + rng.random() * (t_new - t_old))[:, 0]
    return step, u_cross, float(np.max(np.abs(y_cross)))


def event_bits(step, fire_zero, fire_blow, zt, bt):
    """(hit, radius bits) from shoot_batch's _first_event and from
    _step_event on the same step."""
    with np.errstate(all="ignore"):
        hit, r = _first_event(step, np.array([fire_zero]), np.array([fire_blow]), zt, bt)
    t_old, t_new, y_old, q = step
    scalar = (float(t_old[0]), float(t_new[0]), tuple(y_old[:, 0].tolist()), q[..., 0].tolist())
    ours = _step_event(scalar, fire_zero, fire_blow, zt, bt)
    return (bool(hit[0]), float(r[0]).hex()), (ours[0], float(ours[1]).hex())


@pytest.mark.parametrize(
    "fire_zero, fire_blow", [(True, False), (False, True), (True, True)],
    ids=["zero", "blow_up", "both"],
)
def test_step_event_matches_first_event(fire_zero, fire_blow):
    """Bit for bit, on generic numbers: a changed midpoint, tolerance or
    polynomial evaluation order shows in the last bit of some root."""
    rng = np.random.default_rng(9)
    for t_scale in (1e-6, 1.0, 1e3):
        for _ in range(150):
            step, zt, bt = random_step(rng, t_scale)
            reference, ours = event_bits(step, fire_zero, fire_blow, zt, bt)
            assert ours == reference


def test_step_event_edge_cases():
    """A tie goes to the zero event; nan in either component and brackets
    whose midpoint overflows end as in numpy."""
    t = (np.array([0.5]), np.array([0.75]))
    # u starts on the zero threshold and w on the blow-up one, and both
    # cross at once: every midpoint is past both, so the roots are equal
    tie = (*t, np.array([[1e-8], [1e8]]), np.array([[[-1.0], [2.0]]] * 4))
    (hit_zero, r_zero), _ = event_bits(tie, True, False, 1e-8, 1e8)
    (hit_blow, r_blow), _ = event_bits(tie, False, True, 1e-8, 1e8)
    assert hit_zero and not hit_blow and r_zero == r_blow
    assert event_bits(tie, True, True, 1e-8, 1e8) == ((True, r_zero),) * 2
    for component in (0, 1):
        q = np.ones((4, 2, 1))
        q[2, component] = np.nan
        step = (*t, np.array([[0.5], [0.5]]), q)
        reference, ours = event_bits(step, False, True, 0.1, 0.6)
        assert ours == reference
    # lo + hi overflows at the first midpoint; in the second step it
    # overflows only in the final 0.5 (lo + hi), as the bracket closes on t_new
    steps = (
        (0.5e308, 1.5e308, -1.0),
        (float.fromhex("0x1.fffffffffee68p+1022"), float.fromhex("0x1.0000000000001p+1023"), 1.0),
    )
    for t_old, t_new, slope in steps:
        step = (np.array([t_old]), np.array([t_new]), np.array([[1.0], [0.0]]),
                np.full((4, 2, 1), slope))
        for fires in ((True, False), (False, True)):
            reference, ours = event_bits(step, *fires, 0.5, 2.0)
            assert ours == reference
