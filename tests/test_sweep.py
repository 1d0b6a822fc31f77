"""Existence sweeps: cell classification, theory comparison, determinism
and independence of each cell from the rest of its batch."""

import math
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

import plaplab as pl
from plaplab.errors import ParameterError


def small_grid(**overrides):
    kwargs = dict(
        n=3,
        a_sign=1.0,
        K=0.0,
        p_min=2.0,
        p_max=2.0,
        p_step=1.0,
        sigma_min=1.0,
        sigma_max=2.0,
        sigma_step=0.5,
        config=pl.ShootingConfig(u0=1.0, r_max=20.0),
    )
    kwargs.update(overrides)
    return pl.SweepGrid(**kwargs)


def test_classify_existence_zero_hit(flat3):
    params = pl.EquationParams(n=3, p=2.0, a=1.0, sigma=1.0)
    cls, r_star = pl.classify_existence(
        params, flat3, pl.ShootingConfig(u0=1.0, r_max=20.0)
    )
    assert cls == "zero_hit"
    assert abs(r_star - math.pi) < 1e-3


def test_classify_existence_blow_up(flat3):
    params = pl.EquationParams(n=3, p=2.0, a=-1.0, sigma=3.0)
    cls, r_star = pl.classify_existence(
        params, flat3, pl.ShootingConfig(u0=1.0, r_max=20.0)
    )
    assert cls == "blow_up"
    assert 0 < r_star < 20.0


def test_classify_existence_persists(flat3):
    params = pl.EquationParams(n=3, p=2.0, a=1.0, sigma=5.0)
    cls, r_star = pl.classify_existence(
        params, flat3, pl.ShootingConfig(u0=1.0, r_max=50.0)
    )
    assert cls == "persists"
    assert r_star is None


def test_classification_invariant_in_center_value(flat3):
    """For K = 0 the center value only rescales coefficient and radius, so
    the cell classification cannot depend on it."""
    config = pl.ShootingConfig(u0=1.0, r_max=50.0)
    for sigma, expected in ((1.0, "zero_hit"), (5.0, "persists")):
        params = pl.EquationParams(n=3, p=2.0, a=1.0, sigma=sigma)
        kinds = {
            pl.classify_existence(params, flat3, config, u0_list=(u0,))[0]
            for u0 in (0.5, 1.0, 2.0)
        }
        assert kinds == {expected}


def test_classify_existence_starts_from_config_u0(flat3):
    """Without u0_list the one center value is config.u0, as in solve_radial
    and a K = 0 SweepGrid; with sigma != p - 1 the zero radius depends on it."""
    params = pl.EquationParams(n=3, p=2.0, a=1.0, sigma=2.0)
    config = pl.ShootingConfig(u0=4.0, r_max=20.0)
    cls, r_star = pl.classify_existence(params, flat3, config)
    assert (cls, r_star) == pl.classify_existence(params, flat3, config, u0_list=(4.0,))
    assert r_star != pl.classify_existence(params, flat3, config, u0_list=(1.0,))[1]
    assert r_star == pytest.approx(pl.solve_radial(params, flat3, config).termination.r, rel=1e-12)


def test_tiny_span_is_indeterminate(flat3):
    """Reaching r_max with the profile still at its center value is not
    persistence; the cell is reported as numerical/indeterminate."""
    params = pl.EquationParams(n=3, p=2.0, a=1.0, sigma=1.0)
    cls, _ = pl.classify_existence(
        params, flat3, pl.ShootingConfig(u0=1.0, r_max=1e-3)
    )
    assert cls == "numerical_failure"


def test_sweep_table_order_and_flags():
    grid = small_grid()
    table = pl.sweep(grid)
    assert len(table) == 3
    sigmas = [c.sigma for c in table]
    assert sigmas == sorted(sigmas)
    for cell in table:
        params = pl.EquationParams(n=3, p=cell.p, a=1.0, sigma=cell.sigma)
        regime = pl.classify_regime(params)
        assert cell.theory_thm1 == regime.thm1_applicable
        assert cell.theory_thm2 == regime.thm2_applicable
        assert cell.classification == "zero_hit"


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    data=st.data(),
    n=st.integers(3, 6),
    a_sign=st.sampled_from([1.0, -1.0]),
    K=st.sampled_from([0.0, 1.0]),
)
def test_sweep_flags_are_classify_regime_flags(data, n, a_sign, K):
    """At K = 0 every cell carries classify_regime's thm1/thm2 flags, and at
    K != 0 both flags are False.  The p column runs across the alpha
    junction 3 - 2/n and the window end 2n - 1, the sigma row across both
    sigma windows."""
    junction, end = 3 - 2 / n, 2 * n - 1
    p_min = data.draw(
        st.sampled_from([junction, math.nextafter(end, 0.0)]) | st.floats(1.05, junction)
    )
    p_step = data.draw(st.floats(0.05, end - 1))
    sigma_min = data.draw(st.floats(0.05, 1.0))
    sigma_step = data.draw(st.floats(0.25, 2.0 * (n + 1)))
    grid = pl.SweepGrid(
        n=n, a_sign=a_sign, K=K,
        p_min=p_min, p_max=p_min + data.draw(st.integers(1, 3)) * p_step, p_step=p_step,
        sigma_min=sigma_min, sigma_max=sigma_min + 3 * sigma_step, sigma_step=sigma_step,
        config=pl.ShootingConfig(r_max=1.0),
    )
    table = pl.sweep(grid)
    assert len(table) == len(grid.p_values) * 4
    for cell in table:
        regime = pl.classify_regime(pl.EquationParams(n=n, p=cell.p, a=a_sign, sigma=cell.sigma))
        flags = (regime.thm1_applicable, regime.thm2_applicable) if K == 0 else (False, False)
        assert (cell.theory_thm1, cell.theory_thm2) == flags


def curved_grid(**overrides):
    """K = 1, p = 2: sigma = 1.75 and 2 persist although they lie in the
    Theorem-1 range, which assumes Ric >= 0."""
    kwargs = dict(K=1.0, sigma_min=1.75, sigma_max=2.0, sigma_step=0.25,
                  config=pl.ShootingConfig(r_max=50.0))
    kwargs.update(overrides)
    return small_grid(**kwargs)


@pytest.mark.parametrize(
    "grid",
    [
        small_grid(p_max=3.0, sigma_min=0.5, sigma_max=5.5, sigma_step=2.5,
                   config=pl.ShootingConfig(r_max=50.0)),
        curved_grid(sigma_min=1.0, sigma_max=2.0, sigma_step=1.0),
    ],
    ids=["K0", "K1"],
)
def test_sweep_cells_equal_per_cell_classification(grid):
    """A cell's verdict does not depend on the batch it was integrated in:
    the sweep gives bitwise the result of classify_existence on that cell
    alone, r_star included."""
    table = pl.sweep(grid)
    space = pl.ModelSpace(n=grid.n, K=grid.K)
    assert {c.classification for c in table} >= {"zero_hit", "persists"}
    for cell in table:
        params = pl.EquationParams(n=grid.n, p=cell.p, a=1.0, sigma=cell.sigma)
        alone = pl.classify_existence(params, space, grid.config, grid.u0_list)
        assert (cell.classification, cell.r_star) == alone


def test_sweep_in_reverse_order():
    """Listing the cells, or the center values, backwards changes no
    cell's result."""
    from plaplab.sweep import _classify_batch

    grid = curved_grid(sigma_min=1.0, sigma_max=2.0, sigma_step=1.0)
    cells = pl.sweep(grid).cells
    params = [pl.EquationParams(n=3, p=c.p, a=1.0, sigma=c.sigma) for c in cells]
    space = pl.ModelSpace(n=3, K=grid.K)
    backward = _classify_batch(params[::-1], space, grid.config, grid.u0_list)
    assert backward[::-1] == [(c.classification, c.r_star) for c in cells]
    u0_backward = replace(grid, u0_list=tuple(reversed(grid.u0_list)))
    assert pl.sweep(u0_backward).cells == cells


def test_sweep_deterministic_across_calls():
    grid = small_grid(sigma_min=0.5, sigma_max=5.5, sigma_step=2.5,
                      config=pl.ShootingConfig(r_max=50.0))
    assert pl.sweep(grid) == pl.sweep(grid)


def test_curved_sweep_flags_no_contradictions(tmp_path):
    """The nonexistence theorems assume Ric >= 0: on hyperbolic space (K > 0)
    a persisting cell in their range contradicts nothing."""
    grid = curved_grid()
    table = pl.sweep(grid)
    assert [c.classification for c in table] == ["persists", "persists"]
    for c in table:
        params = pl.EquationParams(n=3, p=c.p, a=1.0, sigma=c.sigma)
        assert pl.classify_regime(params).thm1_applicable
        assert not (c.theory_thm1 or c.theory_thm2)
    assert pl.compare_with_theory(table).contradiction_count == 0

    from plaplab.cli import main

    cfg = tmp_path / "grid.cfg"
    cfg.write_text(
        "n=3\na_sign=1\nK=1\np_min=2\np_max=2\np_step=1\n"
        "sigma_min=1.75\nsigma_max=2\nsigma_step=0.25\nr_max=50\n"
    )
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "t.csv")]) == 0


@pytest.mark.parametrize(
    "field, value",
    [("p_min", math.nan), ("p_max", math.inf), ("p_step", math.nan), ("p_step", math.inf),
     ("sigma_min", -math.inf), ("sigma_max", math.nan), ("sigma_step", math.nan)],
)
def test_grid_rejects_non_finite_ranges(field, value):
    with pytest.raises(ParameterError, match=field):
        small_grid(**{field: value})


def test_default_scan_centres_on_config_u0():
    """The default center values are config.u0 at K = 0 and u0/4, u0, 4 u0
    at K > 0; at u0 = 1 they are (1,) and (0.25, 1, 4)."""
    config = pl.ShootingConfig(u0=2.0, r_max=20.0)
    assert small_grid(config=config).u0_list == (2.0,)
    assert small_grid(K=1.0, config=config).u0_list == (0.5, 2.0, 8.0)
    assert small_grid().u0_list == (1.0,)
    assert small_grid(K=1.0).u0_list == (0.25, 1.0, 4.0)


@pytest.mark.parametrize(
    "overrides, value",
    [
        # the default scan's 4 u0 at K > 0 reaches the blow-up threshold 1e8
        (dict(K=1.0, config=pl.ShootingConfig(u0=3e7, r_max=20.0)), "120000000.0"),
        (dict(u0_list=(1.0, 1e8)), "100000000.0"),
        (dict(u0_list=(1e-8, 1.0)), "1e-08"),
    ],
)
def test_grid_rejects_center_value_outside_thresholds(overrides, value):
    """A center value, given or default, outside (zero_threshold,
    blowup_threshold) is an error in the grid, named with the thresholds."""
    with pytest.raises(ParameterError) as err:
        small_grid(**overrides)
    assert str(err.value) == (
        f"center value u0 = {value} is outside (zero_threshold, blowup_threshold)"
        " = (1e-08, 100000000.0)"
    )


def test_grid_rejects_nan_center_value():
    with pytest.raises(ParameterError, match="u0 must be positive and finite, got nan"):
        small_grid(u0_list=(1.0, math.nan))


@pytest.mark.filterwarnings("error")
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(3, 6),
    data=st.data(),
    a_sign=st.sampled_from([1.0, -1.0]),
    sigma=st.one_of(st.floats(-6.3, -0.03), st.floats(0.05, 8.0)),
    K=st.one_of(st.just(0.0), st.floats(0.0, 4.0)),
    # decades of |a|, zero_threshold, u0, blowup_threshold and r_max
    decades=st.tuples(
        *(st.floats(lo, hi) for lo, hi in ((-1, 1), (-12, -3), (-2, 2), (3, 14), (-1, 2)))
    ),
)
def test_classify_existence_never_raises_on_admissible_input(n, data, a_sign, sigma, K, decades):
    """Any (n, p, a, sigma, K) of the window, center value and thresholds
    over decades (zero_threshold < u0 < blowup_threshold) and r_max give one
    of the four labels, without an error or a warning."""
    p = data.draw(st.floats(1.0, 2 * n - 1.0, exclude_min=True, exclude_max=True))
    a_abs, zt, u0, bt, r_max = (10.0**e for e in decades)
    a = a_sign * a_abs
    config = pl.ShootingConfig(u0=u0, r_max=r_max, zero_threshold=zt, blowup_threshold=bt)
    params = pl.EquationParams(n=n, p=p, a=a, sigma=sigma)
    label, r_star = pl.classify_existence(params, pl.ModelSpace(n=n, K=K), config)
    assert label in ("zero_hit", "blow_up", "persists", "numerical_failure")
    assert (r_star is None) == (label in ("persists", "numerical_failure"))


def test_classify_existence_rejects_center_value_outside_thresholds(flat3):
    """classify_existence names a center value outside the thresholds
    instead of counting its run as a numerical failure; shoot_batch, which
    checks for it, names the first such value in ShootingConfig's words."""
    params = pl.EquationParams(n=3, p=2.0, a=1.0, sigma=3.0)
    config = pl.ShootingConfig(r_max=50.0)
    assert pl.classify_existence(params, flat3, config, (1.0,))[0] == "zero_hit"
    with pytest.raises(ParameterError, match=r"center value u0 = 200000000\.0 is outside"):
        pl.classify_existence(params, flat3, config, (1.0, 2e8))
    with pytest.raises(ParameterError, match=r"center value u0 = 1e-09 is outside"):
        pl.shoot_batch([params] * 3, [1.0, 1e-9, 2e8], flat3, config)


def test_sweep_empty_sigma_range():
    """An inverted range is an error in the grid itself, not an empty sweep."""
    with pytest.raises(ParameterError, match="inverted sigma range"):
        small_grid(sigma_min=2.0, sigma_max=1.0)
    with pytest.raises(ParameterError, match="inverted p range"):
        small_grid(p_min=3.0, p_max=2.0)


def test_compare_with_theory_no_contradictions():
    table = pl.sweep(small_grid())
    comp = pl.compare_with_theory(table)
    assert comp.contradiction_count == 0
    assert comp.n_failures == 0
    assert comp.boundary == {2.0: None}


def test_compare_with_theory_detects_injected_persistence():
    table = pl.sweep(small_grid())
    cells = list(table.cells)
    fake = replace(cells[1], classification="persists", r_star=None)
    bad = pl.SweepTable(grid=table.grid, cells=tuple([cells[0], fake, cells[2]]))
    comp = pl.compare_with_theory(bad)
    assert comp.contradiction_count == 1
    assert comp.contradictions[0].sigma == cells[1].sigma


def test_negative_a_column_blows_up():
    grid = small_grid(a_sign=-1.0, sigma_min=2.0, sigma_max=3.0, sigma_step=1.0)
    table = pl.sweep(grid)
    for cell in table:
        assert cell.classification in ("zero_hit", "blow_up")
        assert cell.theory_thm1  # sigma > sigma2 = 1.1835
    assert pl.compare_with_theory(table).contradiction_count == 0


def test_curved_failures_are_small_center_values_that_barely_move():
    """On the 264-cell grid at K = 1, a = -1, r_max = 50 with center values
    0.25, 1 and 4, 17 cells fail, all for one reason: the u0 = 0.25 run
    reaches r_max within _MOVE_TOL of its center value, so it neither
    persists nor ends, while u0 = 1 and u0 = 4 blow up."""
    from plaplab.solver import shoot_batch
    from plaplab.sweep import _MOVE_TOL

    grid = small_grid(a_sign=-1.0, K=1.0, p_min=1.5, p_max=4.0, p_step=0.25, sigma_min=0.25,
                      sigma_max=6.0, sigma_step=0.25, config=pl.ShootingConfig(r_max=50.0))
    assert grid.u0_list == (0.25, 1.0, 4.0)
    failing = [c for c in pl.sweep(grid) if c.classification == "numerical_failure"]
    assert len(failing) == 17
    params = [pl.EquationParams(n=3, p=c.p, a=-1.0, sigma=c.sigma) for c in failing]
    kinds, _, moved = shoot_batch(
        [prm for prm in params for _ in grid.u0_list],
        [u0 for _ in params for u0 in grid.u0_list],
        pl.ModelSpace(n=3, K=1.0),
        grid.config,
    )
    assert kinds.reshape(-1, 3).tolist() == [["reached_rmax", "blow_up", "blow_up"]] * 17
    assert all(0 < x < _MOVE_TOL for x in moved[::3])


def test_monotone_zero_radius_in_sigma():
    grid = small_grid(sigma_min=0.5, sigma_max=2.5, sigma_step=0.5,
                      config=pl.ShootingConfig(u0=1.0, r_max=50.0))
    table = pl.sweep(grid)
    radii = [c.r_star for c in table]
    assert all(a < b for a, b in zip(radii, radii[1:]))


def test_grid_validation():
    with pytest.raises(ParameterError):
        small_grid(p_step=0.0)
    with pytest.raises(ParameterError):
        small_grid(a_sign=0.0)
    with pytest.raises(ParameterError):
        small_grid(K=-1.0)
    with pytest.raises(ParameterError):
        small_grid(u0_list=())


@pytest.mark.parametrize("empty", [(), []], ids=["tuple", "list"])
def test_empty_center_values_are_refused_alike(flat3, empty):
    """A cell with no center value shoots no run: classify_existence
    refuses it with SweepGrid's error."""
    params = pl.EquationParams(n=3, p=2.0, a=1.0, sigma=1.0)
    config = pl.ShootingConfig(r_max=20.0)
    with pytest.raises(ParameterError, match="u0_list must be nonempty"):
        small_grid(u0_list=empty)
    with pytest.raises(ParameterError, match="u0_list must be nonempty"):
        pl.classify_existence(params, flat3, config, u0_list=empty)


def test_default_u0_scan_depends_on_curvature():
    assert small_grid().u0_list == (1.0,)
    assert small_grid(K=1.0).u0_list == (0.25, 1.0, 4.0)


def test_sweep_csv_format(tmp_path):
    table = pl.sweep(small_grid())
    out = tmp_path / "table.csv"
    pl.write_sweep_csv(table, str(out))
    lines = out.read_text().splitlines()
    assert lines[0] == "p,sigma,classification,r_star,theory_thm1,theory_thm2"
    assert len(lines) == 1 + len(table)
    first = lines[1].split(",")
    assert first[0] == "2" and first[2] == "zero_hit"
    assert first[4] in ("true", "false")


def test_summary_serialization():
    comp = pl.compare_with_theory(pl.sweep(small_grid()))
    d = comp.to_dict()
    assert d["contradiction_count"] == 0
    assert "caveat" in d and "r_max" in d
    import json

    json.loads(json.dumps(d))
