"""Existence sweeps: cell classification, theory comparison, determinism
and independence of each cell from the rest of its batch."""

import math
from dataclasses import replace

import pytest

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
        assert cell.theory_thm1 == regime.nonexistence_thm1
        assert cell.theory_thm2 == regime.nonexistence_thm2
        assert cell.classification == "zero_hit"


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
        assert pl.classify_regime(params).nonexistence_thm1
        assert not (c.theory_thm1 or c.theory_thm2)
    assert pl.compare_with_theory(table).contradiction_count == 0

    from plaplab.cli import main

    cfg = tmp_path / "grid.cfg"
    cfg.write_text(
        "n=3\na_sign=1\nK=1\np_min=2\np_max=2\np_step=1\n"
        "sigma_min=1.75\nsigma_max=2\nsigma_step=0.25\nr_max=50\n"
    )
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "t.csv")]) == 0


def test_sweep_empty_sigma_range():
    grid = small_grid(sigma_min=2.0, sigma_max=1.0)  # lenient at library level
    table = pl.sweep(grid)
    assert len(table) == 0
    comp = pl.compare_with_theory(table)
    assert comp.contradiction_count == 0


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

    json.loads(comp.to_json())
