"""A ledger of wrong verdicts across the admissible window.

Fixed grids are swept at r_max = 50 with the default center values, and
each grid's cells are counted twice: cells whose label contradicts a sharp
statement about the radial problem, and cells that read numerical_failure,
which fail without a reason.  The sharp statements hold at K = 0:

* a < 0: a finite-radius blow-up needs sigma > p - 1 (Keller, CPAM 10
  (1957); Osserman, Pacific J. Math. 7 (1957)), so blow_up with
  sigma <= p - 1 is wrong;
* a > 0: (s^(n-1) w)' = -a u^sigma s^(n-1) < 0, so u falls from u0 and
  cannot blow up; and every solution hits zero when p >= n (a positive
  p-superharmonic function on R^n is constant) or sigma < p* - 1 =
  (n(p-1)+p)/(n-p) (Serrin & Zou, Acta Math. 189 (2002); every sigma < 0
  is below it), so blow_up or persists there is wrong.

The test prints every count and fails when a K = 0 count rises above the
value written here; a change that lowers a count lowers it here and names
the changed cells in CHANGES.md.  No sharp result covers K = 1, so the
K = 1 counts are printed but not gated.  Two rows count checker points
on solved profiles: the Caccioppoli row those whose verdict is vacuous
(its scale at the 1e-300 floor) or NaN, the Sobolev row those whose
measured constant is NaN.
"""

import math

import numpy as np
import pytest

import plaplab as pl

_FLAT_P, _FLAT_SIGMA = (1.5, 4.0, 0.25), (0.25, 6.0, 0.25)  # the sweep_flat grid
_END_SIGMA = (0.1, 6.0, 0.1)

# name: (n, sign of a, (p_min, p_max, p_step), (sigma_min, sigma_max, sigma_step), K,
#        written contradictions, written failures); counts of None are not gated
GRIDS = {
    "flat, a < 0": (3, -1, _FLAT_P, _FLAT_SIGMA, 0.0, 27, 0),
    "flat, a > 0": (3, 1, _FLAT_P, _FLAT_SIGMA, 0.0, 1, 0),
    "window end n = 3, a < 0": (3, -1, (4.5, 4.98, 0.06), _END_SIGMA, 0.0, 143, 0),
    "window end n = 3, a > 0": (3, 1, (4.5, 4.98, 0.06), _END_SIGMA, 0.0, 0, 0),
    "window end n = 5, a < 0": (5, -1, (8.5, 8.98, 0.06), _END_SIGMA, 0.0, 279, 0),
    "window end n = 5, a > 0": (5, 1, (8.5, 8.98, 0.06), _END_SIGMA, 0.0, 0, 0),
    "p -> 1, n = 3, a < 0": (3, -1, (1.02, 1.42, 0.04), _END_SIGMA, 0.0, 14, 423),
    "p -> 1, n = 5, a < 0": (5, -1, (1.02, 1.42, 0.04), _END_SIGMA, 0.0, 12, 426),
    "sigma < 0, a > 0": (3, 1, _FLAT_P, (-3.0, -0.25, 0.25), 0.0, 18, 15),
    "flat, a < 0, K = 1": (3, -1, _FLAT_P, _FLAT_SIGMA, 1.0, None, None),
    "sigma < 0, a > 0, K = 1": (3, 1, _FLAT_P, (-3.0, -0.25, 0.25), 1.0, None, None),
}

# (n, p, sigma, R) with a = 1, K = 0, checked with the default b at R, or at
# 0.9 r_end where R is None; at R = 1e-50 on sin(r)/r every integral
# underflows and the verdict is a vacuous pass
CACCIOPPOLI_POINTS = ((3, 1.02, 0.04, None), (10, 18.0, 2.0, None), (3, 2.0, 1.0, 1e-50))
CACCIOPPOLI_WRITTEN = 3
# (n, p, sigma, R[, r_max]) with a = 1, K = 0 and r_max = 50 unless given,
# measured on the profile's Sobolev test function; the tiny radii once read
# NaN or overflowed, and the last point is a profile of span 1e-290
SOBOLEV_POINTS = ((3, 2.0, 1.0, 1e-120), (3, 2.0, 1.0, 1e-300), (3, 2.0, 1.0, 1e-300, 1e-290))
SOBOLEV_WRITTEN = 0


def _contradicts(cell, n, a):
    if a < 0:
        return cell.classification == "blow_up" and cell.sigma <= cell.p - 1
    hits_zero = cell.p >= n or cell.sigma < (n * (cell.p - 1) + cell.p) / (n - cell.p)
    return cell.classification == "blow_up" or (hits_zero and cell.classification == "persists")


def _grid_counts(n, a, p, sigma, K):
    grid = pl.SweepGrid(
        n=n,
        a_sign=a,
        p_min=p[0],
        p_max=p[1],
        p_step=p[2],
        sigma_min=sigma[0],
        sigma_max=sigma[1],
        sigma_step=sigma[2],
        K=K,
        config=pl.ShootingConfig(r_max=50.0),
    )
    cells = pl.sweep(grid).cells
    wrong = sum(_contradicts(c, n, a) for c in cells)
    failed = sum(c.classification == "numerical_failure" for c in cells)
    return wrong, failed, len(cells)


def _solved(n, p, sigma, r_max=50.0):
    params = pl.EquationParams(n=n, p=p, a=1.0, sigma=sigma)
    return pl.solve_radial(params, pl.ModelSpace(n=n), pl.ShootingConfig(r_max=r_max))


def _caccioppoli_unsound(n, p, sigma, R):
    sol = _solved(n, p, sigma)
    log_sol = pl.to_log_solution(sol)
    R = 0.9 * sol.r_end if R is None else R
    with np.errstate(all="ignore"):  # the NaN verdict overflows on its way
        rep = pl.check_caccioppoli(log_sol, pl.CaccioppoliConfig(), R)
    return not rep.scale > 1e-300 or not math.isfinite(rep.slack)


def _sobolev_unsound(n, p, sigma, R, r_max=50.0):
    sol = _solved(n, p, sigma, r_max)
    with np.errstate(all="ignore"):  # the NaN constant overflows on its way
        g, dg = pl.sobolev_test_function(sol, R)
        rep = pl.measure_sobolev_ratio(g, sol.space, R, dg=dg)
    return not math.isfinite(rep.empirical_constant)


def test_wrong_verdicts_do_not_rise_above_the_ledger(capsys):
    rows, risen = [], []
    for name, (n, a, p, sigma, K, written_wrong, written_failed) in GRIDS.items():
        wrong, failed, cells = _grid_counts(n, a, p, sigma, K)
        gated = written_wrong is not None
        rows.append(
            f"{name}: {wrong} contradict, {failed} fail of {cells} cells"
            + (f" (ledger {written_wrong}, {written_failed})" if gated else " (not gated)")
        )
        if gated and (wrong > written_wrong or failed > written_failed):
            risen.append(name)
    for name, unsound, points, written in (
        ("Caccioppoli, vacuous or NaN", _caccioppoli_unsound, CACCIOPPOLI_POINTS,
         CACCIOPPOLI_WRITTEN),
        ("Sobolev, NaN constant", _sobolev_unsound, SOBOLEV_POINTS, SOBOLEV_WRITTEN),
    ):
        count = sum(unsound(*point) for point in points)
        rows.append(f"{name}: {count} of {len(points)} points (ledger {written})")
        if count > written:
            risen.append(name)
    with capsys.disabled():
        print("\nledger of wrong verdicts:\n  " + "\n  ".join(rows))
    assert not risen, f"counts rose above the ledger: {risen}\n" + "\n".join(rows)


@pytest.mark.parametrize(
    "a, p, sigma, label, wrong",
    [
        (-1, 3.0, 2.0, "blow_up", True),  # sigma = p - 1
        (-1, 3.0, 2.5, "blow_up", False),
        (-1, 3.0, 1.0, "persists", False),
        (1, 2.0, 4.75, "persists", True),  # below p* - 1 = 5
        (1, 2.0, 5.0, "persists", False),
        (1, 3.0, 9.0, "persists", True),  # p >= n
        (1, 2.0, -1.0, "persists", True),
        (1, 2.0, 6.0, "blow_up", True),
        (1, 2.0, 1.0, "zero_hit", False),
    ],
)
def test_ledger_rule_reads_the_sharp_statements(a, p, sigma, label, wrong):
    """The contradiction rule behind the ledger, on cells of n = 3."""
    cell = pl.ExistenceCell(p, sigma, label, None, False, False)
    assert _contradicts(cell, 3, a) == wrong
