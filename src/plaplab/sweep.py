"""Existence/nonexistence mapping over (p, sigma) grids.

Each grid cell shoots the radial profile (for one or several center values)
and classifies its fate; the classification is then compared with the
regime flags, counting contradictions: cells where the flags assert
nonexistence but the profile persisted to r_max.

Persistence at finite r_max is evidence, not proof: the nonexistence
statements concern complete spaces (and nonnegative Ricci curvature, i.e.
K = 0 here), so a truncated sweep can only corroborate them.  Summaries
carry r_max and this caveat.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ParameterError
from .geometry import ModelSpace

# solve_radial is unused, but perfbench's traced run wraps it in this module by name
from .solver import ShootingConfig, _opened, shoot_batch, solve_radial  # noqa: F401
from .thresholds import EquationParams, classify_regime

__all__ = [
    "SweepGrid",
    "ExistenceCell",
    "SweepTable",
    "RegionComparison",
    "classify_existence",
    "sweep",
    "compare_with_theory",
    "write_sweep_csv",
]

_CAVEAT = (
    "persistence at finite r_max is evidence, not proof: the nonexistence "
    "flags assume a complete space with nonnegative Ricci curvature (K = 0), "
    "and truncation at r_max can only corroborate them"
)


def _range_values(lo, hi, step, name):
    if step <= 0:
        raise ParameterError(f"{name} step must be positive, got {step}")
    if hi < lo:
        return np.empty(0)
    count = int(np.floor((hi - lo) / step + 1e-9)) + 1
    return lo + step * np.arange(count)


@dataclass(frozen=True)
class SweepGrid:
    """Grid description: dimension, sign of the coefficient, curvature,
    inclusive (min, max, step) ranges for p and sigma, the per-cell
    shooting configuration, and the list of center values to scan.

    For K = 0 a single center value suffices: rescaling the center is
    equivalent to rescaling the coefficient and dilating, so the cell
    classification is invariant.  For K > 0 there is no dilation symmetry
    and the default scans {0.25, 1, 4}.
    """

    n: int
    a_sign: float
    K: float
    p_min: float
    p_max: float
    p_step: float
    sigma_min: float
    sigma_max: float
    sigma_step: float
    config: ShootingConfig = field(default_factory=lambda: ShootingConfig(r_max=50.0))
    u0_list: tuple = None

    def __post_init__(self):
        if self.a_sign == 0:
            raise ParameterError("a_sign must be nonzero")
        if self.K < 0:
            raise ParameterError(f"K must be >= 0, got {self.K}")
        if self.p_step <= 0 or self.sigma_step <= 0:
            raise ParameterError("grid steps must be positive")
        if self.u0_list is None:
            scan = (1.0,) if self.K == 0 else (0.25, 1.0, 4.0)
            object.__setattr__(self, "u0_list", scan)
        elif not self.u0_list:
            raise ParameterError("u0_list must be nonempty")

    @property
    def p_values(self):
        return _range_values(self.p_min, self.p_max, self.p_step, "p")

    @property
    def sigma_values(self):
        return _range_values(self.sigma_min, self.sigma_max, self.sigma_step, "sigma")


@dataclass(frozen=True)
class ExistenceCell:
    """Classification of one (p, sigma) cell.

    classification is zero_hit | blow_up | persists | numerical_failure;
    r_star is the smallest termination radius across the center-value scan
    (None for persists and numerical_failure).  The theory flags are the
    regime's nonexistence flags where the theorems apply (K = 0), else
    False."""

    p: float
    sigma: float
    classification: str
    r_star: float | None
    theory_thm1: bool
    theory_thm2: bool


@dataclass(frozen=True)
class SweepTable:
    """Grid cells in deterministic row-major (p outer, sigma inner) order."""

    grid: SweepGrid
    cells: tuple

    def __iter__(self):
        return iter(self.cells)

    def __len__(self):
        return len(self.cells)


def classify_existence(
    params: EquationParams,
    space: ModelSpace,
    config: ShootingConfig,
    u0_list=(1.0,),
    move_tol: float = 0.01,
):
    """Classify one parameter point by shooting from each center value.

    persists if any run reaches r_max positive; zero_hit/blow_up (with the
    minimal termination radius) if all runs terminate before r_max; and
    numerical_failure when a run failed and none persisted.

    A run that reaches r_max with the profile still within move_tol
    (relative) of its center value never left the neighborhood of the
    starting constant: r_max was too small to classify and the cell is
    reported as numerical_failure rather than as (spurious) persistence.
    The excursion is measured at the integrator's accepted step ends.
    """
    return _classify_batch([params], space, config, u0_list, move_tol)[0]


def _classify_batch(params_list, space, config, u0_list, move_tol=0.01):
    """classify_existence for every parameter point, with all points and
    center values integrated as one batch by shoot_batch."""
    u0_valid = []
    for u0 in u0_list:
        try:
            replace(config, u0=u0)
        except ParameterError:
            continue  # a center value the configuration rejects is a failed run
        u0_valid.append(u0)
    invalid = len(u0_valid) < len(u0_list)
    kinds, radii, moved = shoot_batch(
        [prm for prm in params_list for _ in u0_valid],
        [u0 for _ in params_list for u0 in u0_valid],
        space,
        config,
    )
    shape = (len(params_list), len(u0_valid))
    return [
        _verdict(*runs, invalid, move_tol)
        for runs in zip(kinds.reshape(shape), radii.reshape(shape), moved.reshape(shape))
    ]


def _verdict(kinds, radii, moved, failed, move_tol):
    """Cell classification from its runs' termination kinds, radii and
    relative excursions (see classify_existence)."""
    terminal = []
    for kind, r, excursion in zip(kinds, radii, moved):
        if kind == "reached_rmax":
            if excursion >= move_tol:
                return "persists", None
            failed = True  # indeterminate: profile barely developed
        elif kind == "step_failure":
            failed = True
        else:
            terminal.append((float(r), str(kind)))
    if failed or not terminal:
        return "numerical_failure", None
    r_star, kind = min(terminal)
    return ("zero_hit" if kind == "hit_zero" else "blow_up"), r_star


def sweep(grid: SweepGrid) -> SweepTable:
    """Classify every cell, all cells and center values integrated as one
    batch, and annotate each cell with the regime flags.

    The nonexistence theorems assume nonnegative Ricci curvature, so the
    flags are set only for K = 0.  Each run's arithmetic is independent of
    the rest of the batch, so a cell's result equals classify_existence's
    and identical grids give identical tables."""
    space = ModelSpace(n=grid.n, K=grid.K)
    a = 1.0 if grid.a_sign > 0 else -1.0
    params = [
        EquationParams(n=grid.n, p=float(p), a=a, sigma=float(s))
        for p in grid.p_values
        for s in grid.sigma_values
    ]
    verdicts = _classify_batch(params, space, grid.config, grid.u0_list)
    cells = []
    for prm, (classification, r_star) in zip(params, verdicts):
        regime = classify_regime(prm)
        cells.append(
            ExistenceCell(
                p=prm.p,
                sigma=prm.sigma,
                classification=classification,
                r_star=r_star,
                theory_thm1=regime.nonexistence_thm1 and grid.K == 0,
                theory_thm2=regime.nonexistence_thm2 and grid.K == 0,
            )
        )
    return SweepTable(grid=grid, cells=tuple(cells))


@dataclass(frozen=True)
class RegionComparison:
    """Contradiction count/list plus the empirical boundary sigma per p."""

    contradictions: tuple
    n_failures: int
    boundary: dict
    r_max: float
    caveat: str = _CAVEAT

    @property
    def contradiction_count(self) -> int:
        return len(self.contradictions)

    def to_dict(self):
        return {
            "contradiction_count": self.contradiction_count,
            "contradictions": [
                {"p": c.p, "sigma": c.sigma, "classification": c.classification}
                for c in self.contradictions
            ],
            "numerical_failures": self.n_failures,
            "boundary_sigma_per_p": {str(k): v for k, v in self.boundary.items()},
            "r_max": self.r_max,
            "caveat": self.caveat,
        }

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), **kwargs)


def compare_with_theory(table: SweepTable) -> RegionComparison:
    """Count cells that persisted where the flags assert nonexistence.

    Numerically failing cells are excluded from the contradiction count and
    reported separately.  The empirical boundary per p column is the
    smallest persisting sigma for a > 0 (largest for a < 0), None when no
    cell persists in the column.
    """
    contradictions = tuple(
        c
        for c in table.cells
        if c.classification == "persists" and (c.theory_thm1 or c.theory_thm2)
    )
    n_failures = sum(1 for c in table.cells if c.classification == "numerical_failure")
    boundary = {}
    for p in sorted({c.p for c in table.cells}):
        persisting = [
            c.sigma
            for c in table.cells
            if c.p == p and c.classification == "persists"
        ]
        if not persisting:
            boundary[p] = None
        else:
            boundary[p] = min(persisting) if table.grid.a_sign > 0 else max(persisting)
    return RegionComparison(
        contradictions=contradictions,
        n_failures=n_failures,
        boundary=boundary,
        r_max=table.grid.config.r_max,
    )


def write_sweep_csv(table: SweepTable, path_or_file) -> None:
    """p,sigma,classification,r_star,theory_thm1,theory_thm2 per cell."""
    with _opened(path_or_file, "w") as fh:
        fh.write("p,sigma,classification,r_star,theory_thm1,theory_thm2\n")
        for c in table.cells:
            r_star = "" if c.r_star is None else f"{c.r_star:.17g}"
            fh.write(
                f"{c.p:.17g},{c.sigma:.17g},{c.classification},{r_star},"
                f"{str(c.theory_thm1).lower()},{str(c.theory_thm2).lower()}\n"
            )
