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

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ParameterError, _require_finite
from .geometry import ModelSpace
from .solution import ShootingConfig, _opened

# solve_radial is unused, but perfbench's traced run wraps it in this module by name
from .solver import shoot_batch, solve_radial  # noqa: F401

# classify_regime is unused, but perfbench's traced run wraps it in this module by name
from .thresholds import classify_regime  # noqa: F401
from .thresholds import EquationParams, _first_estimate, _regime_flags

_CAVEAT = (
    "persistence at finite r_max is evidence, not proof: the nonexistence "
    "flags assume a complete space with nonnegative Ricci curvature (K = 0), "
    "and truncation at r_max can only corroborate them"
)


# a run that reaches r_max closer than this (relative) to its center value
# leaves its cell undecided
_MOVE_TOL = 0.01


def _center_values(u0_list, default):
    """The center values a cell scans: u0_list, or default when it is None."""
    if u0_list is None:
        return default
    if len(u0_list) == 0:
        raise ParameterError("u0_list must be nonempty")
    return u0_list


def _range_values(lo, hi, step):
    count = int(np.floor((hi - lo) / step + 1e-9)) + 1
    return lo + step * np.arange(count)


@dataclass(frozen=True)
class SweepGrid:
    """Grid description: dimension, sign of the coefficient, inclusive
    (min, max, step) ranges for p and sigma with min <= max, curvature, the
    per-cell shooting configuration, and the list of center values to scan.

    For K = 0 the default scans config.u0 alone: rescaling the center is
    rescaling the profile and dilating it, so on the complete space the
    cell classification is invariant.  At a finite r_max it is not: the run
    from lam u0 on [0, r_max] is lam times the run from u0 on
    [0, lam^((sigma+1-p)/p) r_max], and the zero and blow-up thresholds do
    not rescale with it, so a cell can change class with u0.  For K > 0
    there is no dilation symmetry and the default scans
    {u0/4, u0, 4 u0} around u0 = config.u0.  Every center value, given or
    default, must lie inside (zero_threshold, blowup_threshold) of config.
    """

    n: int
    a_sign: float
    p_min: float
    p_max: float
    p_step: float
    sigma_min: float
    sigma_max: float
    sigma_step: float
    K: float = 0.0
    config: ShootingConfig = field(default_factory=lambda: ShootingConfig(r_max=50.0))
    u0_list: tuple = None

    def __post_init__(self):
        ModelSpace(n=self.n, K=self.K)  # checks n and K
        for name in ("a_sign", "p_min", "p_max", "p_step", "sigma_min", "sigma_max", "sigma_step"):
            _require_finite(name, getattr(self, name))
        if self.a_sign == 0:
            raise ParameterError("a_sign must be nonzero")
        if self.p_step <= 0 or self.sigma_step <= 0:
            raise ParameterError("grid steps must be positive")
        for name, lo, hi in (("p", self.p_min, self.p_max), ("sigma", self.sigma_min, self.sigma_max)):
            if lo > hi:
                raise ParameterError(f"inverted {name} range: {name}_min = {lo} > {name}_max = {hi}")
        u0 = self.config.u0
        default = (u0,) if self.K == 0 else (u0 / 4, u0, 4 * u0)
        object.__setattr__(self, "u0_list", _center_values(self.u0_list, default))
        for u0 in self.u0_list:
            replace(self.config, u0=u0)  # checks u0 against the thresholds

    @property
    def p_values(self):
        return _range_values(self.p_min, self.p_max, self.p_step)

    @property
    def sigma_values(self):
        return _range_values(self.sigma_min, self.sigma_max, self.sigma_step)


@dataclass(frozen=True)
class ExistenceCell:
    """Classification of one (p, sigma) cell.

    classification is zero_hit | blow_up | persists | numerical_failure;
    r_star is the smallest termination radius across the center-value scan
    (None for persists and numerical_failure).  The theory flags are the
    regime's thm1/thm2 applicability flags where the theorems apply
    (K = 0), else False."""

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
    u0_list=None,
):
    """Classify one parameter point by shooting from each center value of
    u0_list, by default config.u0 alone.

    persists if any run reaches r_max positive; zero_hit/blow_up (with the
    minimal termination radius) if all runs terminate before r_max; and
    numerical_failure when a run failed and none persisted.

    A run that reaches r_max with the profile still within 1% (relative)
    of its center value never left the neighborhood of the starting
    constant: r_max was too small to classify and the cell is reported as
    numerical_failure rather than as (spurious) persistence.  The
    excursion |u - u0| / u0 is read at the run's last accepted state, where
    it is largest: by the flux identity (s^(n-1) w)' = -a u_eff^sigma
    s^(n-1), with u_eff = max(u, zero_threshold / 2) > 0, w has the sign of
    -a, so u is monotone.
    An empty u0_list raises ParameterError, as in SweepGrid, and a center
    value outside (zero_threshold, blowup_threshold) of config raises
    ShootingConfig's ParameterError, from shoot_batch.
    """
    u0_list = _center_values(u0_list, (config.u0,))
    return _classify_batch([params], space, config, u0_list)[0]


def _classify_batch(params_list, space, config, u0_list):
    """classify_existence for every parameter point, with all points and
    center values integrated as one batch by shoot_batch."""
    kinds, radii, moved = shoot_batch(
        [prm for prm in params_list for _ in u0_list],
        [u0 for _ in params_list for u0 in u0_list],
        space,
        config,
    )
    shape = (len(params_list), len(u0_list))
    return [
        _verdict(*runs)
        for runs in zip(*(x.reshape(shape).tolist() for x in (kinds, radii, moved)))
    ]


def _verdict(kinds, radii, moved):
    """Cell classification from its runs' termination kinds, radii and
    relative excursions (see classify_existence)."""
    failed = False
    terminal = []
    for kind, r, excursion in zip(kinds, radii, moved):
        if kind == "reached_rmax":
            if excursion >= _MOVE_TOL:
                return "persists", None
            failed = True  # indeterminate: profile barely developed
        elif kind == "step_failure":
            failed = True
        else:
            terminal.append((r, kind))
    if failed or not terminal:
        return "numerical_failure", None
    r_star, kind = min(terminal)
    return ("zero_hit" if kind == "hit_zero" else "blow_up"), r_star


def sweep(grid: SweepGrid) -> SweepTable:
    """Classify every cell, all cells and center values integrated as one
    batch, and annotate each cell with the regime flags.

    The nonexistence theorems assume nonnegative Ricci curvature, so the
    flags are set only for K = 0, where they are classify_regime's flags
    (from the regime constants of each p, evaluated once).  Each run's
    arithmetic is independent of the rest of the batch, so a cell's result
    equals classify_existence's and identical grids give identical tables."""
    space = ModelSpace(n=grid.n, K=grid.K)
    a = 1.0 if grid.a_sign > 0 else -1.0
    flat = grid.K == 0
    sigmas = [float(s) for s in grid.sigma_values]
    params, flags = [], []
    for p in map(float, grid.p_values):
        constants = _first_estimate(grid.n, p) if flat else None
        for s in sigmas:
            params.append(EquationParams(n=grid.n, p=p, a=a, sigma=s))
            flags.append(_regime_flags(grid.n, p, s, a, constants) if flat else (False, False))
    verdicts = _classify_batch(params, space, grid.config, grid.u0_list)
    cells = tuple(
        ExistenceCell(
            p=prm.p,
            sigma=prm.sigma,
            classification=classification,
            r_star=r_star,
            theory_thm1=thm1,
            theory_thm2=thm2,
        )
        for prm, (classification, r_star), (thm1, thm2) in zip(params, verdicts, flags)
    )
    return SweepTable(grid=grid, cells=cells)


@dataclass(frozen=True)
class RegionComparison:
    """Contradiction count/list plus the empirical boundary sigma per p."""

    contradictions: tuple
    n_failures: int
    boundary: dict
    r_max: float
    caveat = _CAVEAT

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
