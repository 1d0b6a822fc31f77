"""Workload inputs, the op each workload times, and its correctness gates.

All inputs derive from the seed.  DEFAULT_SEED reproduces the named inputs
exactly: the 264-cell grid p 1.5..4 step 0.25 x sigma 0.25..6 step 0.25 at
n = 3, a > 0, r_max = 50; demo 03's six pipeline instances plus two curved
ones; and the two CLI instances.  Other seeds shift both sweep grids by a
fraction of a step and draw pipeline and CLI instances from a box on which
every called check is defined and holds.
"""

from __future__ import annotations

import random
from collections import namedtuple
from dataclasses import replace

DEFAULT_SEED = 0
N = 3
GRID_CELLS = 264
STEP = 0.25
R_STAR_RTOL = 1e-8  # relative r_star gate between a sweep and its reference
SINC_TOL = 1e-6  # acceptance tolerance of the closed-form oracle

Instance = namedtuple("Instance", "p a sigma K r_max")

PIPELINE_DEFAULT = (
    Instance(2.0, 1.0, 1.0, 0.0, 4.0),
    Instance(2.0, -1.0, 3.0, 0.0, 5.0),
    Instance(1.5, 1.0, 0.5, 0.0, 6.0),
    Instance(3.0, 1.0, 2.0, 0.0, 6.0),
    Instance(2.5, 1.0, 1.0, 1.0, 6.0),
    Instance(3.0, 1.0, 3.0, 1.0, 8.0),
    Instance(1.5, 1.0, 0.5, 1.0, 6.0),
    Instance(2.0, -1.0, 3.0, 1.0, 5.0),
)
SINC = Instance(2.0, 1.0, 1.0, 0.0, 4.0)
CLI_DEFAULT = (SINC, Instance(3.0, 1.0, 2.0, 1.0, 6.0))
CLI_CHECKS = ("gradient", "harnack", "bochner", "caccioppoli", "sobolev")


def _rng(seed, salt):
    return random.Random(f"{salt}:{seed}")


# ---------------------------------------------------------------------------
# sweeps


def grid_shift(seed):
    """(p, sigma) shift of the sweep grid, in eighths of a step."""
    if seed == DEFAULT_SEED:
        return 0.0, 0.0
    rng = _rng(seed, "grid")
    return rng.randrange(8) / 8 * STEP, rng.randrange(8) / 8 * STEP


def sweep_grid(pl, K, seed):
    dp, ds = grid_shift(seed)
    grid = pl.SweepGrid(
        n=N,
        a_sign=1.0,
        K=K,
        p_min=1.5 + dp,
        p_max=4.0 + dp,
        p_step=STEP,
        sigma_min=0.25 + ds,
        sigma_max=6.0 + ds,
        sigma_step=STEP,
        config=pl.ShootingConfig(r_max=50.0),
    )
    cells = len(grid.p_values) * len(grid.sigma_values)
    if cells != GRID_CELLS:
        raise RuntimeError(f"grid for seed {seed} has {cells} cells, not {GRID_CELLS}")
    return grid


def warmup_grid(pl, grid):
    """Two cells of the timed grid: enough to start the sweep's thread pool
    and touch every code path one cell takes."""
    return replace(grid, p_max=grid.p_min, sigma_max=grid.sigma_min + grid.sigma_step)


def sweep_failures(cells, reference):
    """Failing cells of one sweep.

    Every cell fails on numerical_failure.  With a reference table (a dict
    (p, sigma) -> (classification, r_star)), a cell also fails when its
    classification differs or r_star is off by more than R_STAR_RTOL
    relative.
    """
    failed = []
    for c in cells:
        if c.classification == "numerical_failure":
            failed.append((c, "numerical_failure"))
            continue
        if reference is None:
            continue
        ref = reference.get((c.p, c.sigma))
        if ref is None:
            failed.append((c, "cell missing from reference"))
        elif ref[0] != c.classification:
            failed.append((c, f"classification {c.classification} != {ref[0]}"))
        elif (ref[1] is None) != (c.r_star is None):
            failed.append((c, f"r_star {c.r_star} != {ref[1]}"))
        elif ref[1] is not None and abs(c.r_star - ref[1]) > R_STAR_RTOL * abs(ref[1]):
            failed.append((c, f"r_star {c.r_star!r} off reference {ref[1]!r}"))
    return failed


def read_reference(path):
    """Reference table written by make_reference.py."""
    table = {}
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "p,sigma,classification,r_star":
            raise ValueError(f"{path}: unexpected header {header!r}")
        for line in fh:
            p, sigma, classification, r_star = line.strip().split(",")
            table[(float(p), float(sigma))] = (
                classification,
                float(r_star) if r_star else None,
            )
    return table


def write_reference(cells, fh):
    fh.write("p,sigma,classification,r_star\n")
    for c in cells:
        r_star = "" if c.r_star is None else repr(c.r_star)
        fh.write(f"{c.p!r},{c.sigma!r},{c.classification},{r_star}\n")


# ---------------------------------------------------------------------------
# solve -> check pipeline


def _jitter(rng, inst):
    """An instance from the box around inst: p within 0.1, sigma and r_max
    within 10%, K within 25%, the sign of a and K = 0 kept.  The boxes
    around the default instances are where every called check is defined
    and holds, and each keeps its instance's termination kind and cost."""
    return Instance(
        p=round(inst.p + rng.uniform(-0.1, 0.1), 4),
        a=inst.a,
        sigma=round(inst.sigma * rng.uniform(0.9, 1.1), 4),
        K=round(inst.K * rng.uniform(0.75, 1.25), 4),
        r_max=round(inst.r_max * rng.uniform(0.9, 1.1), 3),
    )


def pipeline_instances(seed):
    if seed == DEFAULT_SEED:
        return PIPELINE_DEFAULT
    rng = _rng(seed, "pipeline")
    return tuple(_jitter(rng, inst) for inst in PIPELINE_DEFAULT)


def pipeline_op(pl, inst, path, tracer):
    """solve -> CSV write -> CSV read -> residuals -> log transform -> the six
    checkers, all on the profile read back.  Returns (solution, read-back
    solution, reports by checker name)."""
    call = tracer.call
    params = pl.EquationParams(n=N, p=inst.p, a=inst.a, sigma=inst.sigma)
    space = pl.ModelSpace(n=N, K=inst.K)
    config = pl.ShootingConfig(r_max=inst.r_max)
    sol = call("solver", "solve_radial", pl.solve_radial, params, space, config)
    call("solver", "write_solution_csv", pl.write_solution_csv, sol, path)
    back = call("solver", "read_solution_csv", pl.read_solution_csv, path)
    call("solver", "pde_residual", pl.pde_residual, back)
    call("solver", "flux_residual", pl.flux_residual, back)
    log_sol = call("solver", "to_log_solution", pl.to_log_solution, back)

    r_end = back.r_end
    window = (0.2, 0.9 * r_end)
    R_cacc = r_end / 2
    b = 1.1 * pl.caccioppoli_b_min(N, inst.p, inst.sigma, inst.a)
    reports = {}

    def check(name, fn, *args, **kwargs):
        reports[name] = call("verify", name, fn, *args, **kwargs)

    check("check_gradient_estimate", pl.check_gradient_estimate, back, 0.9 * r_end)
    check("check_harnack", pl.check_harnack, back, 0.9 * r_end)
    check("check_bochner_lemma", pl.check_bochner_lemma, log_sol, r_window=window)
    if pl.thm2_condition(N, inst.p, inst.sigma, inst.a):
        check("check_bochner_thm2", pl.check_bochner_thm2, log_sol, r_window=window)
    check(
        "check_caccioppoli",
        pl.check_caccioppoli,
        log_sol,
        config=pl.CaccioppoliConfig(b=b),
        R=R_cacc,
    )
    check(
        "measure_sobolev_ratio",
        pl.measure_sobolev_ratio,
        pl.cutoff_eta(R_cacc),
        space,
        R_cacc,
    )
    return sol, back, reports


ASSERTIVE_CHECKS = (
    "check_harnack",
    "check_bochner_lemma",
    "check_bochner_thm2",
    "check_caccioppoli",
)


def _same_bits(x, y):
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def pipeline_failures(np, inst, sol, back, reports):
    """Reasons one pipeline op failed; empty when it passed."""
    failed = []
    for name in ASSERTIVE_CHECKS:
        if name in reports and not reports[name].passed:
            failed.append(f"{name} failed")
    for field in ("r", "u", "du", "w"):
        if not _same_bits(getattr(sol, field), getattr(back, field)):
            failed.append(f"CSV round trip changed {field}")
    same_meta = (sol.params, sol.space, sol.config, sol.termination) == (
        back.params,
        back.space,
        back.config,
        back.termination,
    )
    if not same_meta:
        failed.append("CSV round trip changed the metadata")
    if inst == SINC:
        r = back.r
        exact = np.ones_like(r)
        exact[1:] = np.sin(r[1:]) / r[1:]
        err = float(np.max(np.abs(back.u - exact)))
        if err > SINC_TOL:
            failed.append(f"sinc oracle off by {err:.3g}")
    return failed


# ---------------------------------------------------------------------------
# CLI cold start


def cli_instances(seed):
    if seed == DEFAULT_SEED:
        return CLI_DEFAULT
    return (SINC, _jitter(_rng(seed, "cli"), CLI_DEFAULT[1]))


def solve_args(inst, out):
    return [
        "solve",
        "--n", str(N),
        "--p", repr(inst.p),
        "--a", repr(inst.a),
        "--sigma", repr(inst.sigma),
        "--K", repr(inst.K),
        "--r-max", repr(inst.r_max),
        "--out", out,
    ]


def check_args(kind, solution_path, r_end):
    return ["check", kind, "--solution", solution_path, "--R", repr(r_end / 2)]


def parse_r_end(stdout):
    """r_end from the solve command's 'termination=<kind> r=<r> ...' line."""
    for token in stdout.split():
        if token.startswith("r="):
            return float(token[2:])
    raise ValueError(f"no r= in solve output {stdout!r}")
