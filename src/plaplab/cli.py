"""Batch command-line entry point.

Four subcommands expose the library with file-based inputs and outputs:

    plaplab thresholds --n 3 --p 2 [--a 1 --sigma 2]
    plaplab solve --n 3 --p 2 --a 1 --sigma 1 --r-max 4 --out sol.csv
    plaplab check bochner --solution sol.csv [--R 2]
    plaplab sweep --config grid.cfg --out table.csv --summary summary.json

Options may come from a flat key=value configuration file (``--config``);
explicit flags win over file values.  Exit codes are total: 0 on success or
a passing check, 1 when a check fails (or a sweep finds contradictions),
2 on invalid input, 3 on numerical or I/O failure.  There is no randomness
anywhere, so identical inputs reproduce identical outputs bitwise on a
fixed floating-point platform.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import ParameterError, RegimeError, SolutionFormatError
from .geometry import ModelSpace
from .solver import ShootingConfig, read_solution_csv, solve_radial, to_log_solution, write_solution_csv
from .sweep import SweepGrid, compare_with_theory, sweep, write_sweep_csv
from .thresholds import (
    EquationParams,
    alpha,
    classify_regime,
    sigma1,
    sigma2,
    thm2_threshold,
)
from .verify import (
    CaccioppoliConfig,
    caccioppoli_b_min,
    check_bochner_lemma,
    check_bochner_thm2,
    check_caccioppoli,
    check_gradient_estimate,
    check_harnack,
    measure_sobolev_ratio,
    sobolev_test_function,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INVALID = 2
EXIT_NUMERICAL_IO = 3

CHECK_KINDS = ("gradient", "harnack", "bochner", "bochner2", "caccioppoli", "sobolev")


def _load_config_file(path):
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParameterError(f"{path}:{lineno}: expected key=value, got {raw!r}")
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
    return values


def _merge(args, config_values, key, cast, default=None, required=False):
    """Flag value if given, else config-file value, else default."""
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    if key in config_values:
        try:
            return cast(config_values[key])
        except ValueError as exc:
            raise ParameterError(f"config key {key!r}: {exc}") from exc
    if required and default is None:
        raise ParameterError(f"missing required option {key!r} (flag or config file)")
    return default


def _write_or_print(text, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _format_report(report_dict, fmt):
    if fmt == "json":
        return json.dumps(report_dict, indent=2)
    lines = []
    for key, value in report_dict.items():
        lines.append(f"{key},{value}")
    return "\n".join(lines)


def _shooting_config(args, cfg):
    return ShootingConfig(
        u0=_merge(args, cfg, "u0", float, 1.0),
        r_max=_merge(args, cfg, "r_max", float, 10.0),
        abs_tol=_merge(args, cfg, "abs_tol", float, 1e-10),
        rel_tol=_merge(args, cfg, "rel_tol", float, 1e-9),
        zero_threshold=_merge(args, cfg, "zero_threshold", float, 1e-8),
        blowup_threshold=_merge(args, cfg, "blowup_threshold", float, 1e8),
        min_step=_merge(args, cfg, "min_step", float, 1e-12),
        output_points=_merge(args, cfg, "output_points", int, 2001),
    )


def cmd_thresholds(args):
    cfg = _load_config_file(args.config) if args.config else {}
    n = _merge(args, cfg, "n", int, required=True)
    p = _merge(args, cfg, "p", float, required=True)
    a = _merge(args, cfg, "a", float)
    sigma = _merge(args, cfg, "sigma", float)
    if a is not None and sigma is not None:
        report = classify_regime(EquationParams(n=n, p=p, a=a, sigma=sigma)).to_dict()
    else:
        if not (isinstance(n, int) and n >= 3):
            raise ParameterError(f"n must be an integer >= 3, got {n!r}")
        if not p > 1:
            raise ParameterError(f"p must be > 1, got {p}")
        in_window = 1 < p < 2 * n - 1
        report = {
            "alpha": alpha(n, p) if in_window else None,
            "sigma1": sigma1(n, p) if in_window else None,
            "sigma2": sigma2(n, p) if in_window else None,
            "thm2_threshold": thm2_threshold(n, p),
        }
    _write_or_print(_format_report(report, args.format), args.out)
    return EXIT_OK


def cmd_solve(args):
    cfg = _load_config_file(args.config) if args.config else {}
    params = EquationParams(
        n=_merge(args, cfg, "n", int, required=True),
        p=_merge(args, cfg, "p", float, required=True),
        a=_merge(args, cfg, "a", float, required=True),
        sigma=_merge(args, cfg, "sigma", float, required=True),
    )
    space = ModelSpace(n=params.n, K=_merge(args, cfg, "K", float, 0.0))
    config = _shooting_config(args, cfg)
    solution = solve_radial(params, space, config)
    write_solution_csv(solution, args.out)
    t = solution.termination
    print(f"termination={t.kind} r={t.r:.12g} samples={len(solution.r)} out={args.out}")
    if t.kind == "step_failure":
        return EXIT_NUMERICAL_IO
    return EXIT_OK


def _check_report(args, solution):
    kind = args.kind
    if kind == "gradient":
        if args.R is None:
            raise ParameterError("check gradient requires --R")
        return check_gradient_estimate(solution, args.R, theorem=args.theorem)
    if kind == "harnack":
        if args.R is None:
            raise ParameterError("check harnack requires --R")
        return check_harnack(solution, args.R)
    if kind in ("bochner", "bochner2"):
        log_solution = to_log_solution(solution)
        window = None if args.R is None else (0.0, args.R)
        tol_rel = args.tol_rel if args.tol_rel is not None else 1e-3
        checker = check_bochner_lemma if kind == "bochner" else check_bochner_thm2
        return checker(log_solution, tol_rel=tol_rel, r_window=window)
    if kind == "caccioppoli":
        if args.R is None:
            raise ParameterError("check caccioppoli requires --R")
        log_solution = to_log_solution(solution)
        p = solution.params
        b = args.b if args.b is not None else 1.1 * caccioppoli_b_min(p.n, p.p, p.sigma, p.a)
        config = CaccioppoliConfig(
            b=b,
            quadrature_points=args.quadrature_points or 4001,
        )
        return check_caccioppoli(log_solution, config=config, R=args.R)
    if kind == "sobolev":
        if args.R is None:
            raise ParameterError("check sobolev requires --R")
        g, dg = sobolev_test_function(solution, args.R)
        return measure_sobolev_ratio(g, solution.space, args.R, dg=dg)
    raise ParameterError(f"unknown check kind {kind!r}")


def cmd_check(args):
    solution = read_solution_csv(args.solution)
    report = _check_report(args, solution)
    report_dict = report.to_report_dict()
    _write_or_print(_format_report(report_dict, args.format), args.out)
    passed = report_dict.get("pass")
    if passed is False:
        return EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_sweep(args):
    cfg = _load_config_file(args.config) if args.config else {}
    p_min = _merge(args, cfg, "p_min", float, required=True)
    p_max = _merge(args, cfg, "p_max", float, required=True)
    sigma_min = _merge(args, cfg, "sigma_min", float, required=True)
    sigma_max = _merge(args, cfg, "sigma_max", float, required=True)
    if p_min > p_max:
        raise ParameterError(f"inverted p range: p_min = {p_min} > p_max = {p_max}")
    if sigma_min > sigma_max:
        raise ParameterError(
            f"inverted sigma range: sigma_min = {sigma_min} > sigma_max = {sigma_max}"
        )
    u0_raw = _merge(args, cfg, "u0_list", str)
    u0_list = (
        tuple(float(x) for x in u0_raw.replace(",", " ").split()) if u0_raw else None
    )
    grid = SweepGrid(
        n=_merge(args, cfg, "n", int, required=True),
        a_sign=_merge(args, cfg, "a_sign", float, required=True),
        K=_merge(args, cfg, "K", float, 0.0),
        p_min=p_min,
        p_max=p_max,
        p_step=_merge(args, cfg, "p_step", float, required=True),
        sigma_min=sigma_min,
        sigma_max=sigma_max,
        sigma_step=_merge(args, cfg, "sigma_step", float, required=True),
        config=_shooting_config(args, cfg),
        u0_list=u0_list,
    )
    table = sweep(grid)
    write_sweep_csv(table, args.out)
    comparison = compare_with_theory(table)
    summary = comparison.to_dict()
    if args.summary:
        with open(args.summary, "w") as fh:
            json.dump(summary, fh, indent=2)
    print(
        f"cells={len(table)} contradictions={comparison.contradiction_count} "
        f"warnings={comparison.n_failures} out={args.out}"
    )
    if comparison.contradiction_count:
        return EXIT_CHECK_FAILED
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="plaplab",
        description=(
            "Numerical laboratory for gradient estimates and nonexistence "
            "regimes of div(|u'|^(p-2) u') + a u^sigma = 0 on model spaces."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--config", help="flat key=value configuration file")
        sp.add_argument("--out", help="output path (default: stdout)")
        sp.add_argument("--format", choices=("json", "csv"), default="json")

    sp = sub.add_parser("thresholds", help="evaluate regime constants and flags")
    sp.add_argument("--n", type=int)
    sp.add_argument("--p", type=float)
    sp.add_argument("--a", type=float)
    sp.add_argument("--sigma", type=float)
    add_common(sp)
    sp.set_defaults(func=cmd_thresholds)

    sp = sub.add_parser("solve", help="shoot the radial profile, write CSV")
    sp.add_argument("--n", type=int)
    sp.add_argument("--p", type=float)
    sp.add_argument("--a", type=float)
    sp.add_argument("--sigma", type=float)
    sp.add_argument("--K", type=float)
    sp.add_argument("--u0", type=float)
    sp.add_argument("--r-max", dest="r_max", type=float)
    sp.add_argument("--abs-tol", dest="abs_tol", type=float)
    sp.add_argument("--rel-tol", dest="rel_tol", type=float)
    sp.add_argument("--zero-threshold", dest="zero_threshold", type=float)
    sp.add_argument("--blowup-threshold", dest="blowup_threshold", type=float)
    sp.add_argument("--min-step", dest="min_step", type=float)
    sp.add_argument("--output-points", dest="output_points", type=int)
    sp.add_argument("--config", help="flat key=value configuration file")
    sp.add_argument("--out", required=True, help="solution CSV path")
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("check", help="run one inequality check on a solution file")
    sp.add_argument("kind", choices=CHECK_KINDS)
    sp.add_argument("--solution", required=True, help="solution CSV from solve")
    sp.add_argument("--R", type=float)
    sp.add_argument("--theorem", choices=("thm1", "thm2"), default="thm1")
    sp.add_argument("--tol-rel", dest="tol_rel", type=float)
    sp.add_argument("--b", type=float)
    sp.add_argument(
        "--quadrature-points", dest="quadrature_points", type=int, default=None
    )
    sp.add_argument("--out", help="report JSON path (default: stdout)")
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("sweep", help="map existence over a (p, sigma) grid")
    sp.add_argument("--n", type=int)
    sp.add_argument("--a-sign", dest="a_sign", type=float)
    sp.add_argument("--K", type=float)
    sp.add_argument("--p-min", dest="p_min", type=float)
    sp.add_argument("--p-max", dest="p_max", type=float)
    sp.add_argument("--p-step", dest="p_step", type=float)
    sp.add_argument("--sigma-min", dest="sigma_min", type=float)
    sp.add_argument("--sigma-max", dest="sigma_max", type=float)
    sp.add_argument("--sigma-step", dest="sigma_step", type=float)
    sp.add_argument("--u0", type=float)
    sp.add_argument("--u0-list", dest="u0_list")
    sp.add_argument("--r-max", dest="r_max", type=float)
    sp.add_argument("--abs-tol", dest="abs_tol", type=float)
    sp.add_argument("--rel-tol", dest="rel_tol", type=float)
    sp.add_argument("--zero-threshold", dest="zero_threshold", type=float)
    sp.add_argument("--blowup-threshold", dest="blowup_threshold", type=float)
    sp.add_argument("--min-step", dest="min_step", type=float)
    sp.add_argument("--output-points", dest="output_points", type=int)
    sp.add_argument("--config", help="flat key=value configuration file")
    sp.add_argument("--out", required=True, help="table CSV path")
    sp.add_argument("--summary", help="summary JSON path")
    sp.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else EXIT_INVALID
    try:
        return args.func(args)
    except (ParameterError, RegimeError, SolutionFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL_IO


if __name__ == "__main__":
    sys.exit(main())
