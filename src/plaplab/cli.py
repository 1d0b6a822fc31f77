"""Batch command-line entry point.

Four subcommands expose the library with file-based inputs and outputs:

    plaplab thresholds --n 3 --p 2 [--a 1 --sigma 2]
    plaplab solve --n 3 --p 2 --a 1 --sigma 1 --r-max 4 --out sol.csv
    plaplab check bochner --solution sol.csv [--R 2]
    plaplab sweep --config grid.cfg --out table.csv --summary summary.json

The options of thresholds, solve and sweep are the fields of the library's
dataclasses, and may also come from a flat key=value configuration file
(``--config``); explicit flags win over file values, and a file key that
names no option is invalid input.  A check kind takes --solution, --R and
--out, and caccioppoli also --b, its test-function exponent; the checkers'
tolerances and grids are fixed.  thresholds and check write JSON.  Exit
codes are total: 0 on success or a passing check, 1 when a check fails (or
a sweep finds contradictions), 2 on invalid input, 3 on numerical or I/O
failure.  There is no randomness anywhere, so identical inputs reproduce
identical outputs bitwise on a fixed floating-point platform.  A command
calls the package's public names as attributes of this module, each loaded
from its own module on first use, so it compiles only the modules it runs.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import MISSING, fields, is_dataclass
from typing import get_type_hints

import plaplab

from .errors import ParameterError, RegimeError, SolutionFormatError

_cli = sys.modules[__name__]


def __getattr__(name):
    """A public name of the package, here where perfbench's tracer swaps it."""
    if name not in plaplab.__all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(plaplab, name)


EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INVALID = 2
EXIT_NUMERICAL_IO = 3

# the check kinds; each takes --solution, --R and --out, and caccioppoli --b
CHECK_KINDS = ("gradient", "harnack", "bochner", "bochner2", "caccioppoli", "sobolev")


def float_list(text):
    """A comma- or space-separated list of floats."""
    return tuple(float(x) for x in text.replace(",", " ").split())


def _leaf_fields(cls):
    """(name, parser) for each field of the dataclass cls, with the fields of
    a nested dataclass in place of the field that holds it."""
    hints = get_type_hints(cls)
    for f in fields(cls):
        kind = hints[f.name]
        if is_dataclass(kind):
            yield from _leaf_fields(kind)
        else:
            yield f.name, float_list if kind is tuple else kind


def _add_field_flags(sp, *classes):
    """One flag per field, --r-max for r_max, parsed as the field's type; a
    name two classes share is one flag."""
    names = {}
    for cls in classes:
        names.update(_leaf_fields(cls))
    for name, parser in names.items():
        sp.add_argument("--" + name.replace("_", "-"), type=parser)


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


def _field_values(args, *classes):
    """The value of each field of the classes from its flag, else from its
    key in the --config file; a field given by neither is left out, and a
    file key that names no field is an error."""
    cfg = _load_config_file(args.config) if args.config else {}
    leaves = {name: parser for cls in classes for name, parser in _leaf_fields(cls)}
    unknown = [key for key in cfg if key not in leaves]
    if unknown:
        raise ParameterError(f"config key {unknown[0]!r} names no option of {args.command}")
    values = {}
    for name, parser in leaves.items():
        value = getattr(args, name)
        if value is None and name in cfg:
            try:
                value = parser(cfg[name])
            except ValueError as exc:
                raise ParameterError(f"config key {name!r}: {exc}") from exc
        if value is not None:
            values[name] = value
    return values


def _require(values, *names):
    """The values of the named options, each of which must be given."""
    for name in names:
        if name not in values:
            raise ParameterError(f"missing required option {name!r} (flag or config file)")
    return [values[name] for name in names]


def _build(cls, values, default=None):
    """cls from the values of its fields, the others taken from default (an
    instance of cls) or else left to cls; a field without a default is
    required, and a nested dataclass is built from the same values over
    its field's default."""
    hints = get_type_hints(cls)
    kwargs = {}
    for f in fields(cls):
        if is_dataclass(hints[f.name]):
            nested = None if f.default_factory is MISSING else f.default_factory()
            kwargs[f.name] = _build(hints[f.name], values, nested)
        elif f.name in values:
            kwargs[f.name] = values[f.name]
        elif default is not None:
            kwargs[f.name] = getattr(default, f.name)
        elif f.default is MISSING and f.default_factory is MISSING:
            _require(values, f.name)
    return cls(**kwargs)


def _write_json(report, out_path):
    text = json.dumps(report, indent=2)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def cmd_thresholds(args):
    values = _field_values(args, _cli.EquationParams)
    if "a" in values or "sigma" in values:
        report = _cli.classify_regime(_build(_cli.EquationParams, values)).to_dict()
    else:
        report = _cli.regime_constants(*_require(values, "n", "p"))
    _write_json(report, args.out)
    return EXIT_OK


def cmd_solve(args):
    values = _field_values(args, _cli.EquationParams, _cli.ModelSpace, _cli.ShootingConfig)
    solution = _cli.solve_radial(
        _build(_cli.EquationParams, values),
        _build(_cli.ModelSpace, values),
        _build(_cli.ShootingConfig, values),
    )
    _cli.write_solution_csv(solution, args.out)
    t = solution.termination
    print(f"termination={t.kind} r={t.r:.12g} samples={len(solution.r)} out={args.out}")
    if t.kind == "step_failure":
        return EXIT_NUMERICAL_IO
    return EXIT_OK


def _check_report(args, solution):
    kind = args.kind
    if kind == "gradient":
        return _cli.check_gradient_estimate(solution, args.R)
    if kind == "harnack":
        return _cli.check_harnack(solution, args.R)
    if kind in ("bochner", "bochner2"):
        log_solution = _cli.to_log_solution(solution)
        window = None if args.R is None else (0.0, args.R)
        checker = _cli.check_bochner_lemma if kind == "bochner" else _cli.check_bochner_thm2
        return checker(log_solution, r_window=window)
    if kind == "caccioppoli":
        log_solution = _cli.to_log_solution(solution)
        config = _cli.CaccioppoliConfig(b=args.b)
        return _cli.check_caccioppoli(log_solution, config=config, R=args.R)
    g, dg = _cli.sobolev_test_function(solution, args.R)
    return _cli.measure_sobolev_ratio(g, solution.space, args.R, dg=dg)


def cmd_check(args):
    solution = _cli.read_solution_csv(args.solution)
    report = _check_report(args, solution)
    report_dict = report.to_report_dict()
    _write_json(report_dict, args.out)
    passed = report_dict.get("pass")
    if passed is False:
        return EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_sweep(args):
    table = _cli.sweep(_build(_cli.SweepGrid, _field_values(args, _cli.SweepGrid)))
    _cli.write_sweep_csv(table, args.out)
    comparison = _cli.compare_with_theory(table)
    if args.summary:
        _write_json(comparison.to_dict(), args.summary)
    print(
        f"cells={len(table)} contradictions={comparison.contradiction_count} "
        f"warnings={comparison.n_failures} out={args.out}"
    )
    if comparison.contradiction_count:
        return EXIT_CHECK_FAILED
    return EXIT_OK


def build_parser(command=None):
    """The parser of every subcommand; given a command, only that one gets
    its field flags."""
    parser = argparse.ArgumentParser(
        prog="plaplab",
        description=(
            "Numerical laboratory for gradient estimates and nonexistence "
            "regimes of div(|u'|^(p-2) u') + a u^sigma = 0 on model spaces."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("thresholds", help="evaluate regime constants and flags")
    if command in (None, "thresholds"):
        _add_field_flags(sp, _cli.EquationParams)
    sp.add_argument("--config", help="flat key=value configuration file")
    sp.add_argument("--out", help="JSON output path (default: stdout)")
    sp.set_defaults(func=cmd_thresholds)

    sp = sub.add_parser("solve", help="shoot the radial profile, write CSV")
    if command in (None, "solve"):
        _add_field_flags(sp, _cli.EquationParams, _cli.ModelSpace, _cli.ShootingConfig)
    sp.add_argument("--config", help="flat key=value configuration file")
    sp.add_argument("--out", required=True, help="solution CSV path")
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("check", help="run one inequality check on a solution file")
    kinds = sp.add_subparsers(dest="kind", required=True)
    for kind in CHECK_KINDS:
        kp = kinds.add_parser(kind)
        kp.add_argument("--solution", required=True, help="solution CSV from solve")
        # --R only narrows the Bochner window; every other kind needs it
        kp.add_argument("--R", type=float, required=not kind.startswith("bochner"))
        if kind == "caccioppoli":
            kp.add_argument("--b", type=float, help="test-function exponent (default: 1.1 b_min)")
        kp.add_argument("--out", help="report JSON path (default: stdout)")
        kp.set_defaults(func=cmd_check)

    sp = sub.add_parser("sweep", help="map existence over a (p, sigma) grid")
    if command in (None, "sweep"):
        _add_field_flags(sp, _cli.SweepGrid)
    sp.add_argument("--config", help="flat key=value configuration file")
    sp.add_argument("--out", required=True, help="table CSV path")
    sp.add_argument("--summary", help="summary JSON path")
    sp.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv[0] if argv else None)
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
