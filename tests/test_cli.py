"""Command-line interface: exit-code contract and file round trips."""

import argparse
import json
import math
import os
import stat
from dataclasses import fields, is_dataclass
from pathlib import Path
from typing import get_type_hints

import numpy as np
import pytest

import plaplab as pl
from plaplab.cli import CHECK_KINDS, build_parser, main


def run(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def sinc_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "sinc.csv"
    code = run(
        "solve", "--n", "3", "--p", "2", "--a", "1", "--sigma", "1",
        "--K", "0", "--u0", "1", "--r-max", "4", "--out", str(path),
    )
    assert code == 0
    return str(path)


# ---------------------------------------------------------------------------
# thresholds


def test_thresholds_stdout(capsys):
    assert run("thresholds", "--n", "3", "--p", "2") == 0
    out = json.loads(capsys.readouterr().out)
    assert out["sigma1"] == pytest.approx(2.8164965809277263, abs=1e-9)
    assert "thm1_applicable" not in out  # no (a, sigma) given


def test_thresholds_with_regime_flags(capsys):
    assert run("thresholds", "--n", "3", "--p", "2", "--a", "1", "--sigma", "2") == 0
    out = json.loads(capsys.readouterr().out)
    assert set(out) == {
        "alpha",
        "sigma1",
        "sigma2",
        "thm2_threshold",
        "beta",
        "thm1_applicable",
        "thm2_applicable",
    }
    assert out["thm1_applicable"] is True
    assert out["thm2_applicable"] is False


def test_thresholds_just_below_window_end(capsys):
    """The last float below p = 2n-1 is inside the first estimate's window."""
    assert run("thresholds", "--n", "4", "--p", "6.999999999999999") == 0
    out = json.loads(capsys.readouterr().out)
    assert out["sigma2"] < out["sigma1"]


def test_thresholds_invalid_dimension():
    assert run("thresholds", "--n", "2", "--p", "2") == 2


@pytest.mark.filterwarnings("error")
def test_thresholds_infinite_p_is_invalid(capsys):
    """p = inf is invalid input: exit 2 and one error line, not a JSON
    report that holds Infinity."""
    assert run("thresholds", "--n", "3", "--p", "inf") == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: p must be finite, got inf\n")


@pytest.mark.parametrize("given, missing", [(("--a", "1"), "sigma"), (("--sigma", "2"), "a")])
def test_thresholds_half_given_regime_is_invalid(given, missing, capsys):
    """a or sigma alone asks for a regime, which needs both."""
    assert run("thresholds", "--n", "3", "--p", "2", *given) == 2
    assert f"missing required option {missing!r}" in capsys.readouterr().err


def test_thresholds_has_no_format_flag(capsys):
    """thresholds writes JSON only."""
    assert run("thresholds", "--n", "3", "--p", "2", "--format", "json") == 2
    assert "unrecognized arguments: --format" in capsys.readouterr().err


def test_thresholds_config_file_and_override(tmp_path, capsys):
    cfg = tmp_path / "t.cfg"
    cfg.write_text("n=3\np=2\n# comment line\n")
    assert run("thresholds", "--config", str(cfg)) == 0
    first = json.loads(capsys.readouterr().out)
    assert first["alpha"] == pytest.approx(1.5)
    # flags win over the file
    assert run("thresholds", "--config", str(cfg), "--p", "4") == 0
    second = json.loads(capsys.readouterr().out)
    assert second["alpha"] == pytest.approx(6.0)


# ---------------------------------------------------------------------------
# solve


def test_solve_writes_parseable_csv(sinc_csv):
    sol = pl.read_solution_csv(sinc_csv)
    assert sol.termination.kind == "hit_zero"
    assert abs(sol.termination.r - math.pi) < 1e-4


def test_solve_blowup_is_a_result_not_an_error(tmp_path):
    out = tmp_path / "blow.csv"
    code = run(
        "solve", "--n", "3", "--p", "2", "--a", "-1", "--sigma", "3",
        "--r-max", "5", "--out", str(out),
    )
    assert code == 0
    assert pl.read_solution_csv(str(out)).termination.kind == "blow_up"


def test_solve_unwritable_path():
    assert run(
        "solve", "--n", "3", "--p", "2", "--a", "1", "--sigma", "1",
        "--out", "/nonexistent-dir/x.csv",
    ) == 3


def test_solve_missing_parameter(tmp_path):
    assert run("solve", "--n", "3", "--p", "2", "--out", str(tmp_path / "x.csv")) == 2


# one non-default value per ShootingConfig field
SHOOTING_VALUES = dict(
    u0=0.5,
    r_max=3.0,
    abs_tol=1e-11,
    rel_tol=1e-10,
    zero_threshold=1e-7,
    blowup_threshold=1e7,
)
SINC_PARAMS = ("--n", "3", "--p", "2", "--a", "1", "--sigma", "1")

# one value per field of the dataclasses behind each subcommand's flags
FIELD_VALUES = dict(
    n=4, p=2.5, a=-1.0, sigma=1.5, K=0.5, a_sign=-1.0,
    p_min=1.5, p_max=2.5, p_step=0.5, sigma_min=0.5, sigma_max=1.5, sigma_step=0.25,
    u0_list=(0.25, 1.0, 4.0), **SHOOTING_VALUES,
)
COMMAND_CLASSES = {
    "thresholds": (pl.EquationParams,),
    "solve": (pl.EquationParams, pl.ModelSpace, pl.ShootingConfig),
    "sweep": (pl.SweepGrid, pl.ShootingConfig),
}
OTHER_FLAGS = {"--config", "--out", "--summary"}


def shooting_flags(values):
    argv = []
    for name, value in values.items():
        text = ",".join(map(str, value)) if isinstance(value, tuple) else str(value)
        argv += ["--" + name.replace("_", "-"), text]
    return argv


def subparser(command):
    parser = build_parser()
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices[command]


def test_flags_follow_dataclass_fields():
    """Each subcommand has one flag per field, parsed as the field's
    annotated type, and no other flags but --config, --out and --summary."""
    assert set(SHOOTING_VALUES) == {f.name for f in fields(pl.ShootingConfig)}
    assert all(SHOOTING_VALUES[f.name] != f.default for f in fields(pl.ShootingConfig))
    for command, classes in COMMAND_CLASSES.items():
        types = {}
        for cls in classes:
            hints = get_type_hints(cls)
            types.update((f.name, hints[f.name]) for f in fields(cls))
        types = {name: t for name, t in types.items() if not is_dataclass(t)}
        flags = [s for a in subparser(command)._actions for s in a.option_strings]
        flags.remove("-h")
        flags.remove("--help")
        field_flags = {"--" + name.replace("_", "-") for name in types}
        assert len(flags) == len(set(flags))
        assert field_flags <= set(flags)
        assert set(flags) - field_flags <= OTHER_FLAGS
        values = {name: FIELD_VALUES[name] for name in types}
        args = build_parser().parse_args([command, "--out", "x.csv"] + shooting_flags(values))
        for name, value in values.items():
            assert getattr(args, name) == value
            assert type(getattr(args, name)) is types[name]


def test_solve_without_shooting_flags_writes_config_defaults(tmp_path):
    out = tmp_path / "sol.csv"
    assert run("solve", *SINC_PARAMS, "--r-max", "4", "--out", str(out)) == 0
    assert pl.read_solution_csv(out).config == pl.ShootingConfig(r_max=4.0)


def test_solve_writes_every_shooting_flag(tmp_path):
    out = tmp_path / "sol.csv"
    argv = shooting_flags(SHOOTING_VALUES)
    assert run("solve", *SINC_PARAMS, *argv, "--out", str(out)) == 0
    assert pl.read_solution_csv(out).config == pl.ShootingConfig(**SHOOTING_VALUES)


def test_config_key_naming_no_option_is_invalid(tmp_path, capsys):
    """A misspelt key, and a key of a retired option, as its flag would be:
    exit 2 with one error line and no file."""
    cfg = tmp_path / "solve.cfg"
    out = tmp_path / "sol.csv"
    for line in ("r_mx=4", "min_step=1e-12", "output_points=5"):
        cfg.write_text(f"n=3\np=2\na=1\nsigma=1\nr_max=4\n{line}\n")
        assert run("solve", "--config", str(cfg), "--out", str(out)) == 2
        key = line.partition("=")[0]
        assert capsys.readouterr().err == f"error: config key {key!r} names no option of solve\n"
        assert not out.exists()


@pytest.mark.parametrize(
    "line, error",
    [("r_max 4", "error: {cfg}:6: expected key=value"), ("p=two", "error: config key 'p': ")],
    ids=["no-equals", "unparsed-value"],
)
def test_malformed_config_line_is_invalid(line, error, tmp_path, capsys):
    cfg = tmp_path / "solve.cfg"
    cfg.write_text(f"n=3\np=2\na=1\nsigma=1\n# the span\n{line}\n")
    out = tmp_path / "sol.csv"
    assert run("solve", "--config", str(cfg), "--out", str(out)) == 2
    assert capsys.readouterr().err.startswith(error.format(cfg=cfg))
    assert not out.exists()


def test_min_step_flag_is_rejected(tmp_path, capsys):
    out = tmp_path / "sol.csv"
    argv = ("solve", *SINC_PARAMS, "--r-max", "4", "--out", str(out))
    assert run(*argv, "--min-step", "1e-12") == 2
    assert "unrecognized arguments: --min-step" in capsys.readouterr().err
    assert not out.exists()
    assert run(*argv) == 0
    assert run("sweep", "--min-step", "1e-12", "--out", str(tmp_path / "t.csv")) == 2
    assert "unrecognized arguments: --min-step" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "sweep"])
def test_output_points_flag_is_rejected(command, tmp_path, capsys):
    out = tmp_path / "out.csv"
    given = (*SINC_PARAMS, "--r-max", "4") if command == "solve" else ()
    assert run(command, *given, "--output-points", "5", "--out", str(out)) == 2
    assert "unrecognized arguments: --output-points" in capsys.readouterr().err
    assert not out.exists()


def test_flag_counts():
    """solve has 11 field flags plus --config and --out; sweep has 16 plus
    --config, --out and --summary."""
    counts = {
        command: sum(len(a.option_strings) for a in subparser(command)._actions) - 2  # -h, --help
        for command in ("solve", "sweep")
    }
    assert counts == {"solve": 13, "sweep": 19}


# ---------------------------------------------------------------------------
# check


@pytest.mark.parametrize(
    "kind", ["gradient", "harnack", "bochner", "bochner2", "caccioppoli", "sobolev"]
)
def test_check_kinds_pass_on_oracle(kind, sinc_csv, tmp_path, capsys):
    out = tmp_path / f"{kind}.json"
    code = run("check", kind, "--solution", sinc_csv, "--R", "2", "--out", str(out))
    assert code == 0
    report = json.loads(out.read_text())
    assert report["check"] in (kind, "bochner", "bochner2")
    assert report["pass"] in (True, None)


# ordered metrics keys, tolerances and samples_retained per kind: the
# integral checks state their 4001-point grid, the measurements on the
# solution grid state nothing, and the Bochner count (an int) depends on the
# samples their filters retain
BOCHNER_METRICS = [
    "pass_fraction",
    "min_margin_over_scale",
    "median_margin_over_scale",
    "r_min",
    "r_max",
]
BOCHNER_TOLERANCES = {"tol_rel": 1e-3, "required_fraction": 0.95}
REPORT_LAYOUT = {
    "gradient": (
        ["sup_ratio", "bound_shape", "empirical_C", "thm1_applicable", "thm2_applicable"],
        {},
        None,
    ),
    "harnack": (["ratio", "sup_ratio", "integrated_bound"], {}, None),
    "bochner": (BOCHNER_METRICS, BOCHNER_TOLERANCES, int),
    "bochner2": (BOCHNER_METRICS, BOCHNER_TOLERANCES, int),
    "caccioppoli": (
        ["b", "b_min", "beta", "lhs", "rhs", "slack", "scale"],
        {"tol_quad": 1e-6},
        4001,
    ),
    "sobolev": (["q", "lhs", "rhs_core", "volume", "empirical_constant"], {}, 4001),
}


@pytest.mark.parametrize("kind", sorted(REPORT_LAYOUT))
def test_check_report_keys(kind, sinc_csv, capsys):
    """Each report's envelope, ordered metrics keys, tolerances with their
    values, and samples_retained: its value, or its type for the Bochner
    kinds."""
    assert run("check", kind, "--solution", sinc_csv, "--R", "2") == 0
    report = json.loads(capsys.readouterr().out)
    metrics, tolerances, retained = REPORT_LAYOUT[kind]
    assert list(report) == [
        "check",
        "params",
        "space",
        "R",
        "pass",
        "metrics",
        "samples_retained",
        "tolerances",
    ]
    assert report["check"] == kind
    assert list(report["metrics"]) == metrics
    assert report["tolerances"] == tolerances
    count = report["samples_retained"]
    if retained is int:
        assert type(count) is int
    else:
        assert type(count) is type(retained) and count == retained


# a value for each flag beyond --solution, --R and --out, and the kinds that
# read it; the checkers' tolerances and grids are fixed and the output is JSON
KIND_FLAGS = {
    "--theorem": ("thm2", set()),
    "--tol-rel": ("0.5", set()),
    "--b": ("50", {"caccioppoli"}),
    "--quadrature-points": ("11", set()),
    "--format": ("json", set()),
}


@pytest.mark.parametrize("kind, flag", [(kind, flag) for kind in REPORT_LAYOUT for flag in KIND_FLAGS])
def test_check_accepts_only_its_own_flags(kind, flag, sinc_csv, capsys):
    """A kind runs with a flag it reads and exits 2 on one it does not."""
    value, readers = KIND_FLAGS[flag]
    code = run("check", kind, "--solution", sinc_csv, "--R", "2", flag, value)
    err = capsys.readouterr().err
    if kind in readers:
        assert code == 0
    else:
        assert code == 2
        assert f"unrecognized arguments: {flag}" in err


@pytest.mark.filterwarnings("error")
def test_check_infinite_b_is_invalid(sinc_csv, capsys):
    """b = inf is invalid input: exit 2 before the test function's powers
    can warn or turn the verdict into NaN."""
    assert run("check", "caccioppoli", "--solution", sinc_csv, "--R", "1.5", "--b", "inf") == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: b must be finite and > 1, got inf\n")


def test_check_corrupted_solution_fails(sinc_csv, tmp_path):
    """Scaling w at every node, so that the flux rebuilt from the nodes, and
    with it the derived du, no longer fits u, must trip the pointwise check."""
    with open(sinc_csv) as fh:
        lines = fh.read().splitlines()
    c = 1 / math.sqrt(2.0)  # f = |(p-1) du / u|^p would halve at p = 2, where du = w
    rows = []
    for ln in lines:
        if ln.startswith("#") or ln == "r,u,w":
            rows.append(ln)
        else:
            r, u, w = ln.split(",")
            rows.append(f"{r},{u},{float(w) * c:.17g}")
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(rows) + "\n")
    assert run("check", "bochner", "--solution", str(bad), "--R", "2") == 1


def test_check_refuses_a_radius_off_the_grid(sinc_csv, tmp_path, capsys):
    """r is rebuilt from termination_r, never read: a file of samples with
    their radii on the grid, in the r,u,w layout of files written before the
    u,w layout, is invalid input, exit 2, since its first radius is 0 and
    not the series start; so is the u,w layout itself, and a termination
    radius of 0 or one whose grid step underflows to 0."""
    text = Path(sinc_csv).read_text()
    meta, _, _ = text.partition("r,u,w\n")
    sol = pl.read_solution_csv(sinc_csv)
    samples = [f"{r:.17g},{u:.17g},{w:.17g}" for r, u, w in zip(sol.r, sol.u, sol.w)]
    end = f"# termination_r={sol.r_end:.17g}\n"
    assert end in meta
    bad = tmp_path / "bad.csv"
    for content, error in [
        (
            meta + "r,u,w\n" + "\n".join(samples) + "\n",
            "first radius 0.0 is not the series start 1e-06 r_max = 4e-06",
        ),
        (
            meta + "u,w\n" + "\n".join(row.split(",", 1)[1] for row in samples) + "\n",
            "unexpected column header: 'u,w'",
        ),
        (
            text.replace(end, "# termination_r=0\n"),
            "termination.r must be finite and > 0, got 0.0",
        ),
        (
            text.replace(end, "# termination_r=5e-324\n"),
            "2001 samples from 0 to termination.r = 5e-324 do not increase strictly",
        ),
    ]:
        bad.write_text(content)
        assert run("check", "gradient", "--solution", str(bad), "--R", "2") == 2
        assert capsys.readouterr() == ("", f"error: {error}\n")


# each edit of the sinc file's rows, and the error it gives from the edited
# rows, the file line of the first row and the termination radius
@pytest.mark.parametrize(
    "edit, error",
    [
        pytest.param(
            lambda rows: rows[:3] + [rows[2]] + rows[4:],
            lambda rows, first, end: (
                f"malformed data rows: line {first + 3} does not increase the radius: {rows[3]!r}"
            ),
            id="repeated-radius",
        ),
        pytest.param(
            lambda rows: [rows[1], rows[0], *rows[2:]],
            lambda rows, first, end: (
                f"malformed data rows: line {first + 1} does not increase the radius: {rows[1]!r}"
            ),
            id="falling-radius",
        ),
        pytest.param(
            lambda rows: ["4.0000000000000007e-06" + rows[0][rows[0].index(",") :], *rows[1:]],
            lambda rows, first, end: (
                "first radius 4.000000000000001e-06 is not the series start 1e-06 r_max = 4e-06"
            ),
            id="first-radius",
        ),
        pytest.param(
            lambda rows: rows[:1],
            lambda rows, first, end: f"termination_r = {end!r} is not the one node's radius 4e-06",
            id="one-row",
        ),
        pytest.param(
            lambda rows: rows[:-1],
            lambda rows, first, end: (
                "termination_r = {!r} is outside the last step ({!r}, {!r}]".format(
                    end, *(float(row.split(",")[0]) for row in rows[-2:])
                )
            ),
            id="last-step-dropped",
        ),
    ],
)
def test_check_refuses_nodes_no_run_ends_with(sinc_csv, tmp_path, capsys, edit, error):
    """The nodes of a run are finite, increase from the series start
    1e-6 r_max, and hold the termination radius in their last step (or at
    their one radius): a file whose nodes do not exits 2 with one line."""
    meta, _, body = Path(sinc_csv).read_text().partition("r,u,w\n")
    rows = edit(body.splitlines())
    bad = tmp_path / "bad.csv"
    bad.write_text(meta + "r,u,w\n" + "\n".join(rows) + "\n")
    capsys.readouterr()
    assert run("check", "gradient", "--solution", str(bad), "--R", "2") == 2
    first = meta.count("\n") + 2  # the file line of the first row
    expected = error(rows, first, pl.read_solution_csv(sinc_csv).r_end)
    assert capsys.readouterr() == ("", f"error: {expected}\n")


def test_check_malformed_csv(tmp_path):
    bad = tmp_path / "garbage.csv"
    bad.write_text("# n=3\nnot,a,valid,header\n1,2\n")
    assert run("check", "bochner", "--solution", str(bad)) == 2


def _with_u(row, value):
    r, _, w = row.split(",")
    return f"{r},{value},{w}"


# the sinc file's rows are its 61 nodes: the start and 60 accepted steps
@pytest.mark.parametrize(
    "edit, bad_row",
    [
        pytest.param(lambda rows: rows + ["# K=0"], 61, id="metadata-after-rows"),
        pytest.param(lambda rows: rows[:1] + ["# K=0"] + rows[1:], 1, id="metadata-between-rows"),
        pytest.param(lambda rows: rows[:4] + ["# K=0"] + rows[4:], 4, id="metadata-fifth-row"),
        pytest.param(lambda rows: rows[:1] + ["   "] + rows[1:], 1, id="spaces-between-rows"),
        pytest.param(lambda rows: [*rows[:2], _with_u(rows[2], "abc"), *rows[3:]], 2,
                     id="non-numeric-u"),
    ],
)
def test_check_refuses_lines_among_the_rows(sinc_csv, tmp_path, capsys, edit, bad_row):
    """Metadata goes above the header, and a blank row holds no spaces:
    each layout below it exits 2 with one error line, which names the file
    line of the first rejected row (0-based bad_row below the header) and
    quotes it."""
    meta, _, body = Path(sinc_csv).read_text().partition("r,u,w\n")
    assert len(body.splitlines()) == 61
    rows = edit(body.splitlines())
    bad = tmp_path / "bad.csv"
    bad.write_text(meta + "r,u,w\n" + "\n".join(rows) + "\n")
    capsys.readouterr()
    assert run("check", "gradient", "--solution", str(bad), "--R", "2") == 2
    err = capsys.readouterr().err
    line = meta.count("\n") + 2 + bad_row  # the header is file line meta.count("\n") + 1
    assert err == (
        f"error: malformed data rows: line {line} is not 3 comma-separated numbers: "
        f"{rows[bad_row]!r}\n"
    )


def test_check_missing_radius(sinc_csv):
    assert run("check", "gradient", "--solution", sinc_csv) == 2


def test_check_unknown_kind(sinc_csv):
    assert run("check", "entropy", "--solution", sinc_csv) == 2


# ---------------------------------------------------------------------------
# sweep


def test_sweep_end_to_end(tmp_path, capsys):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(
        "n=3\na_sign=1\nK=0\n"
        "p_min=2\np_max=2\np_step=1\n"
        "sigma_min=1\nsigma_max=2\nsigma_step=0.5\n"
        "r_max=20\n"
    )
    table = tmp_path / "table.csv"
    summary = tmp_path / "summary.json"
    code = run(
        "sweep", "--config", str(cfg), "--out", str(table), "--summary", str(summary)
    )
    assert code == 0
    rows = table.read_text().splitlines()
    assert rows[0].startswith("p,sigma,classification")
    assert len(rows) == 4
    text = summary.read_text()
    assert text.endswith("}\n")  # written as every JSON file is, with a final newline
    s = json.loads(text)
    assert s["contradiction_count"] == 0
    assert "caveat" in s


def test_sweep_contradiction_exits_1_and_lists_the_cell(tmp_path, capsys):
    """At r_max = 1 the n = 3, p = 2, sigma = 1 profile u = sin r / r has not
    reached its zero at pi, so the cell persists while both nonexistence
    flags hold: a contradiction, which the summary names."""
    summary = tmp_path / "s.json"
    code = run(
        "sweep", "--n", "3", "--a-sign", "1", "--p-min", "2", "--p-max", "2", "--p-step", "1",
        "--sigma-min", "1", "--sigma-max", "1", "--sigma-step", "1", "--r-max", "1",
        "--out", str(tmp_path / "t.csv"), "--summary", str(summary),
    )
    assert code == 1
    assert "contradictions=1" in capsys.readouterr().out
    s = json.loads(summary.read_text())
    assert s["contradiction_count"] == 1
    assert s["contradictions"] == [{"p": 2.0, "sigma": 1.0, "classification": "persists"}]


def test_sweep_config_defaults_are_the_library_defaults(tmp_path):
    """A grid without shooting keys integrates as far from the CLI as from
    the library: the nested ShootingConfig starts from SweepGrid's default."""
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(
        "n=3\na_sign=1\np_min=2\np_max=2\np_step=1\n"
        "sigma_min=1\nsigma_max=1\nsigma_step=1\n"
    )
    summary = tmp_path / "s.json"
    code = run(
        "sweep", "--config", str(cfg), "--out", str(tmp_path / "t.csv"), "--summary", str(summary)
    )
    assert code == 0
    grid = pl.SweepGrid(
        n=3, a_sign=1.0, p_min=2.0, p_max=2.0, p_step=1.0,
        sigma_min=1.0, sigma_max=1.0, sigma_step=1.0,
    )
    library = pl.compare_with_theory(pl.sweep(grid)).to_dict()
    assert json.loads(summary.read_text())["r_max"] == library["r_max"] == grid.config.r_max


def test_sweep_inverted_range(tmp_path):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(
        "n=3\na_sign=1\nK=0\np_min=2\np_max=2\np_step=1\n"
        "sigma_min=3\nsigma_max=1\nsigma_step=0.5\nr_max=20\n"
    )
    assert run("sweep", "--config", str(cfg), "--out", str(tmp_path / "t.csv")) == 2


def test_sweep_tiny_rmax_reports_warnings_not_contradictions(tmp_path, capsys):
    """A span too short to classify yields indeterminate cells: exit 0 with
    the warning count in the summary, never spurious contradictions."""
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(
        "n=3\na_sign=1\nK=0\np_min=2\np_max=2\np_step=1\n"
        "sigma_min=1\nsigma_max=2\nsigma_step=0.5\nr_max=0.001\n"
    )
    table = tmp_path / "t.csv"
    summary = tmp_path / "s.json"
    code = run(
        "sweep", "--config", str(cfg), "--out", str(table), "--summary", str(summary)
    )
    assert code == 0
    s = json.loads(summary.read_text())
    assert s["contradiction_count"] == 0
    assert s["numerical_failures"] == 3
    assert all("numerical_failure" in ln for ln in table.read_text().splitlines()[1:])


def test_sweep_flag_overrides_config(tmp_path):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(
        "n=3\na_sign=1\nK=0\np_min=2\np_max=2\np_step=1\n"
        "sigma_min=1\nsigma_max=1\nsigma_step=0.5\nr_max=20\n"
    )
    out = tmp_path / "t.csv"
    code = run(
        "sweep", "--config", str(cfg), "--sigma-max", "1.5", "--out", str(out)
    )
    assert code == 0
    assert len(out.read_text().splitlines()) == 3  # header + 2 cells


def test_round_trip_preserves_17_digits(sinc_csv):
    sol = pl.read_solution_csv(sinc_csv)
    import io

    buf = io.StringIO()
    pl.write_solution_csv(sol, buf)
    buf.seek(0)
    again = pl.read_solution_csv(buf)
    for name in ("r", "u", "du", "w"):
        assert np.array_equal(getattr(sol, name), getattr(again, name))


@pytest.mark.parametrize(
    "flag, value", [("--p-step", "nan"), ("--p-max", "inf"), ("--u0-list", "")]
)
def test_sweep_non_finite_range_is_invalid(flag, value, tmp_path, capsys):
    """A non-finite range, or an empty list of center values, is invalid
    input: exit 2 with the library's message and no table."""
    out = tmp_path / "t.csv"
    code = run(
        "sweep", "--n", "3", "--a-sign", "1", "--p-min", "2", "--p-max", "3", "--p-step", "0.5",
        "--sigma-min", "1", "--sigma-max", "2", "--sigma-step", "0.5", "--r-max", "10",
        flag, value, "--out", str(out),
    )
    assert code == 2
    assert flag[2:].replace("-", "_") in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("step, count", [("5e-324", "inf"), ("1e-300", "1e+300")])
def test_sweep_unallocatable_grid_is_invalid(step, count, tmp_path, capsys):
    """A p step so small that the grid's point count is infinite, or more
    than a numpy array can hold, is invalid input: exit 2 with one line.
    (A step whose grid numpy would allocate is not run here.)"""
    out = tmp_path / "t.csv"
    code = run(
        "sweep", "--n", "3", "--a-sign", "1", "--p-min", "1.5", "--p-max", "2.5",
        "--p-step", step, "--sigma-min", "1", "--sigma-max", "2", "--sigma-step", "0.5",
        "--r-max", "10", "--out", str(out),
    )
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: p range 1.5..2.5 by p_step = {step} has {count} points,"
        " more than an array can hold\n"
    )
    assert not out.exists()


def test_sweep_center_value_beyond_threshold_is_invalid(tmp_path, capsys):
    """At K > 0 the default scan u0/4, u0, 4 u0 with u0 = 3e7 puts 1.2e8
    above the blow-up threshold: the sweep is invalid input, not a table of
    unexplained numerical failures."""
    out = tmp_path / "t.csv"
    code = run(
        "sweep", "--n", "3", "--a-sign", "1", "--K", "1", "--u0", "3e7",
        "--p-min", "2", "--p-max", "2.5", "--p-step", "0.25",
        "--sigma-min", "1", "--sigma-max", "1.5", "--sigma-step", "0.25",
        "--r-max", "10", "--out", str(out),
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "center value u0 = 120000000.0 is outside" in err
    assert "blowup_threshold) = (1e-08, 100000000.0)" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "kind", ["gradient", "harnack", "bochner", "bochner2", "caccioppoli", "sobolev"]
)
def test_check_nan_radius_is_invalid(kind, sinc_csv, capsys):
    """Every kind refuses a non-finite R by one rule, the Bochner kinds'
    window end included."""
    assert run("check", kind, "--solution", sinc_csv, "--R", "nan") == 2
    assert "R must be positive, got nan" in capsys.readouterr().err
    assert run("check", kind, "--solution", sinc_csv, "--R", "inf") == 2
    assert capsys.readouterr().err == "error: R must be finite, got inf\n"


def test_sweep_center_value_follows_the_dilation_law(tmp_path):
    """At K = 0, u0 -> 2 u0 dilates a profile by 2^((sigma-p+1)/p), so
    `sweep --u0 2` keeps the class of each cell whose predicted radius
    r(1) 2^(-(sigma-p+1)/p) lies below r_max, with that radius."""
    r_max = 50.0

    def table(u0):
        out = tmp_path / f"t{u0}.csv"
        code = run(
            "sweep", "--n", "3", "--a-sign", "1", "--K", "0",
            "--p-min", "1.5", "--p-max", "4", "--p-step", "0.25",
            "--sigma-min", "0.25", "--sigma-max", "6", "--sigma-step", "0.25",
            "--r-max", str(r_max), "--u0", u0, "--out", str(out),
        )
        assert code == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        return {(float(p), float(s)): (c, r and float(r)) for p, s, c, r, *_ in rows}

    one, two = table("1"), table("2")
    checked = 0
    for (p, sigma), (kind, r_one) in one.items():
        if not r_one:
            continue
        predicted = r_one * 2 ** (-(sigma - p + 1) / p)
        if predicted < r_max:
            assert two[(p, sigma)][0] == kind, (p, sigma)
            assert abs(two[(p, sigma)][1] - predicted) <= 1e-6 * predicted, (p, sigma)
            checked += 1
    assert checked > 200


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "column, value", [("u", "nan"), ("u", "inf"), ("w", "nan"), ("r", "inf")]
)
@pytest.mark.parametrize("kind", CHECK_KINDS)
def test_check_non_finite_profile_is_invalid(kind, column, value, sinc_csv, tmp_path, capsys):
    """No run ends with a non-finite node: a node row that holds nan or inf
    is refused as the file is read, every kind exiting 2 with one line that
    names its file line, before any arithmetic on the profile can warn or
    turn a report into NaN."""
    with open(sinc_csv) as fh:
        lines = fh.read().splitlines()
    row = lines.index("r,u,w") + 30
    fields = dict(zip("ruw", lines[row].split(",")))
    fields[column] = value
    lines[row] = ",".join(fields.values())
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    assert run("check", kind, "--solution", str(bad), "--R", "2") == 2
    assert capsys.readouterr() == (
        "",
        f"error: malformed data rows: line {row + 1} holds a non-finite node: {lines[row]!r}\n",
    )


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", CHECK_KINDS)
@pytest.mark.parametrize("edit", ["overflow", "zero-to-a-negative-power"])
def test_check_refuses_a_profile_whose_stages_overflow(kind, edit, sinc_csv, tmp_path, capsys):
    """A finite node whose stages overflow, as no run's do, rebuilds to a
    profile that holds inf or nan: every kind exits 2, naming the radius of
    the first non-finite sample, before any arithmetic on the profile can
    warn or turn a report into NaN.  So does a node u = 0 under sigma < 0
    and zero_threshold = 5e-324, whose floor 0.5 * 5e-324 rounds to 0, so
    that a stage takes 0 to a negative power."""
    with open(sinc_csv) as fh:
        lines = fh.read().splitlines()
    row = lines.index("r,u,w") + 30
    r, u, w = lines[row].split(",")
    if edit == "overflow":
        lines[row] = f"{r},{u},-1.7976931348623157e308"
    else:
        lines[row] = f"{r},0,{w}"
        lines[lines.index("# sigma=1")] = "# sigma=-0.5"
        lines[lines.index("# zero_threshold=1e-08")] = "# zero_threshold=5e-324"
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    sol = pl.read_solution_csv(bad)
    first = np.flatnonzero(~(np.isfinite(sol.u) & np.isfinite(sol.w)))[0]
    assert run("check", kind, "--solution", str(bad), "--R", "2") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: profile is not finite at r = {sol.r[first]:.6g}: ")
    assert captured.err.count("\n") == 1


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", ["caccioppoli", "sobolev"])
def test_check_subnormal_grid_step_is_invalid(kind, tmp_path, capsys):
    """A radius whose cutoff slope 6/R overflows is invalid input for both
    integral checks: exit 2, naming R, before any arithmetic on the grid
    can warn or turn a report into NaN."""
    path = tmp_path / "tiny.csv"
    code = run(
        "solve", "--n", "3", "--p", "2", "--a", "1", "--sigma", "1",
        "--r-max", "1e-303", "--out", str(path),
    )
    assert code == 3  # no accepted step; the series start is written
    capsys.readouterr()
    assert run("check", kind, "--solution", str(path), "--R", "5e-310") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: R = 5e-310 is too small: the cutoff slope 6/R overflows\n"


@pytest.mark.filterwarnings("error")
def test_integral_checks_at_a_tiny_normal_radius(tmp_path, capsys):
    """On a profile of span 1e-290 both integral checks run at R = 1e-300
    without a warning: the Sobolev constant is finite, while its lhs,
    rhs_core and volume, which carry R's powers, underflow."""
    path = tmp_path / "small.csv"
    code = run(
        "solve", "--n", "3", "--p", "2", "--a", "1", "--sigma", "1",
        "--r-max", "1e-290", "--out", str(path),
    )
    assert code == 0
    capsys.readouterr()
    for kind in ("sobolev", "caccioppoli"):
        out = tmp_path / f"{kind}.json"
        assert run("check", kind, "--solution", str(path), "--R", "1e-300",
                   "--out", str(out)) == 0
        assert capsys.readouterr().err == ""
    metrics = json.loads((tmp_path / "sobolev.json").read_text())["metrics"]
    assert metrics["empirical_constant"] == pytest.approx(0.0690874066578, rel=1e-9)


# ---------------------------------------------------------------------------
# output files: a path is rewritten in place and cut to the written length

SWEEP_CELLS = (
    "--n", "3", "--a-sign", "1", "--p-min", "2", "--p-max", "2", "--p-step", "1",
    "--sigma-min", "1", "--sigma-max", "2", "--sigma-step", "0.5",
)
# solve's solution CSV, sweep's table CSV, and the JSON of check --out and
# of sweep --summary
WRITERS = ["solution", "table", "check", "summary"]


def _write(writer, path, sinc_csv, tmp_path):
    """Run the command that writes the writer's output to path."""
    path, spare = str(path), str(tmp_path / "spare")
    argv = {
        "solution": ("solve", *SINC_PARAMS, "--r-max", "4", "--out", path),
        "table": ("sweep", *SWEEP_CELLS, "--r-max", "20", "--out", path),
        "check": ("check", "gradient", "--solution", sinc_csv, "--R", "2", "--out", path),
        "summary": ("sweep", *SWEEP_CELLS, "--r-max", "20", "--out", spare, "--summary", path),
    }[writer]
    assert run(*argv) == 0


def _fresh_output(writer, sinc_csv, tmp_path):
    """The bytes the writer writes to a path that held no file."""
    path = tmp_path / "fresh"
    _write(writer, path, sinc_csv, tmp_path)
    return path.read_bytes()


@pytest.mark.parametrize("writer", WRITERS)
def test_output_over_a_longer_file_is_cut_to_length(writer, sinc_csv, tmp_path):
    """A shorter output written over a longer file reads back as exactly
    its own bytes, in the same file: its inode and mode are kept."""
    expected = _fresh_output(writer, sinc_csv, tmp_path)
    out = tmp_path / "out"
    out.write_bytes(expected + b"a stale row of an earlier output\n" * 500)
    out.chmod(0o604)
    before = out.stat()
    _write(writer, out, sinc_csv, tmp_path)
    assert out.read_bytes() == expected
    after = out.stat()
    assert after.st_ino == before.st_ino
    assert stat.S_IMODE(after.st_mode) == 0o604


@pytest.mark.parametrize("writer", WRITERS)
def test_output_through_a_symlink(writer, sinc_csv, tmp_path):
    """A symlink is written through, to its longer target, and stays a link."""
    expected = _fresh_output(writer, sinc_csv, tmp_path)
    target, link = tmp_path / "target", tmp_path / "link"
    target.write_bytes(expected * 3)
    link.symlink_to(target)
    _write(writer, link, sinc_csv, tmp_path)
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_bytes() == expected


@pytest.mark.parametrize("writer", WRITERS)
def test_output_to_a_device_or_a_fifo(writer, sinc_csv, tmp_path):
    """A path that is not a regular file is written without the cut, which
    /dev/null and a pipe refuse: both are accepted, and the FIFO's reader
    gets the whole output."""
    expected = _fresh_output(writer, sinc_csv, tmp_path)
    _write(writer, os.devnull, sinc_csv, tmp_path)
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # so the writer's open returns
    try:
        _write(writer, fifo, sinc_csv, tmp_path)
        received = os.read(reader, 1 << 16)  # every output fits the pipe's buffer
    finally:
        os.close(reader)
    assert received == expected


@pytest.mark.parametrize("command", ["solve", "sweep"])
def test_refused_command_leaves_existing_outputs_unchanged(command, tmp_path, capsys):
    """A command refused as invalid input opens none of its output paths:
    files already there keep every byte."""
    out, summary = tmp_path / "out", tmp_path / "summary.json"
    earlier = b"an earlier output\n" * 100
    out.write_bytes(earlier)
    summary.write_bytes(earlier)
    if command == "solve":
        argv = ("solve", *SINC_PARAMS, "--r-max", "4e-318", "--out", str(out))
    else:
        argv = ("sweep", *SWEEP_CELLS, "--r-max", "4e-318", "--out", str(out),
                "--summary", str(summary))
    assert run(*argv) == 2
    assert "r_max = 4e-318 is too small" in capsys.readouterr().err
    assert out.read_bytes() == earlier
    assert summary.read_bytes() == earlier
