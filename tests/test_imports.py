"""plaplab runs on numpy alone: `import plaplab`, every `plaplab check`,
a library solve, a CLI solve and sweep, and the dilation check (which
solves) leave scipy unloaded.  The checks also leave numpy.ma unloaded,
which np.median imports, and plaplab.sweep, which they do not run; each
command loads only the plaplab modules it runs, and calls the library
through the names on plaplab.cli that the traced CLI swaps; pl.sweep is the
sweep function whichever import loads plaplab.sweep.  The package lists each
public name once, and a name loads only its own module."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import plaplab as pl
import plaplab.cli as cli
from plaplab.cli import CHECK_KINDS, main

SCRIPT = """
import contextlib, io, json, os, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

def cli(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return [plaplab.cli.main(list(argv)), scipy_modules()]

import plaplab, plaplab.cli
csv, out = sys.argv[1], sys.argv[2]
report = {"import": scipy_modules(), "checks": {}}
for kind in plaplab.cli.CHECK_KINDS:
    report["checks"][kind] = cli("check", kind, "--solution", csv, "--R", "2")
report["checks_numpy_ma"] = "numpy.ma" in sys.modules
report["checks_sweep"] = "plaplab.sweep" in sys.modules
params = plaplab.EquationParams(n=3, p=2.0, a=1.0, sigma=1.0)
flat = plaplab.ModelSpace(n=3)
sol = plaplab.solve_radial(params, flat, plaplab.ShootingConfig(r_max=4.0))
report["solve"] = [sol.termination.kind, scipy_modules()]
report["cli_solve"] = cli("solve", "--n", "3", "--p", "2", "--a", "1", "--sigma", "1",
                          "--r-max", "4", "--out", os.path.join(out, "solve.csv"))
report["cli_sweep"] = cli("sweep", "--n", "3", "--a-sign", "1", "--K", "0",
                          "--p-min", "2", "--p-max", "2", "--p-step", "1",
                          "--sigma-min", "0.5", "--sigma-max", "1", "--sigma-step", "0.5",
                          "--r-max", "10", "--out", os.path.join(out, "sweep.csv"))
rep = plaplab.check_gradient_scale_invariance(params, flat, plaplab.ShootingConfig(r_max=4.0), R=2.0)
report["scale_invariance"] = [rep.passed, scipy_modules()]
print(json.dumps(report))
"""


def _run_fresh(script, *args):
    """The JSON that script prints when run in a fresh interpreter."""
    env = dict(os.environ)
    src = str(Path(pl.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", script, *map(str, args)],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout)


def test_checks_load_no_scipy(tmp_path):
    csv = tmp_path / "sinc.csv"
    assert main(["solve", "--n", "3", "--p", "2", "--a", "1", "--sigma", "1",
                 "--r-max", "4", "--out", str(csv)]) == 0
    report = _run_fresh(SCRIPT, csv, tmp_path)
    assert report["import"] == []
    assert report["checks"] == {kind: [0, []] for kind in CHECK_KINDS}
    assert report["checks_numpy_ma"] is False
    assert report["checks_sweep"] is False
    assert report["solve"] == ["hit_zero", []]
    assert report["cli_solve"] == [0, []]
    assert report["cli_sweep"] == [0, []]
    assert report["scale_invariance"] == [True, []]


COMMAND = """
import contextlib, io, json, sys
import plaplab.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = plaplab.cli.main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("plaplab."))]))
"""

# per command: the plaplab modules it must leave unloaded
NOT_LOADED = {
    "solve": {"plaplab.verify", "plaplab.proof", "plaplab._quad"},
    "gradient": {"plaplab.solver", "plaplab.proof"},
    "harnack": {"plaplab.solver", "plaplab.proof"},
    **dict.fromkeys(("bochner", "bochner2"), {"plaplab.solver", "plaplab.verify", "plaplab._quad"}),
    **dict.fromkeys(("caccioppoli", "sobolev"), {"plaplab.solver", "plaplab.verify"}),
}


@pytest.mark.parametrize("command", [*NOT_LOADED, "thresholds"])
def test_command_loads_only_what_it_runs(command, tmp_path):
    """Each command, in its own fresh interpreter, loads the modules it runs
    and not the others: solve no checker, a check no stepper and no checker
    module but its own, thresholds nothing but errors and thresholds."""
    csv = tmp_path / "sinc.csv"
    solve = ["solve", "--n", "3", "--p", "2", "--a", "1", "--sigma", "1", "--r-max", "4"]
    if command == "thresholds":
        argv = ["thresholds", "--n", "3", "--p", "2"]
    elif command == "solve":
        argv = [*solve, "--out", csv]
    else:
        assert main([*solve, "--out", str(csv)]) == 0
        argv = ["check", command, "--solution", csv, "--R", "2"]
    code, loaded = _run_fresh(COMMAND, *argv)
    assert code == 0
    if command == "thresholds":
        assert loaded == ["plaplab.cli", "plaplab.errors", "plaplab.thresholds"]
    else:
        assert not NOT_LOADED[command] & set(loaded)


# the names perfbench's traced CLI swaps wrappers into, and their modules
TRACED = {
    "solve_radial": "plaplab.solver",
    "write_solution_csv": "plaplab.solution",
    "read_solution_csv": "plaplab.solution",
    "to_log_solution": "plaplab.solution",
    "check_gradient_estimate": "plaplab.verify",
    "check_harnack": "plaplab.verify",
    "check_bochner_lemma": "plaplab.proof",
    "check_bochner_thm2": "plaplab.proof",
    "check_caccioppoli": "plaplab.proof",
    "measure_sobolev_ratio": "plaplab.proof",
}


def test_cli_resolves_the_traced_names():
    """A freshly imported plaplab.cli gives each traced name as an attribute,
    the function of the library module."""
    script = (
        "import json, sys\n"
        "import plaplab.cli\n"
        "print(json.dumps({n: getattr(plaplab.cli, n).__module__ for n in sys.argv[1:]}))\n"
    )
    assert _run_fresh(script, *TRACED) == TRACED


# the names perfbench's traced sweep swaps wrappers into on the plaplab.sweep
# module, and their modules: the sweep calls only the first, and imports the
# other two for the tracer alone
SWEEP_TRACED = {
    "classify_existence": "plaplab.sweep",
    "solve_radial": "plaplab.solver",
    "classify_regime": "plaplab.thresholds",
}


def test_sweep_module_resolves_the_traced_names():
    """A freshly imported plaplab.sweep module gives each name the traced
    sweep patches on it as an attribute, the function of its module."""
    script = (
        "import json, sys\n"
        "import plaplab.sweep\n"
        "module = sys.modules['plaplab.sweep']\n"
        "print(json.dumps({n: getattr(module, n).__module__ for n in sys.argv[1:]}))\n"
    )
    assert _run_fresh(script, *SWEEP_TRACED) == SWEEP_TRACED


def test_commands_call_the_names_on_the_cli_module(monkeypatch, tmp_path):
    """A wrapper set on plaplab.cli, as the traced CLI sets it, is what the
    command calls: once per name for solve and for check gradient."""
    calls = dict.fromkeys(
        ("solve_radial", "write_solution_csv", "read_solution_csv", "check_gradient_estimate"), 0
    )
    for name in calls:
        def counted(*args, _name=name, _call=getattr(cli, name), **kwargs):
            calls[_name] += 1
            return _call(*args, **kwargs)

        monkeypatch.setattr(cli, name, counted)
    csv = str(tmp_path / "sinc.csv")
    assert main(["solve", "--n", "3", "--p", "2", "--a", "1", "--sigma", "1",
                 "--r-max", "4", "--out", csv]) == 0
    assert calls == {"solve_radial": 1, "write_solution_csv": 1,
                     "read_solution_csv": 0, "check_gradient_estimate": 0}
    assert main(["check", "gradient", "--solution", csv, "--R", "2"]) == 0
    assert set(calls.values()) == {1}


def test_public_names_are_listed_once():
    """plaplab.__all__ is the rows of plaplab._NAMES end to end, each name
    once; each is its module's object, and each row is every public
    function and class its module defines, so a new name cannot go unlisted."""
    import importlib
    import inspect

    assert pl.__all__ == [name for names in pl._NAMES.values() for name in names]
    assert len(set(pl.__all__)) == len(pl.__all__)
    for module, names in pl._NAMES.items():
        mod = importlib.import_module(f"plaplab.{module}")
        for name in names:
            assert getattr(pl, name) is getattr(mod, name)
        defined = {
            name
            for name, value in vars(mod).items()
            if (inspect.isfunction(value) or inspect.isclass(value))
            and value.__module__ == mod.__name__
            and not name.startswith("_")
        }
        assert set(names) == defined, module
    assert callable(pl.sweep) and importlib.import_module("plaplab.sweep").__name__ == "plaplab.sweep"


LOADS = """
import json, sys
import plaplab as pl
loaded = {}
for expr in sys.argv[1:]:
    before = set(sys.modules)
    eval(expr)
    loaded[expr] = sorted(m[len("plaplab."):] for m in set(sys.modules) - before
                          if m.startswith("plaplab."))
print(json.dumps(loaded))
"""

SWEEP_MODULES = ["_fd", "errors", "geometry", "solution", "solver", "sweep", "thresholds"]


@pytest.mark.parametrize(
    "exprs, modules",
    [
        (("pl.__all__", "dir(pl)"), [[], []]),
        (("pl.EquationParams",), [["errors", "thresholds"]]),
        (("pl.SweepGrid",), [SWEEP_MODULES]),
        (("pl.sweep",), [SWEEP_MODULES]),
        (("pl.compare_with_theory",), [SWEEP_MODULES]),
    ],
    ids=["listing", "EquationParams", "SweepGrid", "sweep", "compare_with_theory"],
)
def test_name_loads_its_module_alone(exprs, modules):
    """In a fresh interpreter, listing the public names loads no submodule,
    and a name loads its own module and what that module imports, no other."""
    assert _run_fresh(LOADS, *exprs) == dict(zip(exprs, modules))


SWEEP_LOADERS = {
    "import": "import plaplab.sweep",
    "from-import": "from plaplab.sweep import SweepGrid",
    "attribute": "pl.SweepGrid",
    "cli": "main(['sweep', '--n', '3', '--a-sign', '1', '--K', '0', '--p-min', '2', "
    "'--p-max', '2', '--p-step', '1', '--sigma-min', '1', '--sigma-max', '1', "
    "'--sigma-step', '1', '--r-max', '4', '--out', sys.argv[1]])",
}


@pytest.mark.parametrize("loader", SWEEP_LOADERS.values(), ids=SWEEP_LOADERS.keys())
def test_package_sweep_is_the_function_whatever_loads_it(loader, tmp_path):
    """pl.sweep is the sweep function, not its module, whichever import loads
    plaplab.sweep first."""
    script = (
        "import contextlib, io, json, sys\n"
        "import plaplab as pl\n"
        "from plaplab.cli import main\n"
        "assert 'plaplab.sweep' not in sys.modules\n"
        f"with contextlib.redirect_stdout(io.StringIO()):\n    {loader}\n"
        "print(json.dumps(pl.sweep is sys.modules['plaplab.sweep'].sweep))\n"
    )
    assert _run_fresh(script, tmp_path / "table.csv") is True
