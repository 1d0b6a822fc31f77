"""plaplab runs on numpy alone: `import plaplab`, every `plaplab check`,
a library solve, a CLI solve and sweep, and the dilation check (which
solves) leave scipy unloaded.  The checks also leave numpy.ma unloaded,
which np.median imports."""

import json
import os
import subprocess
import sys
from pathlib import Path

import plaplab as pl
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


def test_checks_load_no_scipy(tmp_path):
    csv = tmp_path / "sinc.csv"
    assert main(["solve", "--n", "3", "--p", "2", "--a", "1", "--sigma", "1",
                 "--r-max", "4", "--out", str(csv)]) == 0
    env = dict(os.environ)
    src = str(Path(pl.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(csv), str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    report = json.loads(proc.stdout)
    assert report["import"] == []
    assert report["checks"] == {kind: [0, []] for kind in CHECK_KINDS}
    assert report["checks_numpy_ma"] is False
    assert report["solve"] == ["hit_zero", []]
    assert report["cli_solve"] == [0, []]
    assert report["cli_sweep"] == [0, []]
    assert report["scale_invariance"] == [True, []]


def test_package_all_is_the_module_lists():
    """plaplab.__all__ is the modules' __all__ lists end to end: each public
    name is listed once, in the module that defines it, and resolves."""
    import importlib

    modules = ("errors", "geometry", "thresholds", "solver", "verify", "sweep")
    lists = [importlib.import_module(f"plaplab.{m}").__all__ for m in modules]
    assert pl.__all__ == [name for names in lists for name in names]
    assert len(set(pl.__all__)) == len(pl.__all__)
    for module, names in zip(modules, lists):
        for name in names:
            assert getattr(pl, name) is getattr(importlib.import_module(f"plaplab.{module}"), name)
    assert callable(pl.sweep) and importlib.import_module("plaplab.sweep").__name__ == "plaplab.sweep"
