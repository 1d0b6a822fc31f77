"""`import plaplab` and every `plaplab check` run without loading scipy;
only solve_radial (and through it the dilation check), ball_volume and
unit_sphere_area import it, on first use."""

import json
import os
import subprocess
import sys
from pathlib import Path

import plaplab as pl
from plaplab.cli import CHECK_KINDS, main

SCRIPT = """
import contextlib, io, json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

import plaplab, plaplab.cli
report = {"import": scipy_modules(), "checks": {}}
for kind in plaplab.cli.CHECK_KINDS:
    with contextlib.redirect_stdout(io.StringIO()):
        code = plaplab.cli.main(["check", kind, "--solution", sys.argv[1], "--R", "2"])
    report["checks"][kind] = [code, scipy_modules()]
params = plaplab.EquationParams(n=3, p=2.0, a=1.0, sigma=1.0)
sol = plaplab.solve_radial(params, plaplab.ModelSpace(n=3), plaplab.ShootingConfig(r_max=4.0))
report["solve"] = [sol.termination.kind, "scipy.integrate" in sys.modules]
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
        [sys.executable, "-c", SCRIPT, str(csv)],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    report = json.loads(proc.stdout)
    assert report["import"] == []
    assert report["checks"] == {kind: [0, []] for kind in CHECK_KINDS}
    assert report["solve"] == ["hit_zero", True]
