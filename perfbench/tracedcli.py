"""Run one plaplab CLI command with spans around its calls into each layer.

    python perfbench/tracedcli.py SPANS_JSON <plaplab cli arguments...>

The traced twin of ``python -m plaplab.cli <arguments...>``: it times the
import of plaplab.cli, swaps traced wrappers into the names the CLI module
(and the verify module, for classify_regime) imported, runs ``main`` and
writes the spans as a JSON list to SPANS_JSON before exiting with main's
exit code.
"""

import importlib
import json
import sys

from spans import Tracer

SOLVER = ("solve_radial", "write_solution_csv", "read_solution_csv", "to_log_solution")
VERIFY = (
    "check_gradient_estimate",
    "check_harnack",
    "check_bochner_lemma",
    "check_bochner_thm2",
    "check_caccioppoli",
    "measure_sobolev_ratio",
)


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    with tracer.span("cli", "import"):
        cli = importlib.import_module("plaplab.cli")
    verify = importlib.import_module("plaplab.verify")
    targets = [(cli, name, "solver") for name in SOLVER]
    targets += [(cli, name, "verify") for name in VERIFY]
    targets.append((verify, "classify_regime", "thresholds"))
    with tracer.span("cli", argv[0]), tracer.patched(targets):
        code = cli.main(argv)
    with open(spans_path, "w") as fh:
        json.dump([s.to_dict() for s in tracer.spans], fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
