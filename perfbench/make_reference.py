#!/usr/bin/env python3
"""Regenerate the reference classification tables of both sweeps.

    PYTHONPATH=src python3 perfbench/make_reference.py

Writes perfbench/reference/<workload>.csv for the default seed's grid:
p, sigma, classification and r_star per cell.  The theory flags are left
out on purpose: they are expected to change while classifications and
r_star must not.  Run it only when a change to the classifications is
intended and reviewed.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import plaplab as pl  # noqa: E402
import workloads as W  # noqa: E402

for name, K in (("sweep_flat", 0.0), ("sweep_curved", 1.0)):
    table = pl.sweep(W.sweep_grid(pl, K, W.DEFAULT_SEED))
    with open(HERE / "reference" / f"{name}.csv", "w") as fh:
        W.write_reference(table.cells, fh)
    print(f"{name}: {len(table)} cells")
