"""One fresh interpreter running one workload: set up, report ready, then
time ops for the given number of seconds and print the raw result.

Started by run.py, once per set-up sample.  Protocol on stdout: the line
``ready`` once set-up (import, input build, one warm-up op) is done; with
--setup-only the worker then exits, otherwise it prints one JSON line with
the per-op records and, for a traced run, the per-layer metrics.

A closed loop with one client: each op starts when the previous one ends.
The untraced loop runs the workload's reference task between every two
ops (see layers.END_TO_END for why).
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import layers
import workloads as W
from spans import NullTracer, Tracer

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"
NULL = NullTracer()

# Standard-library modules a reference interpreter imports: a cold start
# with module loading, none of it numpy, scipy or plaplab.
STDLIB_IMPORTS = (
    "import argparse, asyncio, csv, decimal, email.parser, fractions, json, statistics, unittest"
)


def _oscillator(t, y):
    return [y[1], -y[0] - 0.1 * y[1]]


def _leaves_unit_band(t, y):
    return 2.0 - abs(y[0])  # never 0: the oscillator decays from 1


_leaves_unit_band.terminal = True


def toy_solve():
    """A damped oscillator integrated by scipy's solve_ivp: the kind of work
    one shooting solve does, with no plaplab code in it."""
    from scipy.integrate import solve_ivp

    solve_ivp(_oscillator, (0.0, 15.0), [1.0, 0.0], rtol=1e-9, atol=1e-12)


def toy_cell(k):
    """A short toy solve with a terminal event and dense output, as one
    sweep cell's solve is."""
    from scipy.integrate import solve_ivp

    solve_ivp(
        _oscillator,
        (0.0, 4.0 + k % 3),
        [1.0, 0.0],
        rtol=1e-9,
        atol=1e-12,
        events=(_leaves_unit_band,),
        dense_output=True,
    )


def _elapsed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    fn(*args, **kwargs)
    return time.perf_counter() - t0


class SweepWorkload:
    """One op is sweep(grid) with default arguments on the 264-cell grid."""

    items = W.GRID_CELLS

    def __init__(self, name, K):
        self.name = name
        self.K = K

    def setup(self, seed, tmp):
        import plaplab as pl

        self.pl = pl
        self.grid = W.sweep_grid(pl, self.K, seed)
        self.reference = None
        if seed == W.DEFAULT_SEED:
            self.reference = W.read_reference(REFERENCE_DIR / f"{self.name}.csv")
        sweep_mod = importlib.import_module("plaplab.sweep")
        self.targets = (
            (sweep_mod, "classify_existence", "sweep"),
            (sweep_mod, "solve_radial", "solver"),
            (sweep_mod, "classify_regime", "thresholds"),
        )
        self.stats = []
        pl.sweep(W.warmup_grid(pl, self.grid))

    def op(self, i, tracer):
        return tracer.call("sweep", "sweep", self.pl.sweep, self.grid)

    def reference_task(self):
        """96 toy cells on a pool as wide as sweep's default one.  Many
        short solves hand the GIL between the pool's threads as often as a
        sweep does, so they slow with the host's scheduling as a sweep
        does; a few long solves did not."""
        with ThreadPoolExecutor(max_workers=os.cpu_count()) as pool:
            return _elapsed(lambda: list(pool.map(toy_cell, range(96))))

    def input_class(self, i):
        return 0

    def gate(self, i, table):
        failed = W.sweep_failures(table.cells, self.reference)
        decided = sum(
            c.classification in ("zero_hit", "blow_up", "persists") for c in table
        )
        self.stats.append(
            {
                "numerical_failure": sum(
                    c.classification == "numerical_failure" for c in table
                ),
                "decided_ratio": decided / len(table),
                "contradictions": self.pl.compare_with_theory(table).contradiction_count,
            }
        )
        return [f"p={c.p} sigma={c.sigma}: {why}" for c, why in failed]

    def serial_cell_time(self):
        """Sum of per-cell classify_existence wall times, called one after
        another on this thread: the sweep's work without its pool."""
        pl, grid = self.pl, self.grid
        space = pl.ModelSpace(n=grid.n, K=grid.K)
        total = 0.0
        for p in grid.p_values:
            for s in grid.sigma_values:
                params = pl.EquationParams(n=grid.n, p=float(p), a=1.0, sigma=float(s))
                t0 = time.perf_counter()
                pl.classify_existence(params, space, grid.config, grid.u0_list)
                total += time.perf_counter() - t0
        return total

    def trace_extras(self, untraced_times):
        stats = self.stats
        return {
            "sweep.numerical_failure": statistics.median(
                x["numerical_failure"] for x in stats
            ),
            "sweep.decided_ratio": statistics.median(x["decided_ratio"] for x in stats),
            "sweep.contradictions": statistics.median(x["contradictions"] for x in stats),
            "sweep.pool_overhead_s": statistics.median(untraced_times)
            - self.serial_cell_time(),
        }


class PipelineWorkload:
    """One op is one instance through solve -> CSV -> residuals -> checks."""

    name = "check_pipeline"
    items = 1

    def setup(self, seed, tmp):
        import numpy as np
        import plaplab as pl

        self.np, self.pl = np, pl
        self.instances = W.pipeline_instances(seed)
        self.path = os.path.join(tmp, "solution.csv")
        verify_mod = importlib.import_module("plaplab.verify")
        self.targets = ((verify_mod, "classify_regime", "thresholds"),)
        self.csv_bytes = []
        self.gate(0, self.op(0, NULL))

    def op(self, i, tracer):
        inst = self.instances[self.input_class(i)]
        return W.pipeline_op(self.pl, inst, self.path, tracer)

    def input_class(self, i):
        return i % len(self.instances)

    def reference_task(self):
        """One toy solve on this thread."""
        return _elapsed(toy_solve)

    def gate(self, i, out):
        inst = self.instances[self.input_class(i)]
        self.csv_bytes.append(os.path.getsize(self.path))
        reasons = W.pipeline_failures(self.np, inst, *out)
        return [f"{inst}: " + "; ".join(reasons)] if reasons else []

    def trace_extras(self, untraced_times):
        return {"solver.write_solution_csv.bytes": statistics.median(self.csv_bytes)}


class CliWorkload:
    """One op is one fresh `python -m plaplab.cli` process: per instance a
    solve, then each check on the file it wrote."""

    name = "cli_cold"
    items = 1

    def setup(self, seed, tmp):
        self.tmp = tmp
        self.commands = []
        self.r_end = {}  # filled in from each solve's output
        for k, inst in enumerate(W.cli_instances(seed)):
            path = os.path.join(tmp, f"solution-{k}.csv")
            self.commands.append(("solve", k, W.solve_args(inst, path)))
            self.commands += [("check", k, kind) for kind in W.CLI_CHECKS]
            self.r_end[k] = inst.r_max
        self.targets = None
        self.gate(0, self.op(0, NULL))

    def _argv(self, i):
        kind, k, spec = self.commands[i % len(self.commands)]
        if kind == "solve":
            return kind, k, spec
        path = os.path.join(self.tmp, f"solution-{k}.csv")
        return kind, k, W.check_args(spec, path, self.r_end[k])

    def reference_task(self):
        """One fresh interpreter that imports standard-library modules."""
        cmd = [sys.executable, "-I", "-c", STDLIB_IMPORTS]
        return _elapsed(subprocess.run, cmd, check=True, timeout=60)

    def input_class(self, i):
        # every command costs an interpreter start and the import; its own
        # work is a few ms, so all commands time as one input
        return 0

    def op(self, i, tracer):
        kind, k, argv = self._argv(i)
        if isinstance(tracer, NullTracer):
            cmd = [sys.executable, "-m", "plaplab.cli"] + argv
            return _run(cmd)
        # traced: the same command through a shim that records spans inside
        spans_path = os.path.join(self.tmp, "cli-spans.json")
        cmd = [sys.executable, str(HERE / "tracedcli.py"), spans_path] + argv
        with tracer.span("cli", "cmd") as parent:
            if os.path.exists(spans_path):
                os.remove(spans_path)
            proc = _run(cmd)
            if os.path.exists(spans_path):
                with open(spans_path) as fh:
                    tracer.adopt(json.load(fh), parent)
        return proc

    def gate(self, i, proc):
        kind, k, argv = self._argv(i)
        if proc.returncode != 0:
            tail = " ".join((proc.stderr or proc.stdout).split())[-200:]
            return [f"{' '.join(argv[:2])}: exit {proc.returncode}: {tail}"]
        if kind == "solve":
            self.r_end[k] = W.parse_r_end(proc.stdout)
        return []

    def trace_extras(self, untraced_times):
        by_kind = {"solve": [], "check": []}
        for i, t in enumerate(untraced_times):
            by_kind[self.commands[i % len(self.commands)][0]].append(t)
        return {
            "cli.cmd.solve_p50_ms": 1e3 * layers.quantile(by_kind["solve"], 0.5),
            "cli.cmd.check_p50_ms": 1e3 * layers.quantile(by_kind["check"], 0.5),
        }


def _run(cmd):
    return subprocess.run(cmd, capture_output=True, text=True, timeout=120)


WORKLOADS = {
    "sweep_flat": lambda: SweepWorkload("sweep_flat", 0.0),
    "sweep_curved": lambda: SweepWorkload("sweep_curved", 1.0),
    "check_pipeline": PipelineWorkload,
    "cli_cold": CliWorkload,
}


def timed(workload, i, tracer):
    """Run op i, timing only the library call; the gate runs afterwards.
    An op that raises fails every item it was to produce."""
    with tracer.op(i, workload.name):
        t0 = time.perf_counter()
        try:
            if workload.targets and tracer is not NULL:
                with tracer.patched(workload.targets):
                    out = workload.op(i, tracer)
            else:
                out = workload.op(i, tracer)
        except Exception as exc:  # a wrong output, reported; the loop goes on
            out = exc
        t = time.perf_counter() - t0
    if isinstance(out, Exception):
        reasons = [f"op {i} raised {type(out).__name__}: {out}"]
        failed = workload.items
    else:
        reasons = workload.gate(i, out)  # one reason per failed item
        failed = len(reasons)
    record = {"t": t, "items": workload.items, "failed": failed, "input": workload.input_class(i)}
    return record, reasons


def measure(workload, seconds):
    """Untraced closed loop with the reference task before the first op and
    after each op; an op's 'ref' is the mean of the two reference times
    around it.  Stops before an op expected to overrun."""
    ops, reasons = [], []
    deadline = time.perf_counter() + seconds
    ref = workload.reference_task()
    i = 0
    while True:
        record, why = timed(workload, i, NULL)
        ref_after = workload.reference_task()
        record["ref"] = (ref + ref_after) / 2
        ref = ref_after
        ops.append(record)
        reasons += why
        i += 1
        typical = statistics.median(op["t"] + op["ref"] for op in ops)
        if time.perf_counter() + typical > deadline:
            return ops, reasons


def measure_traced(workload, seconds):
    """Alternate untraced and traced runs of each op; returns the untraced
    and traced records and the tracer holding the traced ops' spans."""
    tracer = Tracer()
    untraced, traced, reasons = [], [], []
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        for tr, sink in ((NULL, untraced), (tracer, traced)):
            record, why = timed(workload, i, tr)
            sink.append(record)
            reasons += why
        i += 1
        typical = statistics.median(a["t"] + b["t"] for a, b in zip(untraced, traced))
        if time.perf_counter() + typical > deadline:
            return untraced, traced, reasons, tracer


def import_times(runs=3):
    """Medians of (numpy, scipy, plaplab self) import times in ms."""
    samples = []
    for _ in range(runs):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import plaplab"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"import plaplab failed: {proc.stderr[-500:]}")
        samples.append(layers.parse_importtime(proc.stderr))
    return [statistics.median(col) for col in zip(*samples)]


def peak_rss_mb(workload):
    who = resource.RUSAGE_CHILDREN if isinstance(workload, CliWorkload) else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--spans-out")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    workload = WORKLOADS[args.workload]()
    workload.setup(args.seed, args.tmp)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    result = {}
    if args.trace:
        untraced, traced, reasons, tracer = measure_traced(workload, args.seconds)
        ops = untraced + traced
        u_times = [op["t"] for op in untraced]
        metrics = dict.fromkeys((name for name, _ in layers.PER_LAYER), 0.0)
        metrics.update(layers.span_metrics(tracer.spans, len(traced)))
        metrics.update(workload.trace_extras(u_times))
        overhead_ms, overhead_share = layers.tracing_overhead(
            u_times, [op["t"] for op in traced]
        )
        metrics["trace.overhead_ms"] = overhead_ms
        metrics["trace.overhead_share"] = overhead_share
        numpy_ms, scipy_ms, self_ms = import_times()
        metrics["cli.import.numpy_ms"] = numpy_ms
        metrics["cli.import.scipy_ms"] = scipy_ms
        metrics["cli.import.plaplab_self_ms"] = self_ms
        result["layers"] = metrics
        if args.spans_out:
            with open(args.spans_out, "w") as fh:
                json.dump([s.to_dict() for s in tracer.spans], fh)
    else:
        workload.reference_task()  # warm-up, after set-up was timed
        ops, reasons = measure(workload, args.seconds)
    result.update(
        ops=ops,
        reasons=reasons[:20],
        peak_rss_mb=peak_rss_mb(workload),
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
