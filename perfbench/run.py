#!/usr/bin/env python3
"""plaplab benchmark: time four workloads from outside the package, check
every output, print every metric by name with its unit.

    python3 perfbench/run.py                       # every workload, untraced
    python3 perfbench/run.py --workload sweep_flat --seed 3 --seconds 20
    python3 perfbench/run.py --workload cli_cold --trace 1

Run from the root of a checkout; the package is taken from ./src, not from
an installation.  For one workload the last line of stdout is
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
--trace 0, the per-layer metrics of a traced run with --trace 1.  The exit
code is 0 when every output passed its gate, 1 when one failed, and 2 when
the benchmark could not run (no result line then).

Set-up is timed from outside: run.py starts a fresh worker interpreter
SETUP_SAMPLES times and waits for its "ready" line (import, input build,
one warm-up op); the last worker goes on to the timed loop.  setup_s is the
median of those samples.  Temporary files live in .bench_out/ under the
checkout and are deleted at exit; a traced run leaves its spans there.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("sweep_flat", "sweep_curved", "check_pipeline", "cli_cold")
SETUP_SAMPLES = 5
RUN_BUDGET_S = 170  # the whole run, set-up workers included


class BenchError(RuntimeError):
    pass


def git_sha():
    """HEAD's sha read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(seed, inherited_lab_threads):
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "LAB_THREADS": None,  # removed from the workers' environment
        "LAB_THREADS_inherited": inherited_lab_threads,
        "seed": seed,
    }


def worker_env():
    env = dict(os.environ)
    env.pop("LAB_THREADS", None)  # measure sweep's default worker count
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def start_worker(argv, env, deadline):
    """Start a worker and return (process, seconds until its ready line)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py")] + argv,
        stdout=subprocess.PIPE,
        text=True,
        env=env,
        cwd=ROOT,
    )
    watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    watchdog.start()  # a worker stuck in set-up must not outlive the run
    try:
        line = proc.stdout.readline()
    finally:
        watchdog.cancel()
    setup = time.perf_counter() - t0
    if line.strip() != "ready":
        finish(proc, deadline)
        raise BenchError(f"worker did not get ready (exit {proc.returncode})")
    return proc, setup


def finish(proc, deadline):
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker ran past the run's time budget")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    return out


def run_workload(workload, seed, seconds, trace):
    """Run one workload; returns (result line dict, human-readable lines)."""
    deadline = time.monotonic() + RUN_BUDGET_S
    out_dir = ROOT / ".bench_out"
    tmp = out_dir / f"tmp-{os.getpid()}-{workload}"
    tmp.mkdir(parents=True, exist_ok=True)
    env = worker_env()
    argv = ["--workload", workload, "--seed", str(seed), "--tmp", str(tmp)]
    try:
        setups = []
        for _ in range(SETUP_SAMPLES - 1):
            proc, setup = start_worker(argv + ["--setup-only"], env, deadline)
            finish(proc, deadline)
            setups.append(setup)
        timed_argv = argv + ["--seconds", str(seconds), "--trace", str(trace)]
        if trace:
            spans_out = out_dir / f"spans-{workload}-seed{seed}.json"
            timed_argv += ["--spans-out", str(spans_out)]
        proc, setup = start_worker(timed_argv, env, deadline)
        setups.append(setup)
        raw = json.loads(finish(proc, deadline).strip().splitlines()[-1])
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    ops = raw["ops"]
    attempted = sum(op["items"] for op in ops)
    failed = sum(op["failed"] for op in ops)
    if trace:
        values, gated, shown = raw["layers"], layers.PER_LAYER, ()
    else:
        values = layers.end_to_end(ops, setups, raw["peak_rss_mb"])
        gated, shown = layers.END_TO_END, layers.INFORMATIONAL
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in gated}
    lines = [f"workload {workload}, seed {seed}, {len(ops)} ops, {attempted} items"]
    lines += [f"  {name} = {values[name]:.6g} {unit}" for name, unit in gated]
    lines += [f"  {name} = {values[name]:.6g} {unit} (not gated)" for name, unit in shown]
    lines.append(f"  failed_share = {layers.failed_share(ops):.6g} ratio (not gated)")
    lines += [f"  FAILED: {why}" for why in raw["reasons"]]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "plaplab" / "__init__.py").is_file():
        print(f"error: no plaplab package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    print("provenance " + json.dumps(provenance(args.seed, os.environ.get("LAB_THREADS"))))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name], lines = run_workload(name, args.seed, args.seconds, args.trace)
            print("\n".join(lines), flush=True)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{w}:{m}": v for w, r in results.items() for m, v in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
