"""Per-layer metrics of the traced run, and the arithmetic shared with
the end-to-end report.

Counts and busy times are per op: per sweep(grid) call, per pipeline
instance, per CLI command.  Per-call percentiles are over every call of the
run.  A layer a workload never enters reports 0.
"""

from __future__ import annotations

import math
import statistics

from spans import self_times

LAYERS = ("thresholds", "sweep", "solver", "verify", "cli")
CHECKERS = (
    "check_gradient_estimate",
    "check_harnack",
    "check_bochner_lemma",
    "check_bochner_thm2",
    "check_caccioppoli",
    "measure_sobolev_ratio",
)
TERMINATIONS = ("reached_rmax", "hit_zero", "blow_up", "step_failure")


def _per_layer_names():
    names = [
        ("thresholds.classify_regime.calls", "count"),
        ("thresholds.classify_regime.busy_ms", "ms"),
        ("sweep.classify_existence.calls", "count"),
        ("sweep.classify_existence.busy_s", "s"),
        ("sweep.classify_existence.p50_ms", "ms"),
        ("sweep.classify_existence.p90_ms", "ms"),
        ("sweep.classify_existence.max_ms", "ms"),
        ("sweep.numerical_failure", "count"),
        ("sweep.decided_ratio", "ratio"),
        ("sweep.pool_overhead_s", "s"),
        ("sweep.contradictions", "count"),
        ("solver.solve_radial.calls", "count"),
        ("solver.solve_radial.busy_ms", "ms"),
        ("solver.solve_radial.p50_ms", "ms"),
        ("solver.solve_radial.p90_ms", "ms"),
    ]
    names += [(f"solver.termination.{kind}", "count") for kind in TERMINATIONS]
    names += [
        ("solver.write_solution_csv.busy_ms", "ms"),
        ("solver.write_solution_csv.bytes", "B"),
        ("solver.read_solution_csv.busy_ms", "ms"),
        ("solver.pde_residual.busy_ms", "ms"),
        ("solver.flux_residual.busy_ms", "ms"),
        ("solver.to_log_solution.busy_ms", "ms"),
    ]
    for checker in CHECKERS:
        names += [
            (f"verify.{checker}.calls", "count"),
            (f"verify.{checker}.busy_ms", "ms"),
            (f"verify.{checker}.passed", "count"),
        ]
    names += [
        ("cli.import.numpy_ms", "ms"),
        ("cli.import.scipy_ms", "ms"),
        ("cli.import.plaplab_self_ms", "ms"),
        ("cli.cmd.solve_p50_ms", "ms"),
        ("cli.cmd.check_p50_ms", "ms"),
    ]
    names += [(f"layer.{layer}.self_ms", "ms") for layer in LAYERS]
    names += [("trace.overhead_ms", "ms"), ("trace.overhead_share", "ratio")]
    return tuple(names)


PER_LAYER = _per_layer_names()

# Gated end-to-end metrics, the ones BENCHMARK.json lists.  Op time is gated
# as op_time_rel: each op's wall time divided by the wall time of a fixed
# reference task that the worker runs right before and right after it.  On
# a shared machine other tenants slow whole stretches of a run, and the
# host's speed drifts by a third or more within minutes; that moves every
# raw op-time statistic from run to run far more than a program change of
# interest does.  The reference task has the op's shape but none of the
# program's code (scipy solves on the sweep's pool width, one scipy solve,
# a fresh interpreter importing standard-library modules), so the drift
# slows both alike and cancels in the ratio, while a change to plaplab moves
# only the op.  The median ratio is taken per input and then averaged over
# inputs, because inputs differ in cost.
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_time_rel", "ratio"),
)
# Printed with every untraced run, but not gated.
INFORMATIONAL = (
    ("items_per_s", "item/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
)


def quantile(values, q):
    """Linear-interpolation quantile (numpy's default); 0 for no values."""
    if not values:
        return 0.0
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def failed_share(ops):
    """Failed items over attempted items; ops are dicts with 'items' and
    'failed'."""
    attempted = sum(op["items"] for op in ops)
    failed = sum(op["failed"] for op in ops)
    return failed / attempted if attempted else 0.0


def end_to_end(ops, setup_samples, peak_rss_mb):
    """The gated and the informational end-to-end metrics of one untraced
    run.

    ops: dicts with the wall time 't' in seconds, the 'items' it completed
    (cells of a sweep, one instance, one command), the index of its 'input'
    and the reference task's wall time 'ref' around it.
    """
    times = [op["t"] for op in ops]
    by_input = {}
    for op in ops:
        by_input.setdefault(op["input"], []).append(op["t"] / op["ref"])
    return {
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": peak_rss_mb,
        "op_time_rel": statistics.fmean(statistics.median(r) for r in by_input.values()),
        "items_per_s": sum(op["items"] for op in ops) / sum(times),
        "op_p50_ms": 1e3 * quantile(times, 0.5),
        "op_p90_ms": 1e3 * quantile(times, 0.9),
    }


def tracing_overhead(untraced, traced):
    """(ms per op, share of the untraced time) that tracing adds, from the
    wall times of paired ops: untraced[i] and traced[i] ran the same input."""
    if len(untraced) != len(traced) or not untraced:
        raise ValueError("need equally many untraced and traced op times")
    extra = sum(traced) - sum(untraced)
    return 1e3 * extra / len(untraced), extra / sum(untraced)


def span_metrics(spans, n_ops):
    """Per-layer metrics computed from the spans of n_ops traced ops."""
    durations = {}
    for s in spans:
        durations.setdefault((s.layer, s.name), []).append(s)

    def calls(layer, name):
        return len(durations.get((layer, name), ())) / n_ops

    def busy(layer, name):
        return sum(s.duration for s in durations.get((layer, name), ())) / n_ops

    def pct(layer, name, q):
        return quantile([s.duration for s in durations.get((layer, name), ())], q)

    out = {
        "thresholds.classify_regime.calls": calls("thresholds", "classify_regime"),
        "thresholds.classify_regime.busy_ms": 1e3 * busy("thresholds", "classify_regime"),
        "sweep.classify_existence.calls": calls("sweep", "classify_existence"),
        "sweep.classify_existence.busy_s": busy("sweep", "classify_existence"),
        "sweep.classify_existence.p50_ms": 1e3 * pct("sweep", "classify_existence", 0.5),
        "sweep.classify_existence.p90_ms": 1e3 * pct("sweep", "classify_existence", 0.9),
        "sweep.classify_existence.max_ms": 1e3 * pct("sweep", "classify_existence", 1.0),
        "solver.solve_radial.calls": calls("solver", "solve_radial"),
        "solver.solve_radial.busy_ms": 1e3 * busy("solver", "solve_radial"),
        "solver.solve_radial.p50_ms": 1e3 * pct("solver", "solve_radial", 0.5),
        "solver.solve_radial.p90_ms": 1e3 * pct("solver", "solve_radial", 0.9),
    }
    solves = durations.get(("solver", "solve_radial"), ())
    for kind in TERMINATIONS:
        hits = sum(1 for s in solves if s.attrs.get("termination") == kind)
        out[f"solver.termination.{kind}"] = hits / n_ops
    for name in (
        "write_solution_csv",
        "read_solution_csv",
        "pde_residual",
        "flux_residual",
        "to_log_solution",
    ):
        out[f"solver.{name}.busy_ms"] = 1e3 * busy("solver", name)
    for checker in CHECKERS:
        reports = durations.get(("verify", checker), ())
        passed = sum(
            1 for s in reports if "error" not in s.attrs and s.attrs.get("passed", True)
        )
        out[f"verify.{checker}.calls"] = calls("verify", checker)
        out[f"verify.{checker}.busy_ms"] = 1e3 * busy("verify", checker)
        out[f"verify.{checker}.passed"] = passed / n_ops
    own = self_times(spans)
    for layer in LAYERS:
        total = sum(own[s.id] for s in spans if s.layer == layer)
        out[f"layer.{layer}.self_ms"] = 1e3 * total / n_ops
    return out


def parse_importtime(stderr):
    """(numpy_ms, scipy_ms, plaplab_self_ms) from the output of
    ``python -X importtime -c "import plaplab"``.

    numpy and scipy are the cumulative times of their outermost modules under
    plaplab; plaplab_self is plaplab's cumulative time minus both.
    """
    pending = []  # (depth, name, cumulative_us, children)
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, field = line[len("import time:"):].split("|", 2)
        name = field.strip()
        depth = (len(field) - len(field.lstrip()) - 1) // 2
        children = []
        while pending and pending[-1][0] > depth:
            children.append(pending.pop())
        pending.append((depth, name, int(cumulative), children))
    root = next((node for node in pending if node[1] == "plaplab"), None)
    if root is None:
        raise ValueError("plaplab not found in -X importtime output")
    totals = {"numpy": 0, "scipy": 0}

    def walk(node):
        top = node[1].split(".", 1)[0]
        if top in totals:
            totals[top] += node[2]
            return
        for child in node[3]:
            walk(child)

    for child in root[3]:
        walk(child)
    return (
        totals["numpy"] / 1e3,
        totals["scipy"] / 1e3,
        (root[2] - totals["numpy"] - totals["scipy"]) / 1e3,
    )
