"""Gates, failed_share, the overhead computation, and the metric lists."""

import json
from collections import namedtuple
from pathlib import Path

import pytest

import layers
import run
import workloads as W
from spans import Span

Cell = namedtuple("Cell", "p sigma classification r_star")
ROOT = Path(__file__).resolve().parents[2]


def _reference():
    return {
        (1.5, 0.25): ("zero_hit", 3.0),
        (1.5, 0.5): ("persists", None),
        (1.75, 0.25): ("zero_hit", 4.0),
    }


def test_comparator_accepts_identical_table():
    cells = [Cell(p, s, c, r) for (p, s), (c, r) in _reference().items()]
    assert W.sweep_failures(cells, _reference()) == []


def test_comparator_flags_flipped_cell_and_r_star_drift():
    # negative control: one classification flipped, one r_star off by 1e-7
    cells = [
        Cell(1.5, 0.25, "zero_hit", 3.0 * (1 + 1e-7)),
        Cell(1.5, 0.5, "zero_hit", 2.0),
        Cell(1.75, 0.25, "zero_hit", 4.0 * (1 + 1e-9)),
    ]
    failed = W.sweep_failures(cells, _reference())
    assert [(c.p, c.sigma) for c, _ in failed] == [(1.5, 0.25), (1.5, 0.5)]


def test_comparator_without_reference_gates_only_numerical_failure():
    cells = [
        Cell(1.5, 0.25, "numerical_failure", None),
        Cell(1.5, 0.5, "persists", None),
    ]
    failed = W.sweep_failures(cells, None)
    assert [(c.sigma, why) for c, why in failed] == [(0.25, "numerical_failure")]


def test_reference_round_trip(tmp_path):
    cells = [Cell(1.5, 0.1 + 0.2, "zero_hit", 1 / 3), Cell(2.0, 0.5, "persists", None)]
    path = tmp_path / "ref.csv"
    with open(path, "w") as fh:
        W.write_reference(cells, fh)
    assert W.sweep_failures(cells, W.read_reference(path)) == []


def test_failed_share_counts_items_not_ops():
    ops = [
        {"t": 1.0, "items": 264, "failed": 0},
        {"t": 1.0, "items": 264, "failed": 2},
    ]
    assert layers.failed_share(ops) == pytest.approx(2 / 528)
    assert layers.failed_share([]) == 0.0


def test_tracing_overhead_from_paired_ops():
    ms, share = layers.tracing_overhead([0.10, 0.20], [0.12, 0.21])
    assert ms == pytest.approx(15.0)
    assert share == pytest.approx(0.03 / 0.30)
    with pytest.raises(ValueError):
        layers.tracing_overhead([0.1], [])


def test_end_to_end_metrics():
    ops = [
        {"t": t, "items": 2, "failed": 0, "input": 0, "ref": ref}
        for t, ref in ((0.1, 0.05), (0.2, 0.05), (0.3, 0.1), (0.4, 0.1))
    ]
    m = layers.end_to_end(ops, [1.0, 3.0, 2.0], 80.0)
    assert m["setup_s"] == 2.0
    assert m["op_time_rel"] == pytest.approx(3.5)  # median of 2, 4, 3, 4
    assert m["items_per_s"] == pytest.approx(8 / 1.0)
    assert m["op_p50_ms"] == pytest.approx(250.0)
    assert m["op_p90_ms"] == pytest.approx(370.0)


def test_op_time_rel_is_taken_per_input_then_averaged():
    # two inputs of different cost: a pooled median would sit on one of them
    ops = [{"t": t, "items": 1, "failed": 0, "input": i % 2, "ref": 0.01}
           for i, t in enumerate([0.01, 0.10, 0.01, 0.10, 0.01, 0.10])]
    m = layers.end_to_end(ops, [1.0], 80.0)
    assert m["op_time_rel"] == pytest.approx((1.0 + 10.0) / 2)


def test_op_time_rel_cancels_a_uniform_slowdown():
    # the host running everything 1.5x slower moves raw times, not the ratio
    ops = [{"t": 0.2, "items": 1, "failed": 0, "input": 0, "ref": 0.05}]
    slow = [dict(op, t=op["t"] * 1.5, ref=op["ref"] * 1.5) for op in ops]
    base, slowed = layers.end_to_end(ops, [1.0], 80.0), layers.end_to_end(slow, [1.0], 80.0)
    assert slowed["op_p50_ms"] == pytest.approx(1.5 * base["op_p50_ms"])
    assert slowed["op_time_rel"] == pytest.approx(base["op_time_rel"])


def test_span_metrics_per_op():
    def span(sid, layer, name, parent, start, end, **attrs):
        s = Span(sid, name, layer, parent, 0)
        s.start, s.end, s.attrs = start, end, attrs
        return s

    spans = [
        span(1, "bench", "op", None, 0.0, 1.0),
        span(2, "solver", "solve_radial", 1, 0.0, 0.4, termination="hit_zero"),
        span(3, "verify", "check_harnack", 1, 0.4, 0.5, passed=True),
        span(4, "verify", "check_caccioppoli", 1, 0.5, 0.6, passed=False),
        span(5, "bench", "op", None, 1.0, 2.0),
        span(6, "solver", "solve_radial", 5, 1.0, 1.2, termination="reached_rmax"),
    ]
    m = layers.span_metrics(spans, n_ops=2)
    assert m["solver.solve_radial.calls"] == 1.0
    assert m["solver.solve_radial.busy_ms"] == pytest.approx(300.0)
    assert m["solver.termination.hit_zero"] == 0.5
    assert m["verify.check_harnack.passed"] == 0.5
    assert m["verify.check_caccioppoli.passed"] == 0.0
    assert m["layer.solver.self_ms"] == pytest.approx(300.0)


IMPORTTIME = """\
import time: self [us] | cumulative | imported package
import time:       100 |        100 |   _io
import time:        50 |         50 |       numpy._core
import time:       200 |        250 |     numpy
import time:        30 |         30 |       scipy
import time:        20 |         20 |         numpy.linalg
import time:       400 |        450 |       scipy.integrate
import time:        10 |        460 |     plaplab.solver
import time:        40 |        750 |   plaplab
"""


def test_parse_importtime():
    numpy_ms, scipy_ms, self_ms = layers.parse_importtime(IMPORTTIME)
    assert numpy_ms == pytest.approx(0.25)
    assert scipy_ms == pytest.approx(0.48)
    assert self_ms == pytest.approx(0.75 - 0.25 - 0.48)


def test_benchmark_json_lists_the_metrics_the_benchmark_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(layers.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
