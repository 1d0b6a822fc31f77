"""Span bookkeeping: parents, ops, self time, adoption of child spans."""

import threading

import pytest

from spans import NullTracer, Span, Tracer, self_times


def _span(sid, parent, start, end, layer="solver"):
    s = Span(sid, f"s{sid}", layer, parent, 0)
    s.start, s.end = start, end
    return s


def test_self_time_subtracts_children():
    spans = [
        _span(1, None, 0.0, 10.0),
        _span(2, 1, 1.0, 3.0),
        _span(3, 1, 5.0, 6.0),
        _span(4, 2, 1.5, 2.5),
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - 2.0 - 1.0)
    assert own[2] == pytest.approx(2.0 - 1.0)
    assert own[3] == pytest.approx(1.0)
    assert own[4] == pytest.approx(1.0)


def test_self_time_counts_overlapping_children_once():
    # two pool threads whose spans overlap inside one parent
    spans = [
        _span(1, None, 0.0, 10.0),
        _span(2, 1, 1.0, 6.0),
        _span(3, 1, 4.0, 8.0),
        _span(4, 1, 5.0, 7.0),
    ]
    assert self_times(spans)[1] == pytest.approx(10.0 - 7.0)


def test_self_time_clips_children_to_parent():
    spans = [_span(1, None, 2.0, 4.0), _span(2, 1, 1.0, 3.0)]
    assert self_times(spans)[1] == pytest.approx(1.0)


def test_spans_nest_and_share_op():
    tracer = Tracer()
    with tracer.op(7, "op") as root:
        with tracer.span("sweep", "outer") as outer:
            tracer.call("solver", "inner", lambda: None)
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["outer"].parent == root.id
    assert by_name["inner"].parent == outer.id
    assert {s.op for s in tracer.spans} == {7}
    assert all(s.end >= s.start for s in tracer.spans)


def test_pool_thread_span_hangs_off_the_waiting_call():
    tracer = Tracer()

    def fan_out():
        t = threading.Thread(target=tracer.call, args=("sweep", "cell", lambda: None))
        t.start()
        t.join(timeout=10)
        assert not t.is_alive()

    with tracer.op(1, "op"):
        tracer.call("sweep", "sweep", fan_out)
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["cell"].parent == by_name["sweep"].id
    assert by_name["cell"].op == 1


def test_call_records_termination_passed_and_errors():
    class Result:
        passed = False

    tracer = Tracer()
    tracer.call("verify", "check", Result)
    with pytest.raises(ZeroDivisionError):
        tracer.call("verify", "boom", lambda: 1 / 0)
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["check"].attrs == {"passed": False}
    assert by_name["boom"].attrs == {"error": "ZeroDivisionError"}


def test_patched_restores_module_attribute():
    class Module:
        @staticmethod
        def f(x):
            return x + 1

    original = Module.f
    tracer = Tracer()
    with tracer.patched([(Module, "f", "solver")]):
        assert Module.f(1) == 2
    assert Module.f is original
    assert [s.name for s in tracer.spans] == ["f"]


def test_adopt_reparents_child_process_spans():
    tracer = Tracer()
    with tracer.op(3, "op"):
        with tracer.span("cli", "cmd") as parent:
            pass
    child = [
        {"id": 1, "name": "import", "layer": "cli", "parent": None, "op": None,
         "start": 0.1, "end": 0.2},
        {"id": 2, "name": "solve", "layer": "cli", "parent": None, "op": None,
         "start": 0.2, "end": 0.5},
        {"id": 3, "name": "solve_radial", "layer": "solver", "parent": 2, "op": None,
         "start": 0.3, "end": 0.4, "termination": "hit_zero"},
    ]
    tracer.adopt(child, parent)
    adopted = {s.name: s for s in tracer.spans[-3:]}
    assert adopted["import"].parent == parent.id
    assert adopted["solve_radial"].parent == adopted["solve"].id
    assert adopted["solve_radial"].attrs == {"termination": "hit_zero"}
    assert {s.op for s in adopted.values()} == {3}
    assert len({s.id for s in tracer.spans}) == len(tracer.spans)


def test_null_tracer_passes_through():
    null = NullTracer()
    with null.op(0, "op"):
        assert null.call("solver", "f", lambda x: 2 * x, 21) == 42
