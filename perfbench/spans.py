"""In-memory spans around the calls the benchmark makes into plaplab.

A span records a name, the layer it belongs to (thresholds, sweep, solver,
verify, cli, or bench for the benchmark's own op span), start and end on the
perf_counter clock, the span that caused it, and the id of the op it serves.
Spans stay in memory until the run ends; nothing is written while an op is
being timed.

Spans are opened only from the benchmark's own files: around calls it makes
directly, and around library functions it swaps into plaplab's module
namespaces for the length of one traced op (see ``Tracer.patched``).
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import threading
import time


class Span:
    __slots__ = ("id", "name", "layer", "parent", "op", "start", "end", "attrs")

    def __init__(self, span_id, name, layer, parent, op):
        self.id = span_id
        self.name = name
        self.layer = layer
        self.parent = parent
        self.op = op
        self.start = self.end = None
        self.attrs = {}

    @property
    def duration(self):
        return self.end - self.start

    def to_dict(self):
        out = {
            "id": self.id,
            "name": self.name,
            "layer": self.layer,
            "parent": self.parent,
            "op": self.op,
            "start": self.start,
            "end": self.end,
        }
        out.update(self.attrs)
        return out


class NullTracer:
    """Stand-in used for untraced ops: calls pass straight through."""

    def call(self, layer, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    @contextlib.contextmanager
    def op(self, op_id, name):
        yield None


class Tracer:
    """Collects spans from any thread.

    Each thread keeps its own stack of open spans.  A span opened on a thread
    with no open span (a sweep's pool worker, for instance) takes the
    innermost span open on the thread that started the op as its parent: the
    call that handed it the work, which waits while it runs.  So every span
    of an op hangs off one root.
    """

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._op_stack = None

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, layer, name):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._op_stack[-1] if self._op_stack else None
        op_id = parent.op if parent is not None else None
        s = Span(next(self._ids), name, layer, parent.id if parent else None, op_id)
        stack.append(s)
        s.start = time.perf_counter()
        try:
            yield s
        except BaseException as exc:
            s.attrs["error"] = type(exc).__name__
            raise
        finally:
            s.end = time.perf_counter()
            stack.pop()
            self.spans.append(s)

    @contextlib.contextmanager
    def op(self, op_id, name):
        """Root span of one op; every span opened inside belongs to op_id."""
        s = Span(next(self._ids), name, "bench", None, op_id)
        self._op_stack = self._stack()
        self._op_stack.append(s)
        s.start = time.perf_counter()
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._op_stack.pop()
            self._op_stack = None
            self.spans.append(s)

    def call(self, layer, name, fn, *args, **kwargs):
        with self.span(layer, name) as s:
            result = fn(*args, **kwargs)
            termination = getattr(result, "termination", None)
            if termination is not None:
                s.attrs["termination"] = termination.kind
            passed = getattr(result, "passed", None)
            if passed is not None:
                s.attrs["passed"] = bool(passed)
            return result

    def wrap(self, layer, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(layer, name, fn, *args, **kwargs)

        return traced

    @contextlib.contextmanager
    def patched(self, targets):
        """Swap traced wrappers into module namespaces, restoring on exit.

        targets: iterable of (module, attribute, layer) triples; the span is
        named after the attribute.
        """
        saved = []
        try:
            for module, attr, layer in targets:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(layer, attr, original))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def adopt(self, span_dicts, parent):
        """Merge spans recorded in a child process under ``parent``.

        Ids are renumbered; the child's roots become children of parent and
        every adopted span joins parent's op.  perf_counter reads the
        system-wide monotonic clock on Linux, so the intervals line up.
        """
        new_id = {d["id"]: next(self._ids) for d in span_dicts}
        for d in span_dicts:
            s = Span(
                new_id[d["id"]],
                d["name"],
                d["layer"],
                new_id.get(d["parent"], parent.id),
                parent.op,
            )
            s.start, s.end = d["start"], d["end"]
            s.attrs = {
                k: v
                for k, v in d.items()
                if k not in ("id", "name", "layer", "parent", "op", "start", "end")
            }
            self.spans.append(s)


def self_times(spans):
    """Map span id -> self time: its duration minus the part of its interval
    covered by the union of its children's intervals.  Children that overlap
    each other (pool threads) are counted once."""
    children = {}
    for s in spans:
        children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for lo, hi in sorted(children.get(s.id, ())):
            lo, hi = max(lo, cursor), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.id] = s.duration - covered
    return out
