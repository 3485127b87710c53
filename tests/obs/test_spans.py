"""The span tracer: nesting, repair truncation, Chrome export."""

import json

import pytest

from repro.obs.span import Span, SpanTracer


class FakeCore:
    def __init__(self, core_id=0, cycles=0):
        self.core_id = core_id
        self.cycles = cycles


def test_nesting_assigns_parent_and_trace_ids():
    tracer = SpanTracer()
    core = FakeCore()
    outer = tracer.begin(core, "call:fs", cat="transport")
    core.cycles = 10
    inner = tracer.begin(core, "xcall#1", cat="engine")
    assert inner.parent_id == outer.span_id
    assert inner.trace_id == outer.trace_id
    core.cycles = 30
    tracer.end(core, inner)
    core.cycles = 40
    tracer.end(core, outer)
    assert [s.name for s in tracer.spans] == ["xcall#1", "call:fs"]
    assert inner.duration == 20 and outer.duration == 40


def test_sibling_roots_get_fresh_trace_ids():
    tracer = SpanTracer()
    core = FakeCore()
    a = tracer.begin(core, "a")
    tracer.end(core, a)
    b = tracer.begin(core, "b")
    tracer.end(core, b)
    assert a.trace_id != b.trace_id


def test_closing_outer_span_truncates_inner_frames():
    """The kernel repair path closes the record's span directly; the
    abandoned frames above it are closed too, marked truncated."""
    tracer = SpanTracer()
    core = FakeCore()
    outer = tracer.begin(core, "xcall#1")
    tracer.begin(core, "handler")
    inner = tracer.begin(core, "fs:read")
    core.cycles = 99
    tracer.end(core, outer, repaired=True)
    assert tracer.open_depth(core.core_id) == 0
    assert inner.args.get("truncated") is True
    assert outer.args.get("repaired") is True
    assert all(s.end == 99 for s in tracer.spans)


def test_end_unknown_span_is_a_noop():
    tracer = SpanTracer()
    core = FakeCore()
    assert tracer.end(core) is None
    tracer.begin(core, "a")
    ghost = Span(999, None, 999, "ghost", "x", 0, 0)
    assert tracer.end(core, ghost) is None
    assert tracer.open_depth(core.core_id) == 1


def test_annotate_lands_on_innermost_open_span():
    tracer = SpanTracer()
    core = FakeCore()
    tracer.begin(core, "outer")
    inner = tracer.begin(core, "inner")
    core.cycles = 55
    tracer.annotate("fault:xpc.callee_crash", args={"nth": 1})
    assert inner.events == [{"name": "fault:xpc.callee_crash",
                             "cycle": 55, "args": {"nth": 1}}]


def test_annotate_without_open_span_is_dropped():
    tracer = SpanTracer()
    tracer.annotate("fault:kernel.preempt")
    assert tracer.spans == []


def test_ring_overflow_keeps_newest_and_counts_dropped():
    tracer = SpanTracer(capacity=2)
    core = FakeCore()
    for i in range(5):
        span = tracer.begin(core, f"s{i}")
        tracer.end(core, span)
    assert [s.name for s in tracer.spans] == ["s3", "s4"]
    assert tracer.dropped == 3


def test_bad_capacity():
    with pytest.raises(ValueError):
        SpanTracer(capacity=0)


def test_chrome_events_shape():
    tracer = SpanTracer()
    core = FakeCore(core_id=1, cycles=5)
    outer = tracer.begin(core, "call:fs", cat="transport", sid=3)
    core.cycles = 8
    tracer.annotate("fault:hw.tlb.stale_entry")
    core.cycles = 20
    tracer.end(core, outer)
    events = tracer.chrome_events(pid="fig7")
    complete = [e for e in events if e["ph"] == "X"]
    instants = [e for e in events if e["ph"] == "i"]
    assert len(complete) == 1 and len(instants) == 1
    (x,) = complete
    assert (x["ts"], x["dur"], x["tid"], x["pid"]) == (5, 15, 1, "fig7")
    assert x["args"]["sid"] == 3
    assert instants[0]["ts"] == 8
    # Sorted by timestamp.
    assert [e["ts"] for e in events] == sorted(e["ts"] for e in events)


def test_chrome_json_is_loadable():
    tracer = SpanTracer()
    core = FakeCore()
    span = tracer.begin(core, "a")
    tracer.end(core, span)
    doc = json.loads(tracer.chrome_json())
    assert set(doc) == {"traceEvents", "displayTimeUnit"}
    assert doc["traceEvents"][0]["name"] == "a"


def test_find_and_len():
    tracer = SpanTracer()
    core = FakeCore()
    for name in ("a", "b", "a"):
        tracer.end(core, tracer.begin(core, name))
    assert len(tracer) == 3
    assert len(tracer.find("a")) == 2
