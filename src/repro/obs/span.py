"""Span-based cross-call tracing on the simulated cycle clock.

A :class:`Span` covers one causally-delimited stretch of work — an IPC
transport call, an ``xcall``→``xret`` window, a trampoline handler, one
FS/net/crypto server operation.  Spans nest: each core keeps a LIFO of
open spans (the migrating-thread model makes nesting synchronous per
core), and the engine threads the ``xcall`` span through the linkage
record so the matching ``xret`` — or the kernel's §4.2 repair path —
closes exactly the span its record opened.

Exports Chrome ``trace_event`` JSON ("X" complete events plus "i"
instants for fault injections), loadable directly in Perfetto or
``chrome://tracing``; timestamps are simulated cycles rendered as
microseconds.

The finished-span store is a ring buffer with retain-newest semantics:
when full, the oldest finished span is evicted and counted in
``dropped``.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Dict, List, Optional

DEFAULT_SPAN_CAPACITY = 100_000


class Span:
    """One timed, nestable unit of work."""

    __slots__ = ("span_id", "parent_id", "trace_id", "name", "cat",
                 "core_id", "start", "end", "args", "events")

    def __init__(self, span_id: int, parent_id: Optional[int],
                 trace_id: int, name: str, cat: str, core_id: int,
                 start: int, args: Optional[dict] = None) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.trace_id = trace_id
        self.name = name
        self.cat = cat
        self.core_id = core_id
        self.start = start
        self.end: Optional[int] = None
        self.args = dict(args) if args else {}
        self.events: List[dict] = []    # instant annotations

    @property
    def open(self) -> bool:
        return self.end is None

    @property
    def duration(self) -> int:
        return (self.end - self.start) if self.end is not None else 0

    def annotate(self, name: str, cycle: int,
                 args: Optional[dict] = None) -> None:
        self.events.append({"name": name, "cycle": cycle,
                            "args": dict(args) if args else {}})

    def as_dict(self) -> dict:
        return {
            "span_id": self.span_id, "parent_id": self.parent_id,
            "trace_id": self.trace_id, "name": self.name,
            "cat": self.cat, "core": self.core_id,
            "start": self.start, "end": self.end,
            "args": dict(self.args), "events": list(self.events),
        }


class SpanTracer:
    """Per-core nested span recorder with a bounded finished-span ring."""

    def __init__(self, capacity: int = DEFAULT_SPAN_CAPACITY) -> None:
        if capacity <= 0:
            raise ValueError("span capacity must be positive")
        self.capacity = capacity
        self.finished: deque = deque(maxlen=capacity)
        self.dropped = 0
        #: Spans force-closed because an outer span ended around them
        #: (kernel repair abandoning nested frames).
        self.truncated_total = 0
        #: Spans closed by the kernel's §4.2 repair path rather than a
        #: matching ``xret``.
        self.repaired_total = 0
        #: Optional :class:`repro.obs.profiler.CycleProfiler` bridge —
        #: every span begin/end also pushes/pops an attribution frame,
        #: so span instrumentation shapes the flame tree for free.
        self.profiler = None
        self._open: Dict[int, List[Span]] = {}    # core_id -> stack
        self._cores: Dict[int, object] = {}       # core_id -> last core
        self._next_span_id = 1
        self._next_trace_id = 1
        #: The innermost span still open anywhere (the simulator is
        #: single-threaded, so "most recently begun" is well-defined);
        #: fault annotations land here.
        self.current: Optional[Span] = None

    # -- span lifecycle ------------------------------------------------
    def begin(self, core, name: str, cat: str = "xpc",
              **args) -> Span:
        """Open a span on *core* at its current cycle."""
        stack = self._open.setdefault(core.core_id, [])
        self._cores[core.core_id] = core
        parent = stack[-1] if stack else None
        if parent is not None:
            trace_id = parent.trace_id
            parent_id = parent.span_id
        else:
            trace_id = self._next_trace_id
            self._next_trace_id += 1
            parent_id = None
        span = Span(self._next_span_id, parent_id, trace_id, name, cat,
                    core.core_id, core.cycles, args)
        self._next_span_id += 1
        stack.append(span)
        self.current = span
        if self.profiler is not None:
            self.profiler.push(core, f"{cat}:{name}",
                               span_id=span.span_id)
        return span

    def end(self, core, span: Optional[Span] = None, **args) -> Optional[Span]:
        """Close *span* (default: the innermost open span on *core*).

        Closing a non-top span — the kernel repair path abandoning the
        frames above it — also closes everything nested inside it, each
        marked ``truncated``.
        """
        stack = self._open.get(core.core_id)
        if not stack:
            return None
        if span is None:
            span = stack[-1]
        if span not in stack:
            return None
        while stack:
            top = stack.pop()
            if top is span:
                break
            top.end = core.cycles
            top.args["truncated"] = True
            self.truncated_total += 1
            self._finish(top)
        span.end = core.cycles
        if args:
            span.args.update(args)
        if span.args.get("repaired"):
            self.repaired_total += 1
        self._finish(span)
        if self.profiler is not None:
            self.profiler.pop(core.core_id, span_id=span.span_id)
        self.current = None
        for frames in self._open.values():
            for open_span in frames:
                if (self.current is None
                        or open_span.span_id > self.current.span_id):
                    self.current = open_span
        return span

    def _finish(self, span: Span) -> None:
        if len(self.finished) == self.capacity:
            self.dropped += 1
        self.finished.append(span)

    # -- annotations (fault injections etc.) ---------------------------
    def annotate(self, name: str, cycle: Optional[int] = None,
                 args: Optional[dict] = None) -> None:
        """Attach an instant annotation to the innermost open span,
        stamped with its core's current cycle by default."""
        span = self.current
        if span is None:
            return
        if cycle is None:
            core = self._cores.get(span.core_id)
            cycle = core.cycles if core is not None else span.start
        span.annotate(name, cycle, args)

    # -- introspection -------------------------------------------------
    @property
    def spans(self) -> List[Span]:
        """Finished spans, oldest first."""
        return list(self.finished)

    def open_depth(self, core_id: int) -> int:
        return len(self._open.get(core_id, []))

    def find(self, name: str) -> List[Span]:
        return [s for s in self.finished if s.name == name]

    def __len__(self) -> int:
        return len(self.finished)

    # -- Chrome trace_event export -------------------------------------
    def chrome_events(self, pid: str = "repro") -> List[dict]:
        """``trace_event`` dicts: one "X" per span, one "i" per
        annotation.  ``ts`` is the span's start cycle (cycles rendered
        as microseconds — Perfetto's time axis then reads in cycles)."""
        events: List[dict] = []
        for span in self.finished:
            events.append({
                "name": span.name, "cat": span.cat, "ph": "X",
                "ts": span.start, "dur": span.duration,
                "pid": pid, "tid": span.core_id,
                "args": {"span_id": span.span_id,
                         "parent_id": span.parent_id,
                         "trace_id": span.trace_id, **span.args},
            })
            for note in span.events:
                events.append({
                    "name": note["name"], "cat": "fault", "ph": "i",
                    "ts": note["cycle"], "pid": pid,
                    "tid": span.core_id, "s": "t",
                    "args": dict(note["args"]),
                })
        events.sort(key=lambda e: (e["ts"], e["ph"] != "X"))
        return events

    def chrome_json(self, pid: str = "repro") -> str:
        return json.dumps({"traceEvents": self.chrome_events(pid),
                           "displayTimeUnit": "ns"}, indent=None)
