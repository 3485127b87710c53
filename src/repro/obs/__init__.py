"""repro.obs — the observability subsystem for the whole XPC stack.

One :class:`ObsSession` bundles the three measurement surfaces:

* :class:`~repro.obs.pmu.PMU` — per-core/per-engine hardware counter
  banks with snapshot/delta/reset semantics (cycles-by-phase matching
  the paper's Figure 5 breakdown);
* :class:`~repro.obs.registry.MetricsRegistry` — counters, gauges, and
  histograms keyed on the simulated cycle clock, fed by the kernel,
  the XPC runtime, the transports, and the servers;
* :class:`~repro.obs.span.SpanTracer` — causally-nested spans along the
  xcall chain, exportable as Chrome ``trace_event`` JSON (Perfetto).

Everything reaches a session as a :mod:`repro.probe` subscriber:
machine events, application metrics, spans and profiler frames alike.
An instrumented layer names a site and never sees the session (the
disarmed cost is one global truth test)::

    import repro.probe as probe
    ...
    if probe.METRIC:
        probe.metric("counter", "kernel.repairs", 1, core.cycles)

and a test / benchmark driver arms a session for a scope:

    with obs.active(obs.ObsSession()) as session:
        run_workload()
    artifact = session.report("my-run")       # JSON-serializable
    open("run.trace.json", "w").write(session.spans.chrome_json())

Observation is free: nothing here calls ``tick`` or mutates simulator
state, so obs-on and obs-off runs produce byte-identical cycle counts
(asserted in CI).
"""

from __future__ import annotations

from typing import Optional

import repro.probe as probe
from repro.obs.cores import CoreNames
from repro.obs.pmu import PHASE_COUNTERS, PMU, PhaseWatch, PMUSnapshot
from repro.obs.profiler import (CycleProfiler, ProfileNode,
                                diff_collapsed)
from repro.obs.registry import (Counter, Gauge, Histogram,
                                MetricsRegistry)
from repro.obs.span import Span, SpanTracer

__all__ = [
    "Counter", "CycleProfiler", "Gauge", "Histogram", "MetricsRegistry",
    "ObsSession", "PMU", "PMUSnapshot", "PhaseWatch", "ProfileNode",
    "Span", "SpanTracer", "active", "diff_collapsed",
]


class ObsSession:
    """One run's worth of observability state."""

    def __init__(self, span_capacity: int = 100_000,
                 profile: bool = False) -> None:
        # One naming rule for the three per-core observers; the PMU
        # is told of every machine the session sees.
        names = CoreNames()
        self.registry = MetricsRegistry()
        self.pmu = PMU(names)
        self.spans = SpanTracer(capacity=span_capacity, names=names)
        #: Cycle-attribution profiler, or None (the default: profiling
        #: off leaves the probe's tick and frame sites unwatched).
        self.profiler: Optional[CycleProfiler] = (
            CycleProfiler(names) if profile else None)
        self.spans.profiler = self.profiler

    # -- probe subscription (repro.probe sites) ------------------------
    def probe_handlers(self) -> dict:
        """``{site: handler}`` for :func:`repro.probe.subscribe`: tick
        and frame only when profiling, so ``Core.tick`` and the frame
        sites stay free otherwise."""
        handlers = {
            "machine": self.pmu.attach_machine,
            "kernel": self.pmu.attach_kernel, "phase": self._on_phase,
            "trap": self._on_trap, "as_switch": self._on_as_switch,
            "xcall": self._on_xcall, "xret": self._on_xret,
            "repair": self._on_repair, "metric": self._on_metric,
            "pmu": self.pmu.add, "span": self.spans.begin,
            "span_end": self.spans.end, "fault": self.on_fault,
        }
        if self.profiler is not None:
            handlers["tick"] = self.profiler.on_tick
            handlers["frame"] = self.profiler.open_frame
            handlers["frame_end"] = self.profiler.close_frame
        return handlers

    def attach(self, machine, kernel=None) -> "ObsSession":
        """Register a machine (and kernel) built before this session
        was armed."""
        self.pmu.attach_machine(machine)
        if kernel is not None:
            self.pmu.attach_kernel(kernel)
        return self

    def _on_phase(self, core, parts) -> None:
        """One Fig. 5 split feeds both the PMU's per-phase event
        counters and the profiler's leaf frames for the next tick."""
        for label, cycles in parts:
            counter = PHASE_COUNTERS.get(label)
            if counter is not None:
                self.pmu.add(core, counter, cycles)
        if self.profiler is not None:
            self.profiler.phase_split(core, parts)

    def _on_trap(self, core, cause) -> None:
        self.pmu.add(core, f"traps.{cause.value}")

    def _on_as_switch(self, core, aspace, charge: bool) -> None:
        if charge:
            cost = "asid_switch" if core.tlb.tagged else "tlb_flush"
            self.pmu.add(core, f"cycles.{cost}", getattr(core.params, cost))

    def _on_xcall(self, core, record) -> None:
        # The span covers the callee's execution window; the record
        # carries it so the matching xret — or the kernel's §4.2
        # repair path — closes exactly this span.
        seg = record.passed_seg
        record.obs_span = self.spans.begin(
            core, f"xcall#{record.callee_entry_id}", cat="engine",
            entry=record.callee_entry_id,
            seg_bytes=seg.length if seg.valid else 0)

    def _on_xret(self, core, record, **args) -> None:
        if record.obs_span is not None:
            self.spans.end(core, record.obs_span, **args)
            record.obs_span = None

    def _on_repair(self, core, record, restored: bool) -> None:
        # The abandoned frame never xrets, so the repair path is the
        # only closer of the span its xcall opened.
        self._on_xret(core, record, repaired=True, restored=restored)

    def _on_metric(self, kind: str, name: str, value, cycle) -> None:
        registry = self.registry
        if kind == "counter":
            registry.counter(name).inc(value, cycle=cycle)
        elif kind == "gauge":
            registry.gauge(name).set(value, cycle=cycle)
        else:
            registry.histogram(name).observe(value, cycle=cycle)

    def on_fault(self, point: str, action: dict) -> None:
        """An armed fault fired: count it and pin it to the timeline."""
        self.registry.counter(f"faults.injected.{point}").inc()
        self.spans.annotate(f"fault:{point}", args=action)

    # -- the per-run artifact ------------------------------------------
    def report(self, title: str = "run") -> dict:
        """JSON-serializable artifact: metrics + PMU + span summary +
        the full Chrome trace (what ``python -m repro.obs`` renders)."""
        from repro.obs.report import aggregate_spans
        snapshot = self.pmu.snapshot()
        artifact = {
            "title": title,
            "metrics": self.registry.as_dict(),
            "pmu": snapshot.as_dict(),
            "span_summary": aggregate_spans(self.spans.spans),
            "spans": {"finished": len(self.spans),
                      "dropped": self.spans.dropped,
                      "truncated": self.spans.truncated_total,
                      "repaired": self.spans.repaired_total},
            "trace_events": self.spans.chrome_events(pid=title),
        }
        if self.profiler is not None:
            artifact["profile"] = self.profiler.as_dict()
        return artifact


def active(session):
    """Subscribe *session* (an :class:`ObsSession` or a
    :class:`~repro.obs.pmu.PhaseWatch`) to the probe for the duration
    of the block, restoring the outer session after it, so nested
    scopes compose."""
    return probe.subscribed("obs", session.probe_handlers(), session)
