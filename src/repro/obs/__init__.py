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

Machine events reach a session as a :mod:`repro.probe` subscriber
(installing it subscribes it).  Application metrics go straight to the
installed session's registry (null-sink default: the disarmed cost is
a single global attribute check):

    import repro.obs as obs
    ...
    if obs.ACTIVE is not None:
        obs.ACTIVE.registry.counter("kernel.repairs").inc(cycle=now)

and in a test / benchmark driver:

    with obs.active(obs.ObsSession()) as session:
        run_workload()
    artifact = session.report("my-run")       # JSON-serializable
    open("run.trace.json", "w").write(session.spans.chrome_json())

Observation is free: nothing here calls ``tick`` or mutates simulator
state, so obs-on and obs-off runs produce byte-identical cycle counts
(asserted in CI).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Optional

import repro.probe as probe
from repro.obs.pmu import PHASE_COUNTERS, PMU, PMUSnapshot
from repro.obs.profiler import (CycleProfiler, ProfileNode,
                                diff_collapsed)
from repro.obs.registry import (Counter, Gauge, Histogram,
                                MetricsRegistry)
from repro.obs.span import Span, SpanTracer

__all__ = [
    "ACTIVE", "Counter", "CycleProfiler", "Gauge", "Histogram",
    "MetricsRegistry", "ObsSession", "PMU", "PMUSnapshot",
    "ProfileNode", "Span", "SpanTracer", "active", "diff_collapsed",
    "install", "prof_frame",
]

#: The installed session, or None.  Instrumented hot paths check this
#: before doing anything, so the disarmed cost is one global load.
ACTIVE: Optional["ObsSession"] = None


class ObsSession:
    """One run's worth of observability state."""

    def __init__(self, span_capacity: int = 100_000,
                 profile: bool = False) -> None:
        self.registry = MetricsRegistry()
        self.pmu = PMU()
        self.spans = SpanTracer(capacity=span_capacity)
        #: Cycle-attribution profiler, or None (the default: profiling
        #: off adds nothing beyond the existing ACTIVE check).
        self.profiler: Optional[CycleProfiler] = (
            CycleProfiler() if profile else None)
        self.spans.profiler = self.profiler

    # -- probe subscription (repro.probe sites) ------------------------
    def probe_handlers(self) -> dict:
        """``{site: handler}`` for :func:`repro.probe.subscribe`: tick
        only when profiling, so ``Core.tick`` stays free otherwise."""
        handlers = {
            "machine": self.pmu.attach_machine,
            "kernel": self.pmu.attach_kernel, "phase": self._on_phase,
            "trap": self._on_trap, "as_switch": self._on_as_switch,
            "xcall": self._on_xcall, "xret": self._on_xret,
            "repair": self._on_repair, "fault": self.on_fault,
        }
        if self.profiler is not None:
            handlers["tick"] = self.profiler.on_tick
        return handlers

    def attach(self, machine, kernel=None) -> "ObsSession":
        """Register a machine (and kernel) built before this session
        was installed."""
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


@contextmanager
def prof_frame(core, label: str):
    """Open a profiler attribution frame around the block, iff the
    installed session is profiling.  Callers need no guard (the
    kernel's trap handlers call it bare): disarmed, it costs one global
    load plus the generator behind the ``with``."""
    session = ACTIVE
    profiler = session.profiler if session is not None else None
    if profiler is None:
        yield None
        return
    with profiler.frame(core, label):
        yield profiler


def install(session: Optional[ObsSession]) -> None:
    """Make *session* the installed one (None uninstalls): it becomes
    ``ACTIVE`` and the probe subscriber under the ``"obs"`` key."""
    global ACTIVE
    ACTIVE = session
    if session is None:
        probe.unsubscribe("obs")
    else:
        probe.subscribe("obs", session.probe_handlers())


@contextmanager
def active(session: ObsSession):
    """Install *session* for the duration of the block (restoring the
    previous session, so nested scopes compose)."""
    prev = ACTIVE
    install(session)
    try:
        yield session
    finally:
        install(prev)
