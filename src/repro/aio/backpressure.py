"""Bounded-queue admission control for the async front-end.

The synchronous stack already has two backpressure stages — per-entry
XPC contexts (``XPCBusyError``, §4.2's DoS discussion) and the
nameserver circuit breaker.  Batched submission adds a third queue (the
ring) in front of both, so it needs its own bound: an
:class:`AdmissionController` caps the number of in-flight requests a
client may hold and either **rejects** (typed
:class:`~repro.aio.ring.XPCRingFullError`, caller decides) or **parks**
(burn cycles, drain completions, retry — the blocking flavour).

Wiring:

* obs: gauge ``aio.inflight.<name>`` tracks the bound, counters
  ``aio.admission_rejected.<name>`` / ``aio.admission_parked.<name>``
  count the pressure events (all guarded — never moves the clock).
* nameserver circuit breaker: pass any object with
  ``report_failure(name)`` / ``report_success(name)`` (duck-typed so
  this layer stays below :mod:`repro.services`) as *health* — sustained
  overload then trips the breaker and sheds load at resolve time.
"""

from __future__ import annotations

import enum
from typing import Callable, Optional

import repro.probe as probe
from repro.hw.cpu import Core
from repro.aio.ring import XPCRingFullError


class AdmissionPolicy(enum.Enum):
    REJECT = "reject"    # fail fast with XPCRingFullError
    PARK = "park"        # burn park_cycles, drain, retry (bounded)


class AdmissionController:
    """Caps in-flight async requests; rejects or parks past the limit."""

    def __init__(self, limit: int,
                 policy: AdmissionPolicy = AdmissionPolicy.REJECT,
                 park_cycles: int = 2000,
                 max_parks: int = 4,
                 name: str = "aio",
                 health=None,
                 service_name: Optional[str] = None,
                 slo=None) -> None:
        if limit <= 0:
            raise ValueError("admission limit must be positive")
        self.limit = limit
        self.policy = policy
        self.park_cycles = park_cycles
        self.max_parks = max_parks
        self.name = name
        self.health = health
        self.service_name = service_name or name
        #: Duck-typed load-shedding source (``should_shed(now_cycles)
        #: -> bool``, e.g. a ``repro.prof.slo.SLOEngine``): while the
        #: error budget is burning at the shed rate, new admissions are
        #: rejected outright so the backlog can drain.
        self.slo = slo
        self.inflight = 0
        self.admitted = 0
        self.rejected = 0
        self.parked = 0
        self.shed = 0

    def admit(self, core: Core,
              drain_hook: Optional[Callable[[], object]] = None) -> None:
        """Take one slot, or raise :class:`XPCRingFullError`.

        Under ``PARK`` the caller blocks in bounded slices: each park
        charges ``park_cycles`` and runs *drain_hook* (typically the
        batcher's ``flush``) so completions can free slots."""
        if self.slo is not None and self.slo.should_shed(core.cycles):
            self.shed += 1
            self.rejected += 1
            if probe.METRIC:
                probe.metric("counter", f"aio.slo_shed.{self.name}", 1,
                             core.cycles)
            if self.health is not None:
                self.health.report_failure(self.service_name)
            raise XPCRingFullError(
                self.name, "SLO burn rate at shed threshold — "
                "admission closed to drain the backlog")
        parks = 0
        while self.inflight >= self.limit:
            if self.policy is AdmissionPolicy.REJECT or parks >= self.max_parks:
                self.rejected += 1
                if probe.METRIC:
                    probe.metric("counter",
                                 f"aio.admission_rejected.{self.name}", 1,
                                 core.cycles)
                if self.health is not None:
                    self.health.report_failure(self.service_name)
                raise XPCRingFullError(
                    self.name,
                    f"admission limit {self.limit} reached "
                    f"({self.inflight} in flight)")
            parks += 1
            self.parked += 1
            core.tick(self.park_cycles)
            if probe.METRIC:
                probe.metric("counter", f"aio.admission_parked.{self.name}",
                             1, core.cycles)
            if drain_hook is not None:
                drain_hook()
        self.inflight += 1
        self.admitted += 1
        self._gauge(core)

    def release(self, core: Core, n: int = 1) -> None:
        """Free *n* slots (one completion harvested)."""
        self.inflight = max(0, self.inflight - n)
        self._gauge(core)
        if self.health is not None:
            self.health.report_success(self.service_name)

    def _gauge(self, core: Core) -> None:
        if probe.METRIC:
            probe.metric("gauge", f"aio.inflight.{self.name}",
                         self.inflight, core.cycles)
