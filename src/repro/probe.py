"""repro.probe — the one surface the simulator is watched and armed through.

The instrumented layers (hw, xpc, kernel, runtime, the XPC transport,
aio, the services, the devices and the cluster fabric) announce each
named site here, once, behind one guard::

    if probe.TRAP:
        probe.trap(core, cause)

Each upper-case global is the tuple of handlers subscribed to its site,
so an unwatched site costs one global truth test and a subscriber pays
only at the sites it implements.  Observers — ``obs.ObsSession``,
``san.SanSession``, ``snap.PreFaultSnapper`` and :class:`EventLog` —
subscribe a ``{site: handler}`` mapping.  Their handlers only observe:
none ticks or mutates simulator state, so watched runs are
cycle-identical to unwatched ones.

The sites are machine events (``machine`` … ``access``, in
:data:`SITES` order), application metrics (``metric`` for counter,
gauge and histogram feeds; ``pmu`` for a core's event counters), two
scope pairs and the fault points.  A scope's opening call (``span``,
``frame``) returns the first token a subscriber hands back, or None;
its closing call (``span_end``, ``frame_end``) takes the token back::

    token = probe.frame(core, "kernel:preempt") if probe.FRAME else None
    ...
    if token is not None:
        probe.frame_end(core, token)

``inject`` is the one site whose handler decides.  A fault point asks
it behind the same guard and applies what comes back::

    if probe.INJECT:
        act = probe.inject("net.drop")
        if act is not None:
            ...drop the frame...

The first handler to return an action wins; the action is announced at
the ``fault`` site before ``inject`` returns it, so observers see every
injection before the fire site applies it.  :func:`subscribed` scopes a
subscription and puts back what its key held before: ``faults.active``
(a plan at ``inject``), ``obs.active`` and ``san.active`` are built on
it.  Like :mod:`repro.params`, this module imports nothing from the
package.
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from typing import (Callable, Dict, Hashable, Iterable, List, NamedTuple,
                    Optional, Tuple)

SITES = ("machine", "kernel", "tick", "phase", "trap", "trap_ret",
         "as_switch", "xcall", "xret", "repair", "swapseg", "handoff",
         "access", "metric", "pmu", "span", "span_end", "frame",
         "frame_end", "fault", "inject")

#: One tuple of subscribed handlers per site; ``()`` when unwatched.
MACHINE = KERNEL = TICK = PHASE = TRAP = TRAP_RET = AS_SWITCH = ()
XCALL = XRET = REPAIR = SWAPSEG = HANDOFF = ACCESS = METRIC = PMU = ()
SPAN = SPAN_END = FRAME = FRAME_END = FAULT = INJECT = ()

_SITE_SET = frozenset(SITES)

#: ``(key, {site: handler})`` in dispatch order.
_subscribers: List[Tuple[Hashable, Dict[str, Callable]]] = []


def subscribe(key: Hashable, handlers: Dict[str, Callable],
              first: bool = False) -> Optional[Dict[str, Callable]]:
    """Install *handlers* under *key*, replacing any under that key,
    and return the replaced handlers (None if *key* was new).  *first*
    dispatches them ahead of every other subscriber: the pre-fault
    snapper captures the world before any observer reacts."""
    if not handlers.keys() <= _SITE_SET:
        raise ValueError(f"unknown probe sites in {sorted(handlers)}")
    prev = _drop(key)
    _subscribers.insert(0 if first else len(_subscribers), (key, handlers))
    _rebuild(handlers if prev is None else handlers.keys() | prev.keys())
    return prev


def unsubscribe(key: Hashable) -> None:
    prev = _drop(key)
    if prev is not None:
        _rebuild(prev)


@contextmanager
def subscribed(key: Hashable, handlers: Dict[str, Callable], value=None):
    """Subscribe *handlers* under *key* for the block, which receives
    *value*, then put back whatever *key* held before, so nested scopes
    compose."""
    prev = subscribe(key, handlers)
    try:
        yield value
    finally:
        if prev is None:
            unsubscribe(key)
        else:
            subscribe(key, prev)


def _drop(key: Hashable) -> Optional[Dict[str, Callable]]:
    for index, (other, handlers) in enumerate(_subscribers):
        if other == key:
            del _subscribers[index]
            return handlers
    return None


def _rebuild(sites: Iterable[str]) -> None:
    """Recompute the handler tuples of *sites* only; every other
    site's tuple stays the same object."""
    table = globals()
    for site in sites:
        table[site.upper()] = tuple([handlers[site]
                                     for _, handlers in _subscribers
                                     if site in handlers])


# -- the sites, each called behind its own guard -----------------------
def machine(m) -> None:                     # a Machine was built
    for fn in MACHINE:
        fn(m)


def kernel(k) -> None:                      # a kernel was built
    for fn in KERNEL:
        fn(k)


def tick(core, cycles: int) -> None:        # just charged to core
    for fn in TICK:
        fn(core, cycles)


def phase(core, parts) -> None:
    """The next tick on *core* splits into Fig. 5 phases,
    ``(("phase:captest", n), ...)``."""
    for fn in PHASE:
        fn(core, parts)


def trap(core, cause) -> None:
    for fn in TRAP:
        fn(core, cause)


def trap_ret(core) -> None:
    for fn in TRAP_RET:
        fn(core)


def as_switch(core, aspace, charge: bool) -> None:  # satp write
    for fn in AS_SWITCH:
        fn(core, aspace, charge)


def xcall(core, record) -> None:            # record pushed, callee entered
    for fn in XCALL:
        fn(core, record)


def xret(core, record) -> None:             # record popped, caller back
    for fn in XRET:
        fn(core, record)


def repair(core, record, restored: bool) -> None:   # §4.2 force-pop
    for fn in REPAIR:
        fn(core, record, restored)


def swapseg(core, index: int) -> None:
    for fn in SWAPSEG:
        fn(core, index)


def handoff(obj, label: str, via: str) -> None:     # §3.3 owner change
    for fn in HANDOFF:
        fn(obj, label, via)


def access(core, obj, label: str, site: str, kind: str) -> None:
    for fn in ACCESS:
        fn(core, obj, label, site, kind)


def metric(kind: str, name: str, value, cycle: Optional[int]) -> None:
    """Feed *value* to the ``"counter"`` (an increment), ``"gauge"`` or
    ``"histogram"`` *name*, stamped with *cycle*."""
    for fn in METRIC:
        fn(kind, name, value, cycle)


def pmu(core, event: str, n: int) -> None:  # add n to core's event count
    for fn in PMU:
        fn(core, event, n)


def span(core, name: str, cat: str, **args):
    """Open span *name* on *core*.  Every subscriber sees it; the
    first token one returns is the one to end it with (None when
    nothing is subscribed)."""
    token = None
    for fn in SPAN:
        mine = fn(core, name, cat, **args)
        if token is None:
            token = mine
    return token


def span_end(core, token) -> None:
    """Close the span *token* opened, and any still open inside it."""
    for fn in SPAN_END:
        fn(core, token)


def frame(core, label: str):
    """Open profiler frame *label* on *core*; returns its token like
    :func:`span` does."""
    token = None
    for fn in FRAME:
        mine = fn(core, label)
        if token is None:
            token = mine
    return token


def frame_end(core, token) -> None:
    """Close the frame *token* opened, and any still open inside it."""
    for fn in FRAME_END:
        fn(core, token)


def fault(point: str, action: dict) -> None:        # about to inject
    for fn in FAULT:
        fn(point, action)


def inject(point: str) -> Optional[dict]:
    """Fault point *point* was reached: the first handler's action, or
    None.  An action is announced at :func:`fault` before it returns."""
    for fn in INJECT:
        action = fn(point)
        if action is not None:
            if FAULT:
                fault(point, action)
            return action
    return None


# -- the point-event log ----------------------------------------------
class Event(NamedTuple):
    cycle: int
    core_id: int
    kind: str
    detail: str = ""

    def __str__(self) -> str:
        return (f"[{self.cycle:>10}] core{self.core_id} "
                f"{self.kind:<10} {self.detail}")


class EventLog:
    """Retain-newest log of control transfers while its ``with`` runs."""

    def __init__(self, capacity: int = 100_000) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.events: deque = deque(maxlen=capacity)
        self.dropped = 0

    def _emit(self, core, kind: str, detail: str = "") -> None:
        if len(self.events) == self.events.maxlen:
            self.dropped += 1
        self.events.append(Event(core.cycles, core.core_id, kind, detail))

    def __enter__(self) -> "EventLog":
        subscribe(self, {
            "trap": lambda core, cause: self._emit(core, "trap", cause.value),
            "trap_ret": lambda core: self._emit(core, "trap-ret"),
            "as_switch": lambda core, aspace, _charge: self._emit(
                core, "as-switch", aspace.name),
            "xcall": lambda core, rec: self._emit(
                core, "xcall", f"entry={rec.callee_entry_id} seg="
                f"{rec.passed_seg.length if rec.passed_seg.valid else 0}B"),
            "xret": lambda core, rec: self._emit(
                core, "xret", f"entry={rec.callee_entry_id}"),
            "swapseg": lambda core, index: self._emit(
                core, "swapseg", f"slot={index}"),
        })
        return self

    def __exit__(self, *exc) -> None:
        unsubscribe(self)

    def to_text(self, limit: int = 50) -> str:
        lines = [str(e) for e in list(self.events)[:limit]]
        if len(self.events) > limit:
            lines.append(f"... {len(self.events) - limit} more events")
        if self.dropped:
            lines.append(f"... {self.dropped} older events dropped (capacity)")
        return "\n".join(lines)
