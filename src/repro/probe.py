"""repro.probe — the one surface observers watch the machine through.

The instrumented layers (hw, xpc, kernel, the XPC transport, the aio
ring, the runtime trampoline and repro.faults) announce each named
machine site here, once, behind one guard::

    if probe.TRAP:
        probe.trap(core, cause)

Each upper-case global is the tuple of handlers subscribed to its site,
so an unwatched site costs one global truth test and a subscriber pays
only at the sites it implements.  Observers — ``obs.ObsSession``,
``san.SanSession``, ``snap.PreFaultSnapper`` and :class:`EventLog` —
subscribe a ``{site: handler}`` mapping.  Handlers only observe: none
ticks or mutates simulator state, so armed runs are cycle-identical to
disarmed ones.  Like :mod:`repro.params`, this module imports nothing
from the package.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, Hashable, List, NamedTuple, Tuple

SITES = ("machine", "kernel", "tick", "phase", "trap", "trap_ret",
         "as_switch", "xcall", "xret", "repair", "swapseg", "handoff",
         "access", "fault")

#: One tuple of subscribed handlers per site; ``()`` when unwatched.
MACHINE = KERNEL = TICK = PHASE = TRAP = TRAP_RET = AS_SWITCH = ()
XCALL = XRET = REPAIR = SWAPSEG = HANDOFF = ACCESS = FAULT = ()

#: ``(key, {site: handler})`` in dispatch order.
_subscribers: List[Tuple[Hashable, Dict[str, Callable]]] = []


def subscribe(key: Hashable, handlers: Dict[str, Callable],
              first: bool = False) -> None:
    """Install *handlers* under *key*, replacing any under that key.
    *first* dispatches them ahead of every other subscriber: the
    pre-fault snapper captures the world before any observer reacts."""
    if not set(handlers) <= set(SITES):
        raise ValueError(f"unknown probe sites in {sorted(handlers)}")
    _subscribers[:] = [sub for sub in _subscribers if sub[0] != key]
    _subscribers.insert(0 if first else len(_subscribers), (key, handlers))
    _rebuild()


def unsubscribe(key: Hashable) -> None:
    _subscribers[:] = [sub for sub in _subscribers if sub[0] != key]
    _rebuild()


def _rebuild() -> None:
    table = {site.upper(): () for site in SITES}
    for _, handlers in _subscribers:
        for site, fn in handlers.items():
            table[site.upper()] += (fn,)
    globals().update(table)


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


def fault(point: str, action: dict) -> None:        # about to inject
    for fn in FAULT:
        fn(point, action)


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
