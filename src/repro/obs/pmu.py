"""The PMU model: per-core and per-engine hardware counter banks.

A real XPC deployment would expose its engine counters the way the
paper's authors read RocketChip's HPM counters (§5.6): per-core banks
sampled with snapshot/delta/reset semantics.  This module reproduces
that surface over the simulator:

* **derived counters** are sampled straight off the hardware models at
  snapshot time — core cycles and trap counts, TLB hit/miss/flush,
  engine xcall/xret/swapseg/prefetch/exception counts, x-entry engine
  cache hits and misses, relay-seg transfer/shrink/swap activity, and
  the link-stack depth high-watermark;
* **event counters** are pushed by instrumentation sites through
  :meth:`PMU.add` — most importantly the cycles-by-phase breakdown of
  Figure 5 (``cycles.xcall.captest`` + ``cycles.xcall.xentry`` +
  ``cycles.xcall.linkpush`` always sums to the engine's reported
  ``xcall.cycles``).

The PMU never charges cycles and never mutates simulator state; reads
are free, exactly like the memory-mapped counter reads the paper's
record-and-replay methodology relies on.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.obs.cores import CoreNames

#: Counter names reported as *levels* (sampled raw, never
#: baseline-subtracted by reset): high-watermarks and populations.
LEVEL_SUFFIXES = (".hwm", ".depth", ".alive", ".queued")

#: Fig. 5 phase (as split at the ``repro.probe.phase`` site) -> the
#: event counter its cycles accumulate in.  ``phase:xret`` has none:
#: xret cycles are the derived ``xret.cycles``.
PHASE_COUNTERS = {
    "phase:captest": "cycles.xcall.captest",
    "phase:xentry": "cycles.xcall.xentry",
    "phase:linkpush": "cycles.xcall.linkpush",
    "phase:trampoline": "cycles.trampoline",
    "phase:cstack": "cycles.cstack",
}


#: The phases that partition ``xcall.cycles`` (Fig. 5's identity).
XCALL_PHASES = frozenset(label for label, counter in PHASE_COUNTERS.items()
                         if counter.startswith("cycles.xcall."))


def _is_level(name: str) -> bool:
    return name.endswith(LEVEL_SUFFIXES)


class PhaseWatch:
    """The phase-partition half of a PMU and nothing else: per-core
    sums of the :data:`XCALL_PHASES` cycles split at the ``phase``
    site.  Armed with :func:`repro.obs.active` like a session (it
    pauses an outer one the same way), so a caller that only checks
    Fig. 5's identity pays for one site, not every bank and span."""

    def __init__(self) -> None:
        self._xcall: Dict[object, int] = {}      # core -> phase cycles

    def probe_handlers(self) -> dict:
        return {"phase": self._on_phase}

    def _on_phase(self, core, parts) -> None:
        cycles = 0
        for label, n in parts:
            if label in XCALL_PHASES:
                cycles += n
        if cycles:
            self._xcall[core] = self._xcall.get(core, 0) + cycles

    def xcall_cycles(self, core) -> int:
        """Captest + xentry + linkpush cycles split on *core*."""
        return self._xcall.get(core, 0)


class PMUSnapshot:
    """An immutable sample of every bank: ``{bank: {counter: value}}``."""

    def __init__(self, banks: Dict[str, Dict[str, int]]) -> None:
        self._banks = {label: dict(counters)
                       for label, counters in banks.items()}

    @property
    def banks(self) -> Dict[str, Dict[str, int]]:
        return {label: dict(counters)
                for label, counters in self._banks.items()}

    def bank(self, label: str) -> Dict[str, int]:
        return dict(self._banks.get(label, {}))

    def get(self, bank: str, counter: str, default: int = 0) -> int:
        return self._banks.get(bank, {}).get(counter, default)

    def total(self, counter: str) -> int:
        """Sum of *counter* across every bank that carries it."""
        return sum(counters.get(counter, 0)
                   for counters in self._banks.values())

    def labels(self) -> List[str]:
        return sorted(self._banks)

    def as_dict(self) -> dict:
        return self.banks

    def __sub__(self, older: "PMUSnapshot") -> "PMUSnapshot":
        """Delta between two snapshots (level counters keep the newer
        value — a high-watermark difference is meaningless)."""
        out: Dict[str, Dict[str, int]] = {}
        for label, counters in self._banks.items():
            old = older._banks.get(label, {})
            out[label] = {
                name: (value if _is_level(name)
                       else value - old.get(name, 0))
                for name, value in counters.items()
            }
        return PMUSnapshot(out)


class _CoreBank:
    """One core's counter bank: the core, its engine, its events."""

    def __init__(self, core, label: str) -> None:
        self.core = core
        self.label = label
        self.events: Dict[str, int] = {}
        self.baseline: Dict[str, int] = {}

    def sample_derived(self) -> Dict[str, int]:
        core = self.core
        out = {
            "cycles": core.cycles,
            "traps": core.trap_count,
            "tlb.hits": core.tlb.stats.hits,
            "tlb.misses": core.tlb.stats.misses,
            "tlb.flushes": core.tlb.stats.flushes,
        }
        engine = core.xpc_engine
        if engine is not None:
            stats = engine.stats
            out.update({
                "xcall.count": stats.xcalls,
                "xcall.cycles": stats.xcall_cycles,
                "xret.count": stats.xrets,
                "xret.cycles": stats.xret_cycles,
                "swapseg.count": stats.swapsegs,
                "prefetch.count": stats.prefetches,
                "xpc.exceptions": stats.exceptions,
                "relay.transfers": stats.seg_transfers,
                "relay.shrinks": stats.seg_shrinks,
                "relay.bytes_passed": stats.seg_bytes_passed,
            })
            if engine.cache is not None:
                out["xentry_cache.hits"] = engine.cache.hits
                out["xentry_cache.misses"] = engine.cache.misses
        return out

    def sample(self) -> Dict[str, int]:
        raw = self.sample_derived()
        raw.update(self.events)
        return {
            name: (value if _is_level(name)
                   else value - self.baseline.get(name, 0))
            for name, value in raw.items()
        }

    def reset(self) -> None:
        self.events.clear()
        self.baseline = self.sample_derived()


class _KernelBank:
    """Control-plane levels sampled off one kernel instance."""

    def __init__(self, kernel, label: str) -> None:
        self.kernel = kernel
        self.label = label

    def sample(self) -> Dict[str, int]:
        kernel = self.kernel
        hwm = spilled = depth = 0
        for thread in kernel.threads:
            stack = thread.xpc.link_stack
            hwm = max(hwm, stack.high_watermark)
            spilled += stack.spilled_depth
            depth += stack.depth
        return {
            "link_stack.hwm": hwm,
            "link_stack.depth": depth,
            "link_stack.spilled.depth": spilled,
            "processes.alive": sum(1 for p in kernel.processes if p.alive),
            "threads.alive": sum(1 for t in kernel.threads if t.alive),
            "sched.queued": kernel.scheduler.queued,
        }


class PMU:
    """The machine-wide PMU: one bank per core plus kernel banks.

    Banks are keyed by the core and kernel objects themselves, so a
    snapshot's one ``deepcopy`` of (session, machine) carries them to
    the copied machine with nothing to re-key.  Core banks are labelled
    by *names* (:class:`~repro.obs.cores.CoreNames`, shared with the
    session's profiler and span tracer).  Cores register through
    :meth:`attach_machine` (called automatically by
    :class:`~repro.hw.machine.Machine` while a session is active) or
    lazily on the first :meth:`add` for an unknown core.
    """

    __snap_state__ = ("names", "_core_banks", "_kernel_banks")

    def __init__(self, names: Optional[CoreNames] = None) -> None:
        self.names = names if names is not None else CoreNames()
        self._core_banks: Dict[object, _CoreBank] = {}
        self._kernel_banks: Dict[object, _KernelBank] = {}

    # -- registration --------------------------------------------------
    def attach_machine(self, machine) -> None:
        self.names.attach_machine(machine)
        for core in machine.cores:
            self._bank(core)

    def attach_kernel(self, kernel) -> None:
        n = len(self._kernel_banks)
        label = "kernel" if n == 0 else f"kernel{n}"
        self._kernel_banks.setdefault(kernel, _KernelBank(kernel, label))

    def _bank(self, core) -> _CoreBank:
        bank = self._core_banks.get(core)
        if bank is None:
            bank = self._core_banks[core] = _CoreBank(core,
                                                      self.names(core))
        return bank

    # -- event counters ------------------------------------------------
    def add(self, core, name: str, n: int = 1) -> None:
        """Increment event counter *name* in *core*'s bank."""
        events = self._bank(core).events
        events[name] = events.get(name, 0) + n

    # -- snapshot / delta / reset --------------------------------------
    def snapshot(self) -> PMUSnapshot:
        banks: Dict[str, Dict[str, int]] = {}
        for bank in self._core_banks.values():
            banks[bank.label] = bank.sample()
        for kbank in self._kernel_banks.values():
            banks[kbank.label] = kbank.sample()
        return PMUSnapshot(banks)

    @staticmethod
    def delta(older: PMUSnapshot, newer: PMUSnapshot) -> PMUSnapshot:
        return newer - older

    def reset(self) -> None:
        """Zero every bank: event counters clear, derived counters
        re-baseline, so the next snapshot reads deltas from here."""
        for bank in self._core_banks.values():
            bank.reset()
