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

import copy
from typing import Dict, List, Optional

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


def _is_level(name: str) -> bool:
    return name.endswith(LEVEL_SUFFIXES)


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

    Cores register through :meth:`attach_machine` (called automatically
    by :class:`~repro.hw.machine.Machine` while a session is active) or
    lazily on the first :meth:`add` for an unknown core.
    """

    __snap_state__ = ("_core_banks", "_kernel_banks", "_machines",
                      "_kernels")

    def __init__(self) -> None:
        self._core_banks: Dict[int, _CoreBank] = {}   # id(core) -> bank
        self._kernel_banks: Dict[int, _KernelBank] = {}
        self._machines = 0
        self._kernels = 0

    def __deepcopy__(self, memo: dict) -> "PMU":
        """Banks are keyed by ``id(core)``/``id(kernel)``; a snapshot
        copy must re-key by the *copied* objects' ids or the restored
        PMU would sample the pre-snapshot machine."""
        dup = PMU.__new__(PMU)
        memo[id(self)] = dup
        dup._machines = self._machines
        dup._kernels = self._kernels
        dup._core_banks = {}
        for bank in self._core_banks.values():
            new_bank = copy.deepcopy(bank, memo)
            dup._core_banks[id(new_bank.core)] = new_bank
        dup._kernel_banks = {}
        for kbank in self._kernel_banks.values():
            new_kbank = copy.deepcopy(kbank, memo)
            dup._kernel_banks[id(new_kbank.kernel)] = new_kbank
        return dup

    def __snap_fingerprint__(self):
        """Canonical identity: banks in registration order, without the
        raw ``id()`` keys (which differ across restores by design)."""
        return ("PMU", self._machines, self._kernels,
                list(self._core_banks.values()),
                list(self._kernel_banks.values()))

    # -- registration --------------------------------------------------
    def attach_machine(self, machine) -> None:
        prefix = "" if self._machines == 0 else f"m{self._machines}."
        self._machines += 1
        for core in machine.cores:
            self._ensure_core(core, f"{prefix}core{core.core_id}")

    def attach_kernel(self, kernel) -> None:
        label = "kernel" if self._kernels == 0 else f"kernel{self._kernels}"
        self._kernels += 1
        self._kernel_banks[id(kernel)] = _KernelBank(kernel, label)

    def _ensure_core(self, core, label: Optional[str] = None) -> _CoreBank:
        bank = self._core_banks.get(id(core))
        if bank is None:
            bank = _CoreBank(core, label or f"core{core.core_id}")
            self._core_banks[id(core)] = bank
        return bank

    # -- event counters ------------------------------------------------
    def add(self, core, name: str, n: int = 1) -> None:
        """Increment event counter *name* in *core*'s bank."""
        events = self._ensure_core(core).events
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
