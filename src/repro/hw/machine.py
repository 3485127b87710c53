"""The machine: cores, DRAM, shared L2, and per-core XPC engines.

Mirrors the paper's platforms: a RocketChip-like multicore where every
core carries an XPC engine and all engines share the single global
x-entry table in DRAM (§3.1).
"""

from __future__ import annotations

from typing import List, Optional, TYPE_CHECKING

import repro.probe as probe
from repro.hw.cache import _TagArray
from repro.hw.cpu import Core
from repro.hw.memory import PhysicalMemory
from repro.params import CycleParams, DEFAULT_PARAMS

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.xpc.engine import XPCConfig, XPCEngine
    from repro.xpc.entry import XEntryTable


class Machine:
    """A small SMP machine with XPC engines on every core."""

    def __init__(self, cores: int = 4,
                 mem_bytes: int = 256 * 1024 * 1024,
                 params: Optional[CycleParams] = None,
                 tagged_tlb: bool = False,
                 xpc: bool = True,
                 xpc_config: Optional[XPCConfig] = None) -> None:
        if cores <= 0:
            raise ValueError("need at least one core")
        self.params = params or DEFAULT_PARAMS
        self.memory = PhysicalMemory(mem_bytes)
        shared_l2 = _TagArray(1024 * 1024, 16, self.params.cache_line_bytes)
        self.cores: List[Core] = [
            Core(i, self.memory, self.params, tagged_tlb=tagged_tlb,
                 shared_l2=shared_l2)
            for i in range(cores)
        ]
        self.xentry_table: Optional["XEntryTable"] = None
        self.engines: List["XPCEngine"] = []
        if xpc:
            # The hardware layer defines the engine *port*
            # (Core.xpc_engine); the engine plugs itself in.  This late
            # import is the one sanctioned inversion of the hw -> xpc
            # layering: a load-time dependency would invert the stack.
            from repro.xpc.engine import XPCEngine  # verify-ok: layering
            from repro.xpc.entry import XEntryTable  # verify-ok: layering
            self.xentry_table = XEntryTable()
            self.engines = [
                XPCEngine(core, self.xentry_table, xpc_config)
                for core in self.cores
            ]
        if probe.MACHINE:
            probe.machine(self)

    @property
    def core0(self) -> Core:
        return self.cores[0]

    def total_cycles(self) -> int:
        return sum(core.cycles for core in self.cores)

    def engine_for(self, core: Core) -> XPCEngine:
        if not self.engines:
            raise RuntimeError("this machine was built without XPC")
        return self.engines[core.core_id]
