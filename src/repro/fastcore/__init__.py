"""repro.fastcore: the flat, table-driven fast simulator core.

The reference stack (``repro.xpc`` + ``repro.hw`` + ``repro.kernel``)
simulates every xcall by actually walking the object graph: engine
state machines, TLB sets, link stacks, relay segments, trap frames.
That fidelity is the point of the reference — and the reason fuzz
throughput tops out around ~1100 ops/Mcycle of host time.

This package is the other half of the bargain: the *same* cycle
semantics, precomputed.  A :class:`~repro.fastcore.tables.CycleTable`
folds one ``CycleParams`` and one hardware configuration into flat
per-path cycle sums (xcall, xret, AS switch, trampoline, seg-create,
repair, ...), and ``__slots__`` record structs replace the object
graph.

The contract is *strict equivalence*, not approximation: the proptest
differential harness runs the fast core as a tenth executor and
requires identical outcomes **and** identical per-op cycle deltas
against the seL4-XPC reference on every fuzz program.  DESIGN.md §17
documents the table layout and the equivalence methodology.

Layering: this package may import nothing but :mod:`repro.params`.
The reference engine may never import this package (the layering
rule's ``FORBIDDEN_IMPORTS`` table in :mod:`repro.verify` enforces
both directions), so reference and fast core cannot accidentally
share implementation — only the differential gate ties them together.
"""

from repro.fastcore.structs import (FastCoreShim, FastService, KernelShim,
                                    MachineShim, SchedulerShim, TLBShim)
from repro.fastcore.tables import CycleTable, cycle_table

__all__ = [
    "CycleTable",
    "FastCoreShim",
    "FastService",
    "KernelShim",
    "MachineShim",
    "SchedulerShim",
    "TLBShim",
    "cycle_table",
]
