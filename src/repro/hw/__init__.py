"""Hardware substrate: physical memory, paging, TLB, caches, cores.

This package models the machine the XPC engine plugs into — a RocketChip-like
in-order RISC-V multicore — at functional + cycle-accounting fidelity.  Data
really lives in a lazily zeroed mmap physical memory and flows through real
page tables and a real set-associative TLB; latencies come from
:class:`repro.params.CycleParams`.
"""

from repro.hw.memory import PhysicalMemory, FrameAllocator, OutOfMemoryError
from repro.hw.paging import PageTable, AddressSpace, PagePerm, PageFault
from repro.hw.tlb import TLB
from repro.hw.cache import CacheModel
from repro.hw.cpu import Core, PrivilegeMode, TrapCause
from repro.hw.machine import Machine

__all__ = [
    "PhysicalMemory", "FrameAllocator", "OutOfMemoryError",
    "PageTable", "AddressSpace", "PagePerm", "PageFault",
    "TLB", "CacheModel", "Core", "PrivilegeMode", "TrapCause", "Machine",
]
