"""The core model: privilege, CSRs, translation, and cycle accounting.

A :class:`Core` executes at the level of *memory operations and control
transfers* rather than individual instructions: kernels, servers, and
applications in this reproduction are Python code that runs "on" a core by
calling :meth:`mem_read`, :meth:`mem_write`, :meth:`memcpy`, and
:meth:`trap`, each of which moves real bytes and charges calibrated cycles.
The XPC engine (``repro.xpc.engine``) hooks the translation path so that an
active relay segment takes priority over the page table, exactly as the
paper's seg-reg does (§3.3: "During address translation, the seg-reg has
higher priority over the page table").
"""

from __future__ import annotations

import enum
from typing import Dict, Optional, TYPE_CHECKING

import repro.probe as probe
from repro.hw.cache import CacheModel
from repro.hw.memory import PAGE_SIZE, PhysicalMemory
from repro.hw.paging import AddressSpace, PageFault, PagePerm
from repro.hw.tlb import TLB
from repro.params import CycleParams

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.xpc.engine import XPCEngine


class PrivilegeMode(enum.Enum):
    USER = "U"
    SUPERVISOR = "S"
    MACHINE = "M"


class TrapCause(enum.Enum):
    SYSCALL = "ecall"
    PAGE_FAULT = "page-fault"
    XPC_EXCEPTION = "xpc-exception"
    TIMER = "timer"


class Core:
    """One in-order core with its TLB, L1 cache, and XPC engine port."""

    def __init__(self, core_id: int, mem: PhysicalMemory,
                 params: CycleParams, tagged_tlb: bool = False,
                 shared_l2=None) -> None:
        self.core_id = core_id
        self.mem = mem
        self.params = params
        self.cycles = 0
        self.mode = PrivilegeMode.USER
        self.tlb = TLB(entries=256, ways=4, tagged=tagged_tlb)
        self.cache = CacheModel(params, shared_l2=shared_l2)
        self.csr: Dict[str, int] = {}
        self.aspace: Optional[AddressSpace] = None
        self.xpc_engine: Optional["XPCEngine"] = None
        self.current_thread = None
        self.trap_count = 0

    # ------------------------------------------------------------------
    # Cycle accounting
    # ------------------------------------------------------------------
    def tick(self, cycles) -> None:
        """Charge *cycles* to this core's clock.

        This is the single charging primitive (the ``cycle-accounting``
        lint rule pins every other charge site back here), which makes
        it the one hook the cycle-attribution profiler needs: observing
        every ``tick`` attributes 100% of charged cycles by
        construction.
        """
        if cycles < 0:
            raise ValueError("cannot rewind the clock")
        cycles = int(cycles)
        self.cycles += cycles
        if probe.TICK:
            probe.tick(self, cycles)

    # ------------------------------------------------------------------
    # Address-space control
    # ------------------------------------------------------------------
    def set_address_space(self, aspace: AddressSpace,
                          charge: bool = True) -> None:
        """Write satp.  Untagged TLBs flush; tagged TLBs just retag."""
        if aspace is self.aspace:
            return
        self.aspace = aspace
        if probe.AS_SWITCH:
            probe.as_switch(self, aspace, charge)
        if self.tlb.tagged:
            if charge:
                self.tick(self.params.asid_switch)
        else:
            self.tlb.flush_all()
            if charge:
                self.tick(self.params.tlb_flush)

    # ------------------------------------------------------------------
    # Translation (relay-seg window > TLB > page walk)
    # ------------------------------------------------------------------
    def translate(self, va: int, access: PagePerm) -> int:
        """Translate one VA, charging TLB/page-walk latency."""
        if self.xpc_engine is not None:
            seg_pa = self.xpc_engine.seg_translate(va, access)
            if seg_pa is not None:
                # Seg-reg window hit: a register compare, free by design
                # (§3.3 — the relay segment bypasses the TLB entirely).
                return seg_pa  # verify-ok: flow-charge
        if self.aspace is None:
            raise PageFault(va, access, "no address space installed")
        hit = self.tlb.lookup(va, self.aspace.asid)
        if hit is not None:
            pa_page, perm = hit
            self.tick(self.params.tlb_hit)
        else:
            pa_page, perm, levels = self.aspace.page_table.walk(va)
            self.tick(levels * self.params.page_walk_per_level)
            self.tlb.insert(va, self.aspace.asid, pa_page, perm)
        if not perm & access:
            raise PageFault(va, access, f"permission denied at {va:#x}")
        return pa_page + (va % PAGE_SIZE)

    # ------------------------------------------------------------------
    # Memory operations (functional + timed)
    # ------------------------------------------------------------------
    def mem_read(self, va: int, n: int) -> bytes:
        """Timed load of *n* bytes from the current context."""
        out = bytearray()
        while n > 0:
            pa = self.translate(va, PagePerm.R)
            chunk = min(n, PAGE_SIZE - (va % PAGE_SIZE))
            self.tick(self.cache.access_cycles(pa, min(chunk, 64)))
            if chunk > 64:
                self.tick(self.cache.stream_cycles(chunk - 64) // 2)
            out += self.mem.read(pa, chunk)
            va += chunk
            n -= chunk
        # Every iteration charged above; the n == 0 load is a no-op.
        return bytes(out)  # verify-ok: flow-charge

    def mem_write(self, va: int, data: bytes) -> None:
        """Timed store of *data* to the current context."""
        off = 0
        while off < len(data):
            pa = self.translate(va + off, PagePerm.W)
            chunk = min(len(data) - off,
                        PAGE_SIZE - ((va + off) % PAGE_SIZE))
            self.tick(self.cache.access_cycles(pa, min(chunk, 64)))
            if chunk > 64:
                self.tick(self.cache.stream_cycles(chunk - 64) // 2)
            self.mem.write(pa, data[off:off + chunk])
            off += chunk

    def memcpy_user(self, dst_as: AddressSpace, dst_va: int,
                    src_as: AddressSpace, src_va: int, n: int) -> None:
        """Kernel-style copy between two address spaces.

        This is the "twofold copy"/"copy_from_user + copy_to_user"
        workhorse: bytes really move through physical memory and the cost
        is the calibrated streaming copy cost.
        """
        data = src_as.read(src_va, n)
        dst_as.write(dst_va, data)
        self.tick(self.params.copy_cycles(n))

    def memcpy_phys(self, dst_pa: int, src_pa: int, n: int) -> None:
        """Timed physical copy (DMA-less kernel memcpy)."""
        self.mem.copy(dst_pa, src_pa, n)
        self.tick(self.params.copy_cycles(n))

    # ------------------------------------------------------------------
    # Traps
    # ------------------------------------------------------------------
    def trap(self, cause: TrapCause) -> None:
        """Enter supervisor mode, charging the trap cost (Table 1)."""
        self.trap_count += 1
        self.mode = PrivilegeMode.SUPERVISOR
        if probe.TRAP:
            probe.trap(self, cause)
        self.tick(self.params.trap_enter)

    def trap_return(self) -> None:
        """Return to user mode, charging the restore cost (Table 1)."""
        self.mode = PrivilegeMode.USER
        self.tick(self.params.trap_restore)
        if probe.TRAP_RET:
            probe.trap_ret(self)
