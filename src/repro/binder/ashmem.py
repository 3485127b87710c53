"""The anonymous shared memory (ashmem) subsystem (paper §4.3).

Baseline ashmem is file-backed shared memory: a process creates a
region, mmaps it, and shares the file descriptor with another process
through the Binder driver.  "Like conventional shared memory
approaches, ashmem also needs an extra copying to avoid TOCTTOU
attacks" — the receiver copies the contents out before trusting them.

The XPC variant backs an ashmem region with a *relay segment*: the
mapping's ownership is transferred with the call, so the receiver can
use the data in place, safely, with zero copies.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.hw.cpu import Core
from repro.hw.memory import PAGE_SIZE
from repro.hw.paging import PagePerm
from repro.kernel.kernel import BaseKernel
from repro.kernel.objects import KernelObject
from repro.kernel.process import Process
from repro.xpc.relayseg import RelaySegment, SegReg


class AshmemRegion(KernelObject):
    """One ashmem region: plain shared pages or a relay segment."""

    def __init__(self, koid: int, size: int, pa: int = -1,
                 relay_seg: Optional[RelaySegment] = None,
                 name: str = "") -> None:
        super().__init__(koid, name or "ashmem")
        self.size = size
        self.pa = pa
        self.relay_seg = relay_seg

    @property
    def is_relay(self) -> bool:
        return self.relay_seg is not None


class AshmemSubsystem:
    """Kernel-side ashmem: create / mmap / fd bookkeeping."""

    def __init__(self, kernel: BaseKernel) -> None:
        self.kernel = kernel
        self._fd_tables: Dict[int, Dict[int, AshmemRegion]] = {}
        self._next_fd: Dict[int, int] = {}
        self._mappings: Dict[Tuple[int, int], int] = {}  # (proc,koid)->va

    def _table(self, process: Process) -> Dict[int, AshmemRegion]:
        return self._fd_tables.setdefault(process.koid, {})

    def _alloc_fd(self, process: Process) -> int:
        fd = self._next_fd.get(process.koid, 3)
        self._next_fd[process.koid] = fd + 1
        return fd

    # ------------------------------------------------------------------
    def create(self, core: Core, process: Process, size: int,
               use_relay: bool = False) -> int:
        """``ashmem_create_region``: returns a new fd in *process*."""
        size = _round_page(size)
        if use_relay:
            seg, slot = self.kernel.create_relay_seg(core, process, size)
            process.seg_list.drop(slot)  # managed by the framework
            region = AshmemRegion(next(self.kernel.koids), size,
                                  relay_seg=seg)
        else:
            pa = self.kernel.machine.memory.alloc_contiguous(size)
            region = AshmemRegion(next(self.kernel.koids), size, pa=pa)
        fd = self._alloc_fd(process)
        self._table(process)[fd] = region
        return fd

    def region(self, process: Process, fd: int) -> AshmemRegion:
        try:
            return self._table(process)[fd]
        except KeyError:
            raise KeyError(f"bad ashmem fd {fd} in {process}") from None

    def mmap(self, core: Core, process: Process, fd: int) -> int:
        """Map the region into *process*; returns the VA.

        Relay-backed regions are "mapped" by installing the seg-reg, so
        their VA is the segment's fixed relay VA (valid in any address
        space via the seg-reg window).
        """
        region = self.region(process, fd)
        if region.is_relay:
            # Relay-backed map = set the relay-seg register (§4.3),
            # essentially a swapseg — no page-table work at all.
            core.tick(self.kernel.params.swapseg)
            return region.relay_seg.va_base
        core.tick(self.kernel.params.ashmem_mmap)
        key = (process.koid, region.koid)
        va = self._mappings.get(key)
        if va is None:
            va = process.aspace._va_cursor
            process.aspace._va_cursor += region.size + PAGE_SIZE
            process.aspace.page_table.map_range(
                va, region.pa, region.size, PagePerm.RW)
            self._mappings[key] = va
        return va

    def dup_into(self, core: Core, src: Process, fd: int,
                 dst: Process) -> int:
        """Driver-side fd transfer (BINDER_TYPE_FD fixup)."""
        region = self.region(src, fd)
        core.tick(self.kernel.params.ashmem_fd_xfer)
        new_fd = self._alloc_fd(dst)
        self._table(dst)[new_fd] = region
        return new_fd


def _round_page(n: int) -> int:
    return (n + PAGE_SIZE - 1) & ~(PAGE_SIZE - 1)
