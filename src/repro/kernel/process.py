"""Processes and threads with the split thread state of paper §4.2.

A thread's kernel-visible state is divided into a *scheduling state*
(kernel stack, priority, time slice — always bound to the thread) and a
*runtime state* (address space + capabilities — changes as the thread
migrates through x-entries).  The kernel resolves the current runtime
state from ``xcall-cap-reg``, which the XPC hardware updates on every
``xcall``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.hw.paging import AddressSpace
from repro.kernel.objects import KernelObject
from repro.xpc.capability import XCallCapBitmap
from repro.xpc.engine import XPCThreadState
from repro.xpc.linkstack import LinkStack
from repro.xpc.relayseg import SegList


@dataclass
class SchedState:
    """Scheduling state: owned by exactly one thread forever (§4.2)."""

    priority: int = 0
    timeslice: int = 10_000
    runnable: bool = True
    core_affinity: Optional[int] = None


@dataclass
class RuntimeState:
    """Runtime state: the address space + capabilities a thread is
    currently executing under; identified by its xcall-cap bitmap."""

    aspace: AddressSpace
    cap_bitmap: XCallCapBitmap


class Process(KernelObject):
    """An address space plus its threads and per-AS XPC objects."""

    def __init__(self, koid: int, aspace: AddressSpace,
                 name: str = "") -> None:
        super().__init__(koid, name)
        self.aspace = aspace
        self.threads: List["Thread"] = []
        self.seg_list = SegList()      # per-address-space (§4.1)
        self.alive = True
        self.grant_caps: set = set()   # x-entry ids this process may grant
        self.xentries: List[int] = []  # x-entries registered by this process

    def __repr__(self) -> str:
        return f"<Process {self.name!r} asid={self.aspace.asid}>"


class Thread(KernelObject):
    """A schedulable thread with per-thread XPC architectural state."""

    def __init__(self, koid: int, process: Process, name: str = "") -> None:
        super().__init__(koid,
                         name or f"{process.name}.t{len(process.threads)}")
        self.process = process
        process.threads.append(self)
        self.sched = SchedState()
        home_caps = XCallCapBitmap()
        self.home_runtime = RuntimeState(process.aspace, home_caps)
        #: Architectural XPC state (link stack is per-thread, §4.1).
        self.xpc = XPCThreadState(
            cap_bitmap=home_caps,
            link_stack=LinkStack(),
            seg_list=process.seg_list,
        )
        self.alive = True

    @property
    def home_caps(self) -> XCallCapBitmap:
        return self.home_runtime.cap_bitmap
