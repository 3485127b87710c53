"""BaseKernel: the XPC control plane (paper §3, §4.1, §4.2, §4.4).

The kernel owns the four XPC object families —

  1. the global x-entry table,
  2. per-thread link stacks,
  3. per-thread xcall capability bitmaps,
  4. per-address-space relay-segment lists,

— and implements the software side of the design: x-entry registration,
grant-cap propagation, relay-segment creation (physically contiguous, and
*never* overlapping any page-table mapping, so no TLB shootdown is ever
needed), process termination (link-stack invalidation, lazy page-table
zap, segment revocation), and the exception repair path for returns into
dead processes.

Kernel personalities (seL4-like, Zircon-like, Linux/Binder-like) subclass
this with their own IPC data planes.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, List, Optional, Tuple

import repro.probe as probe
from repro.hw.cpu import Core, TrapCause
from repro.hw.machine import Machine
from repro.hw.memory import PAGE_SIZE
from repro.hw.paging import AddressSpace, PagePerm
from repro.kernel.process import Process, Thread
from repro.kernel.scheduler import Scheduler
from repro.xpc.engine import restore_caller
from repro.xpc.entry import XEntry
from repro.xpc.relayseg import RelaySegment, SegReg, SEG_INVALID

#: Relay segments live in a reserved VA region that the kernel never hands
#: to mmap, guaranteeing the no-overlap invariant of §3.3.
RELAY_VA_BASE = 0x0000_7000_0000_0000

#: Control-plane costs live in repro.params so the fast core precomputes
#: its tables from the exact numbers the reference kernel charges.
from repro.params import (
    GRANT_LOGIC as _GRANT_LOGIC,
    KILL_ZAP_CYCLES as _KILL_ZAP_CYCLES,
    LINK_SCAN_PER_RECORD as _LINK_SCAN_PER_RECORD,
    LINK_SPILL_PER_RECORD as _LINK_SPILL_PER_RECORD,
    REGISTER_LOGIC as _REGISTER_LOGIC,
    SEG_CREATE_PER_PAGE as _SEG_CREATE_PER_PAGE,
)


class KernelError(Exception):
    """A kernel-level policy violation (not a hardware exception)."""


class BaseKernel:
    """Common control plane for every kernel personality."""

    def __init__(self, machine: Machine, name: str = "kernel") -> None:
        self.machine = machine
        self.params = machine.params
        self.name = name
        self.scheduler = Scheduler(self.params)
        self.processes: List[Process] = []
        self.threads: List[Thread] = []
        self.relay_segments: List[RelaySegment] = []
        self._relay_va_cursor = RELAY_VA_BASE
        # Segment IDs and koids are scoped to this kernel: deterministic
        # per machine, never shared across simulator instances.
        self._seg_ids = itertools.count(1)
        self.koids = itertools.count(1)
        self.ipc_stats: Dict[str, int] = {"calls": 0, "bytes": 0}
        #: Subsystems (e.g. the Binder driver) that want to know when a
        #: process dies — callables taking the dead Process.
        self.death_hooks: List[Callable] = []
        #: The core running service code right now: the core whose
        #: ``xcall`` (or Binder transaction) entered the innermost
        #: handler, ``None`` outside handlers.  Only handler dispatch
        #: writes it, saving and restoring it around the handler.
        self.handler_core: Optional[Core] = None
        if probe.KERNEL:
            probe.kernel(self)

    # ------------------------------------------------------------------
    # Processes & threads
    # ------------------------------------------------------------------
    def create_process(self, name: str = "") -> Process:
        aspace = AddressSpace(self.machine.memory, name)
        process = Process(next(self.koids), aspace, name)
        self.processes.append(process)
        return process

    def create_thread(self, process: Process, name: str = "") -> Thread:
        """Create a thread and its per-thread XPC objects (§4.1)."""
        if not process.alive:
            raise KernelError(f"{process} is dead")
        thread = Thread(next(self.koids), process, name)
        self.threads.append(thread)
        return thread

    def run_thread(self, core: Core, thread: Thread) -> None:
        """Dispatch *thread* onto *core*, installing its XPC registers."""
        if not thread.alive:
            raise KernelError(f"{thread} is dead")
        core.current_thread = thread
        core.set_address_space(thread.process.aspace, charge=False)
        engine = core.xpc_engine
        if engine is not None:
            engine.bind(thread, thread.xpc)
        if probe.HANDOFF:
            # Scheduler dispatch synchronizes the thread's XPC state with
            # the new core: its link stack and seg change hands.
            probe.handoff(thread.xpc.link_stack, "link-stack", "run_thread")
            if thread.xpc.seg_reg.valid:
                probe.handoff(thread.xpc.seg_reg.segment, "relay-seg",
                              "run_thread")

    # ------------------------------------------------------------------
    # x-entry registration and capabilities (control plane, §4.2)
    # ------------------------------------------------------------------
    def register_xentry(self, core: Core, server_thread: Thread,
                        handler: Callable, max_contexts: int = 1) -> XEntry:
        """Syscall: register *handler* as an x-entry of the server.

        The registering process receives the grant-cap for the new entry.
        """
        table = self.machine.xentry_table
        if table is None:
            raise KernelError("machine has no XPC engine")
        core.trap(TrapCause.SYSCALL)
        core.tick(_REGISTER_LOGIC)
        process = server_thread.process
        entry = table.register(
            aspace=process.aspace,
            handler=handler,
            handler_thread=server_thread,
            max_contexts=max_contexts,
            owner_process=process,
            callee_state=server_thread.home_caps,
        )
        process.grant_caps.add(entry.entry_id)
        process.xentries.append(entry.entry_id)
        core.trap_return()
        return entry

    def grant_xcall_cap(self, core: Core, granter: Process,
                        grantee: Thread, entry_id: int,
                        with_grant: bool = False) -> None:
        """Syscall: grant ``xcall-cap`` for *entry_id* to *grantee*.

        Requires the granter to hold the grant-cap (§4.2); ``with_grant``
        additionally propagates the grant-cap itself.
        """
        core.trap(TrapCause.SYSCALL)
        core.tick(_GRANT_LOGIC)
        try:
            if entry_id not in granter.grant_caps:
                raise KernelError(
                    f"{granter} holds no grant-cap for x-entry {entry_id}"
                )
            grantee.home_caps.grant(entry_id)
            if with_grant:
                grantee.process.grant_caps.add(entry_id)
        finally:
            core.trap_return()

    def revoke_xcall_cap(self, thread: Thread, entry_id: int) -> None:
        thread.home_caps.revoke(entry_id)

    def remove_xentry(self, core: Core, process: Process,
                      entry_id: int) -> None:
        """Syscall: unregister an x-entry owned by *process*."""
        core.trap(TrapCause.SYSCALL)
        try:
            if entry_id not in process.xentries:
                raise KernelError(
                    f"{process} does not own x-entry {entry_id}"
                )
            self.machine.xentry_table.remove(entry_id)
            process.xentries.remove(entry_id)
            process.grant_caps.discard(entry_id)
            for engine in self.machine.engines:
                if engine.cache is not None:
                    engine.cache.evict(entry_id)
        finally:
            core.trap_return()

    # ------------------------------------------------------------------
    # Relay segments (§3.3, §4.4)
    # ------------------------------------------------------------------
    def create_relay_seg(self, core: Core, process: Process,
                         nbytes: int) -> Tuple[RelaySegment, int]:
        """Syscall: allocate a relay segment and park it in the seg-list.

        Returns ``(segment, seg_list_slot)``.  The VA range comes from the
        kernel-reserved relay region, so it can never collide with a
        page-table mapping in *any* address space.
        """
        if nbytes <= 0:
            raise KernelError("relay segment size must be positive")
        core.trap(TrapCause.SYSCALL)
        npages = (nbytes + PAGE_SIZE - 1) // PAGE_SIZE
        core.tick(npages * _SEG_CREATE_PER_PAGE)
        size = npages * PAGE_SIZE
        pa = self.machine.memory.alloc_contiguous(size)
        va = self._relay_va_cursor
        self._relay_va_cursor += size + PAGE_SIZE
        seg = RelaySegment(pa, va, size, PagePerm.RW, process,
                           seg_id=next(self._seg_ids))
        self.relay_segments.append(seg)
        slot = self._free_slot(process)
        process.seg_list.store(slot, SegReg.for_segment(seg))
        core.trap_return()
        return seg, slot

    def _free_slot(self, process: Process) -> int:
        used = {i for i, _ in process.seg_list.segments()}
        for i in range(process.seg_list.slots):
            if i not in used:
                return i
        raise KernelError("seg-list full")

    def activate_relay_seg(self, core: Core, thread: Thread,
                           slot: int) -> None:
        """Install the parked segment in *slot* as the thread's seg-reg.

        This is the user-mode ``swapseg`` path; the kernel only sets it up
        the first time (thereafter user code swaps without trapping).
        """
        core.xpc_engine.swapseg(slot)

    def install_relay_seg(self, thread, seg: RelaySegment) -> None:
        """Control plane: install *seg* directly as *thread*'s seg-reg.

        This is the first-time setup fast path glue layers use (Binder's
        relay-backed Parcels, the kernel-neutral transport): the kernel
        hands an owned segment straight to a thread without a ``swapseg``
        round trip.  The single-owner invariant of §3.3 is enforced here
        exactly as the engine enforces it on ``swapseg``.
        """
        if seg.active_owner not in (None, thread):
            raise KernelError(
                f"relay segment {seg.seg_id} is active on another thread")
        thread.xpc.seg_reg = SegReg.for_segment(seg)
        seg.active_owner = thread
        if probe.HANDOFF:
            probe.handoff(seg, "relay-seg", "install_relay_seg")

    def deactivate_relay_seg(self, thread) -> Optional[RelaySegment]:
        """Control plane: invalidate *thread*'s seg-reg, releasing
        ownership of the segment it mapped (if any).  Returns the
        released segment so the caller can park or free it.
        """
        window = thread.xpc.seg_reg
        thread.xpc.seg_reg = SEG_INVALID
        if not window.valid:
            return None
        window.segment.active_owner = None
        if probe.HANDOFF:
            probe.handoff(window.segment, "relay-seg",
                          "deactivate_relay_seg")
        return window.segment

    def free_relay_seg(self, core: Core, seg: RelaySegment) -> None:
        """Syscall: destroy a relay segment and reclaim its memory."""
        core.trap(TrapCause.SYSCALL)
        try:
            if seg not in self.relay_segments:
                raise KernelError(
                    f"relay segment {seg.seg_id} is already freed")
            if seg.active_owner is not None:
                raise KernelError("cannot free an active relay segment")
            seg.revoked = True
            self.machine.memory.free_contiguous(seg.pa_base, seg.length)
            self.relay_segments.remove(seg)
        finally:
            core.trap_return()

    def revoke_relay_seg(self, seg: RelaySegment) -> None:
        """Control plane: revoke *seg* everywhere, immediately (§4.4).

        Marks the segment revoked, clears its active ownership, scrubs
        any seg-reg still windowing it, and drops it from every
        process's seg-list so it cannot be swapped back in.  Unlike
        :meth:`free_relay_seg` this is forced — it is the path for
        policy revocation and for reclaiming a dead process's segments;
        in-flight users observe the loss as a page fault.
        """
        seg.revoked = True
        seg.active_owner = None
        for thread in self.threads:
            window = thread.xpc.seg_reg
            if window.valid and window.segment is seg:
                thread.xpc.seg_reg = SEG_INVALID
        for process in self.processes:
            for slot, window in list(process.seg_list.segments()):
                if window.segment is seg:
                    process.seg_list.drop(slot)

    # ------------------------------------------------------------------
    # Recoverable XPC traps (§4.1 link-stack overflow, preemption)
    # ------------------------------------------------------------------
    def handle_link_overflow(self, core: Core, thread: Thread) -> int:
        """Trap handler for :class:`LinkStackOverflowError`.

        Spills the *bottom* half of the thread's link stack to kernel
        memory — the paper's §4.1 answer to the bounded 8 KB SRAM —
        freeing room so the faulting ``xcall`` can retry.  Returns the
        number of records spilled (0 means the stack is unspillable,
        e.g. capacity so small nothing is resident, and the caller must
        give up).
        """
        frame = (probe.frame(core, "kernel:link_spill") if probe.FRAME
                 else None)
        core.trap(TrapCause.XPC_EXCEPTION)
        stack = thread.xpc.link_stack
        spilled = stack.spill(max(1, stack.capacity // 2))
        core.tick(spilled * _LINK_SPILL_PER_RECORD)
        core.trap_return()
        if frame is not None:
            probe.frame_end(core, frame)
        if probe.METRIC:
            probe.metric("counter", "kernel.link_spills", 1, core.cycles)
            probe.metric("counter", "kernel.link_spilled_records",
                         spilled, core.cycles)
        return spilled

    def handle_link_underflow(self, core: Core, thread: Thread) -> int:
        """Trap handler for :class:`LinkStackUnderflowError`: refill the
        SRAM stack from the kernel spill area so the faulting ``xret``
        can retry.  Returns the number of records refilled."""
        frame = (probe.frame(core, "kernel:link_refill") if probe.FRAME
                 else None)
        core.trap(TrapCause.XPC_EXCEPTION)
        stack = thread.xpc.link_stack
        refilled = stack.unspill()
        core.tick(refilled * _LINK_SPILL_PER_RECORD)
        core.trap_return()
        if frame is not None:
            probe.frame_end(core, frame)
        if probe.METRIC:
            probe.metric("counter", "kernel.link_refills", 1, core.cycles)
        return refilled

    def preempt(self, core: Core) -> None:
        """A timer interrupt mid-call: trap, run a scheduler pass, and
        resume the same (migrated) thread.

        XPC's migrating-thread model means a preemption during a call
        is just a normal timer trap in the callee's context — nothing
        XPC-specific needs saving beyond what the trap already saves.
        """
        frame = probe.frame(core, "kernel:preempt") if probe.FRAME else None
        core.trap(TrapCause.TIMER)
        core.tick(self.params.sched_pick)
        core.trap_return()
        if frame is not None:
            probe.frame_end(core, frame)
        if probe.METRIC:
            probe.metric("counter", "kernel.preemptions", 1, core.cycles)

    # ------------------------------------------------------------------
    # Process termination (§4.2, §4.4)
    # ------------------------------------------------------------------
    def kill_process(self, process: Process, lazy: bool = True,
                     core: Optional[Core] = None) -> None:
        """Terminate *process*.

        ``lazy=True`` is the paper's optimization: zero the top-level page
        table and let later returns fault into the kernel; ``lazy=False``
        eagerly scans every link stack and invalidates the process's
        linkage records.  Either way the process's relay segments are
        revoked, with caller-owned segments left to their callers.

        When *core* is given the termination work is charged to it: a
        constant page-zero for the lazy path, a per-resident-record scan
        for the eager path — the asymmetry §4.2 argues for.
        """
        process.alive = False
        for thread in process.threads:
            thread.alive = False
            thread.sched.runnable = False
        mode = "lazy" if lazy else "eager"
        cost = _KILL_ZAP_CYCLES
        if lazy:
            process.aspace.page_table.zap()
        else:
            for thread in self.threads:
                cost += (thread.xpc.link_stack.depth
                         * _LINK_SCAN_PER_RECORD)
                thread.xpc.link_stack.invalidate_records_of(process.aspace)
        if core is not None:
            frame = (probe.frame(core, f"kernel:kill_{mode}")
                     if probe.FRAME else None)
            core.tick(cost)
            if frame is not None:
                probe.frame_end(core, frame)
        # Revoke the entries it served.
        for entry_id in list(process.xentries):
            entry = self.machine.xentry_table.peek(entry_id)
            if entry is not None:
                entry.valid = False
        # Segment revocation (§4.4): segments owned by the dead process
        # are revoked; a segment whose active owner is another (live)
        # thread stays with that caller.
        for _, window in list(process.seg_list.segments()):
            seg = window.segment
            owner = seg.active_owner
            if seg.owner_process is process and (
                    owner is None or getattr(owner, "process", None)
                    is process):
                self.revoke_relay_seg(seg)
        if probe.METRIC:
            probe.metric("counter", f"kernel.kills.{mode}", 1,
                         core.cycles if core is not None else None)
        for hook in self.death_hooks:
            hook(process)

    def repair_return(self, core: Core, thread: Thread):
        """Handle an ``xret`` that faulted on a dead-process record.

        Pops invalidated/dead linkage records until a live caller is
        found, then restores it and reports a timeout error to it —
        exactly the A→B→C recovery of §4.2.  Returns the restored record,
        or None if the whole chain is gone.
        """
        frame = (probe.frame(core, "kernel:repair_return") if probe.FRAME
                 else None)
        core.trap(TrapCause.XPC_EXCEPTION)
        stack = thread.xpc.link_stack
        restored = None
        while stack.depth:
            record = stack.peek()
            caller_dead = self._aspace_is_dead(record.caller_aspace)
            alive = (record.valid
                     and getattr(record.caller_thread, "alive", True)
                     and not caller_dead)
            if record.valid and caller_dead:
                # A lazily-killed caller: its record is intact, so the
                # return lands on the zapped page table and immediately
                # faults back into the kernel (§4.2's deferred cost).
                core.tick(self.params.trap_enter)
            # Pop the record regardless; hardware pop semantics.
            stack.force_pop()
            if probe.REPAIR:
                probe.repair(core, record, alive)
            if alive:
                restored = record
                break
        if restored is not None:
            restore_caller(thread.xpc, restored)
            core.set_address_space(restored.caller_aspace)
        core.trap_return()
        if probe.METRIC:
            probe.metric("counter", "kernel.repairs", 1, core.cycles)
        if frame is not None:
            probe.frame_end(core, frame)
        return restored

    def _aspace_is_dead(self, aspace: AddressSpace) -> bool:
        """Does *aspace* belong to a terminated process?"""
        for process in self.processes:
            if process.aspace is aspace:
                return not process.alive
        return False
