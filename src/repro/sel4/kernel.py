"""The seL4-like kernel: fast-path / slow-path synchronous IPC.

Reproduces the IPC anatomy of paper §2.2 and Table 1:

* **fast path** (no scheduling): trap → IPC logic (capability fetch and
  checks) → process switch (dequeue callee, reply cap, address-space
  switch) → restore.  Taken when caller and callee share a priority and a
  core and the message fits in registers (≤ 32 B) or rides shared memory
  (> 120 B).
* **slow path**: messages between 32 B and 120 B go through the IPC
  buffer with scheduling allowed (a 64 B message measures 2182 cycles).
* **shared memory** (> 120 B): the evaluation's seL4-onecopy (client
  copies into the shared buffer; TOCTTOU-exposed) and seL4-twocopy
  (server copies out again; safe) variants.
* **cross-core**: never fast path ("the caller and callee are not on the
  same core" forces the slow path) — IPI + remote wakeup + scheduler.

Every call records a per-phase :class:`IPCBreakdown` so the Table 1
benchmark can print the same rows the paper does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.hw.cpu import Core, TrapCause
from repro.hw.paging import PagePerm
from repro.hw.memory import PAGE_SIZE
from repro.kernel.kernel import BaseKernel, KernelError
from repro.kernel.objects import Right
from repro.kernel.process import Process, Thread
from repro.sel4.caps import Capability, CapType, CSpace
from repro.sel4.endpoint import Endpoint

#: seL4 message-size regimes (paper §2.2 "IPC Logic").
MSG_REGISTERS_MAX = 32
MSG_IPCBUF_MAX = 120


@dataclass
class IPCBreakdown:
    """Cycles per fast-path phase, the paper's Table 1 rows."""

    trap: int = 0
    ipc_logic: int = 0
    process_switch: int = 0
    restore: int = 0
    transfer: int = 0
    path: str = "fast"

    @property
    def total(self) -> int:
        return (self.trap + self.ipc_logic + self.process_switch
                + self.restore + self.transfer)

    def rows(self):
        yield "Trap", self.trap
        yield "IPC Logic", self.ipc_logic
        yield "Process Switch", self.process_switch
        yield "Restore", self.restore
        yield "Message Transfer", self.transfer
        yield "Sum", self.total


class Sel4Kernel(BaseKernel):
    """seL4 personality on top of the common control plane."""

    def __init__(self, machine, name: str = "seL4") -> None:
        super().__init__(machine, name)
        self._cspaces: Dict[int, CSpace] = {}
        self._shared_bufs: Dict[Tuple[int, int], Tuple[int, int, int]] = {}
        self.last_breakdown: Optional[IPCBreakdown] = None
        self.last_oneway_cycles: int = 0
        #: Running total of message-transfer cycles (both directions),
        #: for the Figure 1(b) transfer-share measurement.
        self.transfer_cycles_total = 0

    # ------------------------------------------------------------------
    # CSpace / endpoint management
    # ------------------------------------------------------------------
    def cspace_of(self, process: Process) -> CSpace:
        cspace = self._cspaces.get(process.koid)
        if cspace is None:
            cspace = CSpace()
            self._cspaces[process.koid] = cspace
        return cspace

    def create_endpoint(self, process: Process, name: str = "") -> int:
        """Create an endpoint; returns its slot in *process*'s CSpace."""
        endpoint = Endpoint(next(self.koids), name)
        cap = Capability(CapType.ENDPOINT, endpoint, Right.ALL)
        return self.cspace_of(process).insert(cap)

    def mint_endpoint_cap(self, owner: Process, slot: int,
                          target: Process, rights: Right,
                          badge: int = 0) -> int:
        """Copy a diminished endpoint cap into *target*'s CSpace."""
        cap = self.cspace_of(owner).lookup(slot, CapType.ENDPOINT)
        return self.cspace_of(target).insert(cap.derive(rights, badge))

    def bind_endpoint(self, process: Process, slot: int,
                      server_thread: Thread, handler) -> Endpoint:
        cap = self.cspace_of(process).lookup(
            slot, CapType.ENDPOINT, Right.RECV
        )
        endpoint: Endpoint = cap.obj
        endpoint.bind(server_thread, handler)
        return endpoint

    # ------------------------------------------------------------------
    # Notifications (async signalling; seL4's other IPC object)
    # ------------------------------------------------------------------
    def create_notification(self, process: Process,
                            name: str = "") -> int:
        from repro.sel4.notification import Notification
        # The owner's cap carries badge 1 so an un-minted signal still
        # sets a bit (binary-semaphore behaviour).
        cap = Capability(CapType.NOTIFICATION,
                         Notification(next(self.koids), name),
                         Right.ALL, badge=1)
        return self.cspace_of(process).insert(cap)

    def mint_notification_cap(self, owner: Process, slot: int,
                              target: Process, rights: Right,
                              badge: int = 1) -> int:
        cap = self.cspace_of(owner).lookup(slot, CapType.NOTIFICATION)
        return self.cspace_of(target).insert(cap.derive(rights, badge))

    def signal(self, core: Core, thread: Thread, slot: int) -> None:
        """``seL4_Signal``: OR the cap badge into the word, wake."""
        from repro.sel4.notification import SIGNAL_LOGIC
        cap = self.cspace_of(thread.process).lookup(
            slot, CapType.NOTIFICATION, Right.SEND)
        core.trap(TrapCause.SYSCALL)
        core.tick(SIGNAL_LOGIC)
        waiter = cap.obj.do_signal(cap.badge)
        if waiter is not None:
            self.scheduler.enqueue(core, waiter)
        core.trap_return()

    def wait(self, core: Core, thread: Thread, slot: int) -> int:
        """``seL4_Wait``: consume the word (raises WouldBlock if 0)."""
        from repro.sel4.notification import WAIT_LOGIC
        cap = self.cspace_of(thread.process).lookup(
            slot, CapType.NOTIFICATION, Right.RECV)
        core.trap(TrapCause.SYSCALL)
        core.tick(WAIT_LOGIC)
        try:
            return cap.obj.do_wait(thread)
        finally:
            core.trap_return()

    def poll(self, core: Core, thread: Thread, slot: int) -> int:
        """``seL4_Poll``: non-blocking wait."""
        from repro.sel4.notification import WAIT_LOGIC
        cap = self.cspace_of(thread.process).lookup(
            slot, CapType.NOTIFICATION, Right.RECV)
        core.trap(TrapCause.SYSCALL)
        core.tick(WAIT_LOGIC)
        word = cap.obj.do_poll()
        core.trap_return()
        return word

    # ------------------------------------------------------------------
    # Shared-memory regions for long messages (>120 B)
    # ------------------------------------------------------------------
    def shared_buffer(self, a: Process, b: Process,
                      nbytes: int) -> Tuple[int, int, int]:
        """Map (lazily, growing) a shared buffer between two processes.

        Returns ``(va_in_a, va_in_b, pa)``.  Real pages are mapped into
        both page tables, exactly the user-level sharing the paper's
        seL4 evaluation uses for long messages.
        """
        key = (min(a.koid, b.koid), max(a.koid, b.koid))
        existing = self._shared_bufs.get(key)
        size = _round_up(nbytes)
        if existing is not None and existing[3] >= size:
            return existing[:3]
        if existing is not None:
            a.aspace.page_table.unmap_range(existing[0], existing[3])
            b.aspace.page_table.unmap_range(existing[1], existing[3])
            self.machine.memory.free_contiguous(existing[2], existing[3])
        pa = self.machine.memory.alloc_contiguous(size)
        va_a = a.aspace._va_cursor
        a.aspace._va_cursor += size + PAGE_SIZE
        a.aspace.page_table.map_range(va_a, pa, size, PagePerm.RW)
        va_b = b.aspace._va_cursor
        b.aspace._va_cursor += size + PAGE_SIZE
        b.aspace.page_table.map_range(va_b, pa, size, PagePerm.RW)
        self._shared_bufs[key] = (va_a, va_b, pa, size)
        return va_a, va_b, pa

    # ------------------------------------------------------------------
    # The IPC data plane
    # ------------------------------------------------------------------
    def ipc_call(self, core: Core, caller: Thread, slot: int,
                 meta: tuple = (), payload: bytes = b"",
                 reply_capacity: int = 0, copies: int = 2,
                 cross_core: bool = False) -> Tuple[tuple, bytes]:
        """``seL4_Call``: request + reply through an endpoint.

        *copies* selects the long-message variant: 1 = seL4-onecopy
        (in-place shared buffer on the server side), 2 = seL4-twocopy.
        """
        if copies not in (1, 2):
            raise KernelError("copies must be 1 or 2")
        cspace = self.cspace_of(caller.process)
        start = core.cycles
        cap = cspace.lookup(slot, CapType.ENDPOINT, Right.SEND)
        #: The badge of the invoked cap identifies the caller to the
        #: server (seL4's badged-endpoint idiom).
        self.last_badge = cap.badge
        endpoint: Endpoint = cap.obj
        if not endpoint.bound:
            raise KernelError(f"{endpoint} has no receiver")
        server = endpoint.server_thread
        n = len(payload)

        breakdown = self._send_phases(core, caller, server, n,
                                      cross_core=cross_core)
        payload_obj, reply_writer = self._transfer(
            core, caller, server, payload, breakdown, copies,
            reply_capacity, cross_core)
        self.last_oneway_cycles = core.cycles - start
        self.last_breakdown = breakdown
        self.ipc_stats["calls"] += 1
        self.ipc_stats["bytes"] += n

        # --- the server runs (callee context) --------------------------
        core.current_thread = server
        handler_start = core.cycles
        reply_meta, reply = endpoint.deliver(meta, payload_obj)
        handler_cycles = core.cycles - handler_start

        # --- reply direction -------------------------------------------
        if isinstance(reply, int):
            raise KernelError(
                "in-place (int) replies are an XPC-transport feature; "
                "seL4 handlers must return bytes or None"
            )
        reply_bytes = reply_writer(reply or b"")
        self._send_phases(core, server, caller, len(reply_bytes),
                          cross_core=cross_core)
        core.current_thread = caller
        core.set_address_space(caller.process.aspace, charge=False)
        self.last_mech_cycles = (core.cycles - start) - handler_cycles
        return reply_meta, reply_bytes

    # -- internals ---------------------------------------------------------
    def _send_phases(self, core: Core, src: Thread, dst: Thread,
                     nbytes: int, cross_core: bool) -> IPCBreakdown:
        """Charge the per-phase domain-switch costs of one IPC direction."""
        p = self.params
        scale = min(1.0, nbytes / 4096) if nbytes > MSG_REGISTERS_MAX else 0.0
        extra = {k: int(v * scale) for k, v in p.phase_4k_extra.items()}
        bd = IPCBreakdown(
            trap=p.trap_enter + extra["trap"],
            ipc_logic=p.ipc_logic + extra["ipc_logic"],
            process_switch=p.process_switch + extra["process_switch"],
            restore=p.trap_restore + extra["restore"],
        )
        # §2.2's slow-path conditions: different priorities, different
        # cores, or a register-overflowing but sub-buffer message.
        slow = (cross_core
                or src.sched.priority != dst.sched.priority
                or MSG_REGISTERS_MAX < nbytes <= MSG_IPCBUF_MAX)
        core.trap(TrapCause.SYSCALL)
        core.tick(bd.trap - p.trap_enter)  # extras beyond the base trap
        core.tick(bd.ipc_logic)
        if slow:
            bd.path = "slow"
            core.tick(p.slowpath_extra)
            self.scheduler.block(core, src)
            self.scheduler.enqueue(core, dst)
            picked = self.scheduler.pick_next(core)
            if picked is not None:
                self.scheduler.context_switch(core, picked)
        if cross_core:
            bd.path = "cross-core"
            core.tick(p.ipi_cost + p.remote_wakeup)
        core.tick(bd.process_switch)
        core.set_address_space(dst.process.aspace, charge=False)
        core.tick(bd.restore - p.trap_restore)
        core.trap_return()
        return bd

    def _transfer(self, core: Core, caller: Thread, server: Thread,
                  payload: bytes, breakdown: IPCBreakdown, copies: int,
                  reply_capacity: int, cross_core: bool):
        """Move the request payload; return (payload_obj, reply_writer)."""
        from repro.ipc.transport import CopiedPayload

        p = self.params
        n = len(payload)
        remote_factor = 2.0 if cross_core else 1.0

        def _charge(nbytes: int, request_side: bool) -> None:
            if nbytes:
                cost = int(p.copy_cycles(nbytes) * remote_factor)
                if request_side:
                    # last_breakdown reports the one-way (request)
                    # direction, matching Table 1's presentation.
                    breakdown.transfer += cost
                self.transfer_cycles_total += cost
                core.tick(cost)
                self.bytes_copied = getattr(self, "bytes_copied", 0) + nbytes

        def charge_copy(nbytes: int) -> None:
            _charge(nbytes, request_side=True)

        def charge_reply_copy(nbytes: int) -> None:
            _charge(nbytes, request_side=False)

        if n <= MSG_REGISTERS_MAX:
            payload_obj = CopiedPayload(payload, reply_capacity)

            def reply_writer(reply: bytes) -> bytes:
                if len(reply) > MSG_REGISTERS_MAX:
                    charge_reply_copy(len(reply) * copies)
                return reply
            return payload_obj, reply_writer

        if n <= MSG_IPCBUF_MAX:
            charge_copy(n)  # kernel copies through the IPC buffer
            payload_obj = CopiedPayload(payload, reply_capacity)

            def reply_writer(reply: bytes) -> bytes:
                charge_reply_copy(len(reply))
                return reply
            return payload_obj, reply_writer

        # Long message: user-level shared memory.
        size = max(n, reply_capacity)
        va_a, va_b, pa = self.shared_buffer(
            caller.process, server.process, size)
        # Client fills the shared buffer (copy #1, always needed: "the
        # data still needs to be copied to the shared memory at first").
        self.machine.memory.write(pa, payload)
        charge_copy(n)
        if copies == 2:
            charge_copy(n)  # server copies out to defeat TOCTTOU
        payload_obj = CopiedPayload(self.machine.memory.read(pa, n),
                                    reply_capacity)

        def reply_writer(reply: bytes) -> bytes:
            if reply:
                self.machine.memory.write(pa, reply)
                charge_reply_copy(len(reply))
                if copies == 2:
                    charge_reply_copy(len(reply))
            return reply
        return payload_obj, reply_writer


def _round_up(nbytes: int) -> int:
    return (nbytes + PAGE_SIZE - 1) & ~(PAGE_SIZE - 1)
