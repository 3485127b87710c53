"""The Zircon-like kernel personality.

Synchronous call semantics are layered over async channels exactly the
way Fuchsia's FIDL does it: write request → wake server → server reads,
handles, writes reply → wake client → client reads.  Every direction
pays a syscall, a handle-table check, a kernel copy, and a port-wait
wake-up with scheduler involvement — Zircon "does not optimize the
scheduling in the IPC path" (paper §5.2).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.hw.cpu import Core, TrapCause
from repro.kernel.kernel import BaseKernel, KernelError
from repro.kernel.objects import Right
from repro.kernel.process import Process, Thread
from repro.zircon.channel import (
    ChannelEnd, HandleTable, Message, channel_create,
)


class ZirconKernel(BaseKernel):
    """Zircon personality on top of the common control plane."""

    def __init__(self, machine, name: str = "Zircon") -> None:
        super().__init__(machine, name)
        self._handles: Dict[int, HandleTable] = {}
        self.last_oneway_cycles = 0

    def handle_table(self, process: Process) -> HandleTable:
        table = self._handles.get(process.koid)
        if table is None:
            table = HandleTable()
            self._handles[process.koid] = table
        return table

    # ------------------------------------------------------------------
    # Channel syscalls
    # ------------------------------------------------------------------
    def create_channel(self, a: Process, b: Process,
                       name: str = "chan") -> Tuple[int, int]:
        """Create a channel pair; returns (handle_in_a, handle_in_b)."""
        end_a, end_b = channel_create(self.koids, name)
        return (self.handle_table(a).install(end_a),
                self.handle_table(b).install(end_b))

    def channel_write(self, core: Core, thread: Thread, handle: int,
                      msg: Message) -> None:
        """``zx_channel_write``: trap + handle check + copy in.

        Handles listed in ``msg.handles`` are *moved*: removed from the
        sender's table, carried as kernel objects, and re-installed in
        the receiver's table at read time (Zircon's handle transfer).
        """
        p = self.params
        core.trap(TrapCause.SYSCALL)
        core.tick(p.zircon_syscall + p.zircon_handle_check)
        end = self.handle_table(thread.process).get(
            handle, Right.WRITE)
        if not isinstance(end, ChannelEnd):
            raise KernelError("handle is not a channel")
        table = self.handle_table(thread.process)
        moved = []
        for sent_handle in msg.handles:
            obj = table.get(sent_handle)   # validates before the move
            core.tick(p.zircon_handle_check)
            table.close_keep_object(sent_handle)
            moved.append(obj)
        core.tick(p.copy_from_user_setup + p.copy_cycles(len(msg.data)))
        end.write(Message(msg.meta, msg.data, tuple(moved)))
        core.trap_return()

    def channel_read(self, core: Core, thread: Thread,
                     handle: int) -> Message:
        """``zx_channel_read``: trap + handle check + copy out.

        Transferred handles are installed into the reader's table; the
        returned message's ``handles`` are the *new* handle values.
        """
        p = self.params
        core.trap(TrapCause.SYSCALL)
        core.tick(p.zircon_syscall + p.zircon_handle_check)
        end = self.handle_table(thread.process).get(handle, Right.READ)
        if not isinstance(end, ChannelEnd):
            raise KernelError("handle is not a channel")
        msg = end.read()
        table = self.handle_table(thread.process)
        installed = tuple(table.install(obj) for obj in msg.handles)
        if installed:
            core.tick(p.zircon_handle_check * len(installed))
        core.tick(p.copy_to_user_setup + p.copy_cycles(len(msg.data)))
        core.trap_return()
        return Message(msg.meta, msg.data, installed)

    def port_wait_wakeup(self, core: Core, sleeper: Thread,
                         waker: Thread, cross_core: bool = False) -> None:
        """Block on a port and get woken: the expensive part of the
        simulated-synchronous pattern (scheduler round trip included)."""
        p = self.params
        core.tick(p.zircon_port_wait)
        self.scheduler.block(core, waker)
        self.scheduler.enqueue(core, sleeper)
        picked = self.scheduler.pick_next(core)
        if picked is not None:
            self.scheduler.context_switch(core, picked)
        if cross_core:
            core.tick(p.ipi_cost + p.remote_wakeup)

    # ------------------------------------------------------------------
    # Synchronous call emulation (FIDL-style)
    # ------------------------------------------------------------------
    def sync_call(self, core: Core, client: Thread, server: Thread,
                  client_handle: int, server_handle: int,
                  handler, meta: tuple, payload: bytes,
                  cross_core: bool = False) -> Tuple[tuple, bytes]:
        """One simulated-synchronous round trip over a channel pair."""
        from repro.ipc.transport import CopiedPayload

        start = core.cycles
        self.channel_write(core, client, client_handle,
                           Message(meta, payload))
        self.port_wait_wakeup(core, server, client, cross_core)
        request = self.channel_read(core, server, server_handle)
        self.last_oneway_cycles = core.cycles - start
        self.ipc_stats["calls"] += 1
        self.ipc_stats["bytes"] += len(payload)

        core.current_thread = server
        core.set_address_space(server.process.aspace, charge=False)
        handler_start = core.cycles
        reply_meta, reply = handler(
            request.meta, CopiedPayload(request.data))
        handler_cycles = core.cycles - handler_start
        if isinstance(reply, int):
            raise KernelError(
                "in-place (int) replies are an XPC-transport feature"
            )
        reply = reply or b""

        self.channel_write(core, server, server_handle,
                           Message(reply_meta, reply))
        self.port_wait_wakeup(core, client, server, cross_core)
        response = self.channel_read(core, client, client_handle)
        core.current_thread = client
        core.set_address_space(client.process.aspace, charge=False)
        self.last_mech_cycles = (core.cycles - start) - handler_cycles
        return response.meta, response.data
