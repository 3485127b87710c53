"""The Linux Binder driver (/dev/binder) model (paper §4.3).

A Binder transaction goes client → driver → server:

1. the client's ``transact()`` issues an ioctl,
2. the driver copies the marshaled Parcel from user space
   (``copy_from_user``), resolves the target, queues the transaction,
   and wakes the server process (two domain switches),
3. the server side copies the data out (``copy_to_user``) and runs
   ``onTransact()``,
4. the reply retraces the same path.

That is the kernel "twofold copy" the paper eliminates with xcall/xret
and relay segments.  File descriptors embedded in a Parcel (ashmem) are
fixed up by the driver into the target's fd table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.hw.cpu import Core, TrapCause
from repro.kernel.kernel import BaseKernel, KernelError
from repro.kernel.process import Process, Thread
from repro.binder.ashmem import AshmemSubsystem
from repro.binder.parcel import Parcel

#: onTransact signature: (code, request parcel, fd map) -> reply parcel
OnTransact = Callable[[int, Parcel], Parcel]


@dataclass
class BinderNode:
    """A registered binder object (one per service)."""

    handle: int
    process: Process
    thread: Thread
    on_transact: OnTransact


class BinderDriver:
    """The baseline /dev/binder data plane."""

    name = "Binder"

    def __init__(self, kernel: BaseKernel) -> None:
        self.kernel = kernel
        self.params = kernel.params
        self.ashmem = AshmemSubsystem(kernel)
        self._nodes: Dict[int, BinderNode] = {}
        self._next_handle = 1
        self.transactions = 0
        #: Asynchronous (oneway) transactions queued per node.
        self._async_queues: Dict[int, list] = {}
        #: Death recipients: node handle -> list of callbacks.
        self._death_recipients: Dict[int, list] = {}
        self.obituaries_sent = 0
        kernel.death_hooks.append(self._on_process_death)

    # ------------------------------------------------------------------
    # Node management (used by the service manager)
    # ------------------------------------------------------------------
    def register_node(self, process: Process, thread: Thread,
                      on_transact: OnTransact) -> int:
        handle = self._next_handle
        self._next_handle += 1
        self._nodes[handle] = BinderNode(handle, process, thread,
                                         on_transact)
        return handle

    def node(self, handle: int) -> BinderNode:
        node = self._nodes.get(handle)
        if node is None:
            raise KernelError(f"bad binder handle {handle}")
        return node

    # ------------------------------------------------------------------
    # The transaction path
    # ------------------------------------------------------------------
    def transact(self, core: Core, client: Thread, handle: int,
                 code: int, data: Parcel) -> Parcel:
        """One full Binder transaction (request + reply)."""
        p = self.params
        node = self.node(handle)
        self.transactions += 1

        # --- client -> kernel ------------------------------------------
        core.trap(TrapCause.SYSCALL)
        core.tick(p.binder_ioctl + p.binder_txn_logic)
        raw = data.marshal()
        core.tick(p.copy_from_user_setup + p.copy_cycles(len(raw)))
        fd_map = self._fixup_fds(core, client.process, node.process, data)

        # --- wake the server, copy out ----------------------------------
        core.tick(p.binder_wakeup)
        core.set_address_space(node.process.aspace, charge=False)
        core.current_thread = node.thread
        core.tick(p.copy_to_user_setup + p.copy_cycles(len(raw)))
        core.trap_return()
        request = Parcel(raw)
        request.fd_map = fd_map  # translated fds for the receiver

        # --- server handler ---------------------------------------------
        reply = self._dispatch(core, node, code, request) or Parcel()

        # --- reply path (same shape back) --------------------------------
        core.trap(TrapCause.SYSCALL)
        core.tick(p.binder_ioctl)
        raw_reply = reply.marshal()
        core.tick(p.copy_from_user_setup + p.copy_cycles(len(raw_reply)))
        core.tick(p.binder_wakeup)
        core.set_address_space(client.process.aspace, charge=False)
        core.current_thread = client
        core.tick(p.copy_to_user_setup + p.copy_cycles(len(raw_reply)))
        core.trap_return()
        return Parcel(raw_reply)

    def _fixup_fds(self, core: Core, src: Process, dst: Process,
                   data: Parcel) -> Dict[int, int]:
        """Translate BINDER_TYPE_FD objects into the target process."""
        fd_map: Dict[int, int] = {}
        for fd in data.fds():
            fd_map[fd] = self.ashmem.dup_into(core, src, fd, dst)
        return fd_map

    # ------------------------------------------------------------------
    # Asynchronous (oneway) transactions
    # ------------------------------------------------------------------
    def transact_oneway(self, core: Core, client: Thread, handle: int,
                        code: int, data: Parcel) -> None:
        """``TF_ONE_WAY``: copy in, queue, return immediately.

        The client pays only the inbound half; the server side runs
        later via :meth:`deliver_async`.
        """
        p = self.params
        node = self.node(handle)
        self.transactions += 1
        core.trap(TrapCause.SYSCALL)
        core.tick(p.binder_ioctl + p.binder_txn_logic)
        raw = data.marshal()
        core.tick(p.copy_from_user_setup + p.copy_cycles(len(raw)))
        fd_map = self._fixup_fds(core, client.process, node.process,
                                 data)
        self._async_queues.setdefault(handle, []).append(
            (code, raw, fd_map))
        core.trap_return()

    def deliver_async(self, core: Core, handle: int) -> int:
        """Drain a node's oneway queue (the server's looper running).

        Returns the number of transactions delivered.
        """
        p = self.params
        node = self.node(handle)
        queue = self._async_queues.get(handle, [])
        delivered = 0
        while queue:
            code, raw, fd_map = queue.pop(0)
            core.tick(p.binder_wakeup)
            core.set_address_space(node.process.aspace, charge=False)
            core.current_thread = node.thread
            core.tick(p.copy_to_user_setup + p.copy_cycles(len(raw)))
            request = Parcel(raw)
            request.fd_map = fd_map
            self._dispatch(core, node, code, request)
            delivered += 1
        return delivered

    def _dispatch(self, core: Core, node: BinderNode, code: int,
                  request: Parcel) -> Optional[Parcel]:
        """Run ``onTransact`` on *core*, recording it as the kernel's
        handler core so the service charges its own work there."""
        kernel = self.kernel
        outer_core = kernel.handler_core
        kernel.handler_core = core
        try:
            return node.on_transact(code, request)
        finally:
            kernel.handler_core = outer_core

    def pending_async(self, handle: int) -> int:
        return len(self._async_queues.get(handle, []))

    # ------------------------------------------------------------------
    # Death notification (linkToDeath / obituaries)
    # ------------------------------------------------------------------
    def link_to_death(self, core: Core, handle: int,
                      recipient) -> None:
        """Register *recipient* (a callable taking the handle) to be
        notified when the node's hosting process dies."""
        self.node(handle)  # validate
        core.tick(self.params.binder_ioctl)
        self._death_recipients.setdefault(handle, []).append(recipient)

    def unlink_to_death(self, core: Core, handle: int,
                        recipient) -> None:
        try:
            self._death_recipients.get(handle, []).remove(recipient)
        except ValueError:
            raise KernelError("recipient was not linked") from None

    def _on_process_death(self, process: Process) -> None:
        """Kernel death hook: send obituaries for every hosted node."""
        for handle, node in list(self._nodes.items()):
            if node.process is not process:
                continue
            for recipient in self._death_recipients.pop(handle, []):
                recipient(handle)
                self.obituaries_sent += 1
            del self._nodes[handle]
            self._async_queues.pop(handle, None)
