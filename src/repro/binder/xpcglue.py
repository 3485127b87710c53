"""XPC-optimized Binder (paper §4.3, Figure 4).

Two variants, matching Figure 9's lines:

* :class:`XPCBinderFramework` ("Binder-XPC") — the driver is extended
  with ``add_x-entry`` / ``set_xcap`` management commands, and the
  framework's ``transact()`` uses ``xcall``/``xret`` with Parcels
  implemented on a relay segment.  Domain switches through the kernel
  and the twofold copy are gone; the API is unchanged.
* :class:`AshmemXPCFramework` ("Ashmem-XPC") — only ashmem is
  optimized: transactions still take the baseline ioctl path, but
  ashmem regions are backed by relay segments, so the receiver needs no
  TOCTTOU copy.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.hw.cpu import Core
from repro.kernel.kernel import BaseKernel, KernelError
from repro.kernel.process import Process, Thread
from repro.binder.driver import BinderDriver
from repro.binder.framework import BinderFramework, BinderService
from repro.binder.parcel import Parcel
from repro.runtime.xpclib import XPCService, xpc_call


class XPCBinderDriver(BinderDriver):
    """Binder driver with the XPC management ioctls (§4.3)."""

    name = "Binder-XPC-driver"

    def __init__(self, kernel: BaseKernel) -> None:
        super().__init__(kernel)
        #: handle -> XPCService (the registered x-entry per node)
        self.x_entries: Dict[int, XPCService] = {}

    def add_x_entry(self, core: Core, handle: int,
                    service: XPCService) -> None:
        """ioctl ADD_X_ENTRY issued by the framework at addService."""
        self.x_entries[handle] = service

    def set_xcap(self, core: Core, handle: int, client: Thread) -> None:
        """ioctl SET_XCAP issued by the framework at getService."""
        service = self.x_entries.get(handle)
        if service is None:
            raise KernelError(f"handle {handle} has no x-entry")
        node = self.node(handle)
        self.kernel.grant_xcall_cap(
            core, node.process, client, service.entry_id)

    def fixup_fds_xpc(self, src: Process, dst: Process,
                      data: Parcel) -> Dict[int, int]:
        """FD fixup without driver copies: relay-backed regions move by
        seg-reg transfer, so only the table entry is duplicated."""
        fd_map: Dict[int, int] = {}
        for fd in data.fds():
            region = self.ashmem.region(src, fd)
            new_fd = self.ashmem._alloc_fd(dst)
            self.ashmem._table(dst)[new_fd] = region
            fd_map[fd] = new_fd
        return fd_map


class XPCBinderFramework(BinderFramework):
    """Binder-XPC: xcall/xret transactions + relay-seg Parcels."""

    name = "Binder-XPC"

    def __init__(self, driver: XPCBinderDriver,
                 seg_bytes: int = 64 * 1024) -> None:
        super().__init__(driver)
        self.driver: XPCBinderDriver
        self._client_segs: Dict[int, tuple] = {}
        self._seg_bytes = seg_bytes

    # -- registration ------------------------------------------------------
    def add_service(self, core: Core, service: BinderService) -> int:
        handle = super().add_service(core, service)
        mem = self.driver.kernel.machine.memory

        def xpc_handler(call):
            used, code, fd_map = call.args
            raw = mem.read(call.window.pa_base, used) if used else b""
            request = Parcel(raw)
            request.fd_map = fd_map
            reply = service.on_transact(code, request) or Parcel()
            raw_reply = reply.marshal()
            if len(raw_reply) > call.window.length:
                raise KernelError("reply exceeds the relay window")
            if raw_reply:
                mem.write(call.window.pa_base, raw_reply)
            return len(raw_reply)

        self.driver.kernel.run_thread(core, service.thread)
        xpc_service = XPCService(
            self.driver.kernel, core, service.thread, xpc_handler,
            max_contexts=8, name=f"binder:{service.name}",
        )
        self.driver.add_x_entry(core, handle, xpc_service)
        return handle

    def get_service(self, core: Core, client: Thread, name: str):
        proxy = super().get_service(core, client, name)
        self.driver.set_xcap(core, proxy.handle, client)
        return proxy

    # -- the XPC data plane --------------------------------------------------
    def _ensure_seg(self, core: Core, client: Thread, nbytes: int):
        needed = max(nbytes, 4096)
        entry = self._client_segs.get(client.koid)
        if entry is not None and entry[0].length >= needed:
            return entry[0]
        kernel = self.driver.kernel
        if entry is not None:
            old_seg, old_slot = entry
            kernel.deactivate_relay_seg(client)
            client.process.seg_list.drop(old_slot)
            kernel.free_relay_seg(core, old_seg)
        size = max(needed, self._seg_bytes)
        seg, slot = kernel.create_relay_seg(core, client.process, size)
        client.process.seg_list.drop(slot)
        kernel.install_relay_seg(client, seg)
        self._client_segs[client.koid] = (seg, slot)
        return seg

    def transact(self, core: Core, client: Thread, handle: int,
                 code: int, data: Parcel) -> Parcel:
        p = self.params
        driver: XPCBinderDriver = self.driver
        service = driver.x_entries.get(handle)
        if service is None:
            raise KernelError(f"handle {handle} has no x-entry")
        node = driver.node(handle)
        driver.transactions += 1
        driver.kernel.run_thread(core, client)
        core.tick(p.binder_xpc_framework)

        raw = data.marshal()
        seg = self._ensure_seg(core, client, len(raw))
        mem = driver.kernel.machine.memory
        if raw:
            # Parcels are built directly in the relay segment.
            mem.write(seg.pa_base, raw)
        core.tick(int(len(raw) * p.parcel_relay_per_byte))
        fd_map = driver.fixup_fds_xpc(client.process, node.process, data)

        reply_len = xpc_call(core, service.entry_id, len(raw), code,
                             fd_map, kernel=driver.kernel)
        raw_reply = mem.read(seg.pa_base, reply_len) if reply_len else b""
        core.tick(int(len(raw_reply) * p.parcel_relay_per_byte))
        return Parcel(raw_reply)

    # -- ashmem over relay segments -------------------------------------------
    def ashmem_create(self, core: Core, process: Process,
                      size: int) -> int:
        return self.driver.ashmem.create(core, process, size,
                                         use_relay=True)


class AshmemXPCFramework(BinderFramework):
    """Ashmem-XPC: baseline transactions, relay-backed ashmem only."""

    name = "Ashmem-XPC"

    def ashmem_create(self, core: Core, process: Process,
                      size: int) -> int:
        return self.driver.ashmem.create(core, process, size,
                                         use_relay=True)
