"""The Figure 9 scenario: surface compositor → window manager.

"The surface compositor will transfer the surface data to the window
manager through Binder, and then the window manager need to read the
surface data and draw the associated surface" (paper §5.5).  Two
facilities are measured: passing the surface through the transaction
buffer (Figure 9a, ≤ 16 KB) and through ashmem (Figure 9b, up to
32 MB).

The measured latency includes data preparation (client), the remote
method invocation and data transfer (framework), handling the surface
content (server, ``DRAW_PER_BYTE`` cycles/byte), and the reply.
"""

from __future__ import annotations

from typing import Tuple

from repro.hw.cpu import Core
from repro.kernel.process import Process, Thread
from repro.binder.framework import BinderFramework, BinderService
from repro.binder.parcel import Parcel

CODE_DRAW_BUFFER = 1
CODE_DRAW_ASHMEM = 2

#: Cycles/byte the window manager spends actually drawing a surface —
#: paid identically by every variant (it is the app's own work).
#: Small buffer-mode surfaces stay cache-resident (Figure 9a's flatter
#: slope); big ashmem surfaces stream from DRAM (Figure 9b's slope).
DRAW_PER_BYTE_CACHED = 0.10
DRAW_PER_BYTE = 0.22


class WindowManagerService(BinderService):
    """The Bn side: receives surfaces and 'draws' them."""

    def __init__(self, framework: BinderFramework, process: Process,
                 thread: Thread) -> None:
        super().__init__(framework, process, thread, "window")
        self.surfaces_drawn = 0
        self.bytes_drawn = 0
        self.last_checksum = 0

    def on_transact(self, code: int, data: Parcel) -> Parcel:
        core = self.framework.driver.kernel.handler_core
        if code == CODE_DRAW_BUFFER:
            surface = data.read_blob()
            draw_rate = DRAW_PER_BYTE_CACHED
        elif code == CODE_DRAW_ASHMEM:
            fd = self.translate_fd(data, data.read_fd())
            size = data.read_i64()
            surface = self._read_ashmem(core, fd, size)
            draw_rate = DRAW_PER_BYTE
        else:
            raise ValueError(f"unknown transaction code {code}")
        core.tick(int(len(surface) * draw_rate))
        self.surfaces_drawn += 1
        self.bytes_drawn += len(surface)
        self.last_checksum = sum(surface[::4096]) & 0xFFFF
        reply = Parcel()
        reply.write_i32(0)  # status OK
        reply.write_i32(self.last_checksum)
        return reply

    def _read_ashmem(self, core: Core, fd: int, size: int) -> bytes:
        ashmem = self.framework.driver.ashmem
        region = ashmem.region(self.process, fd)
        mem = self.framework.driver.kernel.machine.memory
        self.framework.ashmem_mmap(core, self.process, fd)
        if region.is_relay:
            # Relay-backed: single ownership makes in-place use safe.
            return mem.read(region.relay_seg.pa_base, size)
        # Conventional ashmem: copy out to defeat TOCTTOU (§4.3).
        data = mem.read(region.pa, size)
        core.tick(self.framework.params.copy_cycles(size))
        return data


class SurfaceCompositor:
    """The Bp side: prepares surfaces and sends them to the WM."""

    def __init__(self, framework: BinderFramework, core: Core,
                 thread: Thread) -> None:
        self.framework = framework
        self.core = core
        self.thread = thread
        self.proxy = framework.get_service(core, thread, "window")
        self._ashmem_fd = None
        self._ashmem_size = 0

    def send_via_buffer(self, surface: bytes) -> Tuple[int, int]:
        """Figure 9(a): surface rides in the transaction buffer."""
        data = Parcel()
        data.write_blob(surface)
        reply = self.framework.transact(
            self.core, self.thread, self.proxy.handle,
            CODE_DRAW_BUFFER, data)
        return reply.read_i32(), reply.read_i32()

    def send_via_ashmem(self, surface: bytes) -> Tuple[int, int]:
        """Figure 9(b): surface rides in an ashmem region."""
        fw = self.framework
        core, proc = self.core, self.thread.process
        if self._ashmem_fd is None or self._ashmem_size < len(surface):
            self._ashmem_fd = fw.ashmem_create(core, proc, len(surface))
            self._ashmem_size = len(surface)
            fw.ashmem_mmap(core, proc, self._ashmem_fd)
        region = fw.driver.ashmem.region(proc, self._ashmem_fd)
        mem = fw.driver.kernel.machine.memory
        pa = (region.relay_seg.pa_base if region.is_relay else region.pa)
        mem.write(pa, surface)  # the compositor renders into the region
        data = Parcel()
        data.write_fd(self._ashmem_fd)
        data.write_i64(len(surface))
        reply = fw.transact(self.core, self.thread, self.proxy.handle,
                            CODE_DRAW_ASHMEM, data)
        return reply.read_i32(), reply.read_i32()
