"""The IPC-facing file-system server and its client library.

Matches the paper's microkernel FS architecture (§5.3): applications
talk to the **FS server**, which talks to the **block-device server**,
both across IPC.  One implementation runs on every kernel personality;
on an XPC transport the read path uses relay-window handover
(block-device DMA straight into the *client's* window, zero copies
end-to-end) and the write path absorbs data into the log once and
hands block images onward.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import repro.probe as probe
from repro.aio.pool import WorkerPool
from repro.ipc.transport import (Payload, RelayPayload, Transport,
                                 watched_op)
from repro.runtime.supervisor import GrantOnRestart
from repro.services.fs.blockdev import (BlockClient, BlockDeviceError,
                                        BlockServer, RamDisk)
from repro.services.fs.cache import BufferCache
from repro.services.fs.log import LogFullError
from repro.services.fs.xv6fs import FSError, T_DIR, T_FILE, Xv6FS

#: Per-request and per-block server-side logic costs (path resolution,
#: inode locking, request validation).
FS_LOGIC_CYCLES = 180
FS_PER_BLOCK_CYCLES = 400

OP_CREATE = "create"
OP_MKDIR = "mkdir"
OP_READ = "read"
OP_WRITE = "write"
OP_UNLINK = "unlink"
OP_STAT = "stat"
OP_LIST = "list"
OP_TRUNC = "trunc"
OP_FSYNC = "fsync"
OP_RENAME = "rename"


class FSServer:
    """xv6fs behind an IPC boundary, over a block-device *client*."""

    def __init__(self, transport: Transport, disk_client: BlockClient,
                 server_process, server_thread, name: str = "fs",
                 format_disk: bool = True) -> None:
        self.transport = transport
        self.disk_client = disk_client
        cache = BufferCache(disk_client)
        if format_disk:
            self.fs = Xv6FS.mkfs(cache)
        else:
            self.fs = Xv6FS(cache)
        cache.no_cache_from = self.fs.sb.datastart
        self.cache = cache
        self.params = transport.kernel.params
        self.sid = transport.register(
            name, self._handle, server_process, server_thread)

    @property
    def core(self):
        """The core running FS logic right now: the transport's home
        core synchronously, the worker's core inside a ring drain."""
        return self.transport.current_core

    # -- async front-end -----------------------------------------------
    def serve_async(self, cores: Sequence, name: str = "fs-aio",
                    **pool_kwargs) -> WorkerPool:
        """Batched front-end: a ring-drain worker pool over the same
        handler (XPC transports only).  Every worker thread — including
        supervisor-restarted generations — is granted the onward
        xcall-cap for the block device, so the zero-copy nested read
        path keeps working from inside a drain."""
        pool = WorkerPool(self.transport.kernel, self._handle, cores,
                          name=name, **pool_kwargs)
        blk_sid = self.disk_client.sid
        for worker in pool.workers:
            self.transport.grant_to_thread(
                blk_sid, worker.supervisor.thread(worker.service_name))
            worker.supervisor.on_restart.append(
                GrantOnRestart(self.transport, blk_sid,
                               worker.supervisor))
        return pool

    # ------------------------------------------------------------------
    def _handle(self, meta: tuple, payload: Payload):
        if probe.SPAN or probe.METRIC:
            return watched_op(self.core, "fs", self._dispatch,
                              meta, payload)
        return self._dispatch(meta[0], meta, payload)

    def _dispatch(self, op, meta: tuple, payload: Payload):
        self.core.tick(FS_LOGIC_CYCLES)
        try:
            if op == OP_CREATE:
                return (0, self.fs.create(meta[1], T_FILE)), None
            if op == OP_MKDIR:
                return (0, self.fs.create(meta[1], T_DIR)), None
            if op == OP_READ:
                return self._read(meta[1], meta[2], meta[3], payload)
            if op == OP_WRITE:
                data = payload.read(meta[3])
                self.core.tick(
                    FS_PER_BLOCK_CYCLES
                    * (1 + len(data) // self.fs.bsize))
                n = self.fs.write(meta[1], data, meta[2])
                return (0, n), None
            if op == OP_UNLINK:
                self.fs.unlink(meta[1])
                return (0,), None
            if op == OP_STAT:
                return (0,) + self.fs.stat(meta[1]), None
            if op == OP_LIST:
                names = self.fs.listdir(meta[1])
                blob = "\x00".join(names).encode()
                return (0, len(blob)), blob
            if op == OP_TRUNC:
                self.fs.truncate(meta[1])
                return (0,), None
            if op == OP_FSYNC:
                self.cache.flush()
                return (0,), None
            if op == OP_RENAME:
                self.fs.rename(meta[1], meta[2])
                return (0,), None
            return (-1, f"unknown fs op {op!r}"), None
        except (FSError, BlockDeviceError, LogFullError) as exc:
            # Device failures (including injected ones) are contained
            # at the server boundary: the client gets an error reply and
            # the write-ahead log retries its commit on the next op.
            return (-1, str(exc)), None

    # -- the read fast path ---------------------------------------------------
    def _read(self, path: str, off: int, n: int, payload: Payload):
        fs = self.fs
        ino = fs._namei(path)
        if n < 0:
            n = max(ino.size - off, 0)
        n = min(n, max(ino.size - off, 0))
        if n == 0:
            return (0, 0), b""
        self.core.tick(FS_PER_BLOCK_CYCLES * (1 + n // fs.bsize))
        if not isinstance(payload, RelayPayload):
            # Baseline: assemble reply bytes; the transport copies them.
            fs.log.begin_op()
            try:
                return (0, n), fs._readi(ino, off, n)
            finally:
                fs.log.end_op()
        # XPC: place every aligned block straight into the client's
        # window via relay handover; copy only the ragged edges.
        fs.log.begin_op()
        try:
            pos = off
            remaining = n
            while remaining > 0:
                bn = pos // fs.bsize
                boff = pos % fs.bsize
                chunk = min(remaining, fs.bsize - boff)
                dst = pos - off
                addr = fs._bmap(ino, bn, alloc=False)
                pending = fs.log._pending.get(addr)
                if (boff == 0 and chunk == fs.bsize and addr != 0
                        and pending is None and dst % fs.bsize == 0):
                    # Device writes the block into the window (zero-copy).
                    # window_slice translates the payload-relative dst
                    # into active-window coordinates — identical on the
                    # sync path, offset by the arena slot when batched.
                    self.fs.dev.dev.bread_into(
                        addr, payload.window_slice(dst, fs.bsize))
                else:
                    data = (b"\x00" * chunk if addr == 0 else
                            (pending or fs.dev.bread(addr)
                             )[boff:boff + chunk])
                    payload.write(data, dst)
                    self.core.tick(self.params.copy_cycles(len(data)))
                pos += chunk
                remaining -= chunk
        finally:
            fs.log.end_op()
        return (0, n), n  # reply is already in place


class FSClient:
    """Application-side stub for the FS server."""

    def __init__(self, transport: Transport, sid: Optional[int] = None,
                 name: str = "fs") -> None:
        self.transport = transport
        self.sid = sid if sid is not None else transport.lookup(name)

    def _call(self, meta, payload: bytes = b"", reply_capacity: int = 0
              ) -> Tuple[tuple, bytes]:
        reply_meta, data = self.transport.call(
            self.sid, meta, payload, reply_capacity=reply_capacity)
        if reply_meta[0] != 0:
            raise FSError(reply_meta[1] if len(reply_meta) > 1
                          else "fs error")
        return reply_meta, data

    def create(self, path: str) -> int:
        return self._call((OP_CREATE, path))[0][1]

    def mkdir(self, path: str) -> int:
        return self._call((OP_MKDIR, path))[0][1]

    def read(self, path: str, off: int = 0, n: int = -1) -> bytes:
        if n < 0:
            n = self.stat(path)[2] - off
        meta, data = self._call((OP_READ, path, off, n),
                                reply_capacity=n)
        return data[:meta[1]] if data else b""

    def write(self, path: str, data: bytes, off: int = 0) -> int:
        return self._call((OP_WRITE, path, off, len(data)), data)[0][1]

    def unlink(self, path: str) -> None:
        self._call((OP_UNLINK, path))

    def stat(self, path: str) -> Tuple[int, int, int]:
        meta = self._call((OP_STAT, path))[0]
        return meta[1], meta[2], meta[3]

    def listdir(self, path: str = "/") -> list:
        meta, blob = self._call((OP_LIST, path), reply_capacity=8192)
        blob = blob[:meta[1]]
        return blob.decode().split("\x00") if blob else []

    def truncate(self, path: str) -> None:
        self._call((OP_TRUNC, path))

    def fsync(self) -> None:
        self._call((OP_FSYNC,))

    def rename(self, old: str, new: str) -> None:
        self._call((OP_RENAME, old, new))

    def exists(self, path: str) -> bool:
        try:
            self.stat(path)
            return True
        except FSError:
            return False


def build_fs_stack(transport: Transport, kernel, disk_blocks: int = 4096,
                   ) -> Tuple[FSServer, FSClient, RamDisk]:
    """Wire the full two-server FS stack on *transport*.

    Creates the block-device server process and the FS server process,
    registers both services, grants the FS server the right to call the
    block device (server→server chain), formats the disk, and returns
    ``(fs_server, fs_client, ramdisk)``.
    """
    blk_proc = kernel.create_process("blockdev")
    blk_thread = kernel.create_thread(blk_proc)
    fs_proc = kernel.create_process("fsserver")
    fs_thread = kernel.create_thread(fs_proc)
    disk = RamDisk(disk_blocks)
    blk_server = BlockServer(transport, disk, blk_proc, blk_thread)
    transport.grant_to_thread(blk_server.sid, fs_thread)
    disk_client = BlockClient(transport, blk_server.sid)
    fs_server = FSServer(transport, disk_client, fs_proc, fs_thread)
    return fs_server, FSClient(transport, fs_server.sid), disk
