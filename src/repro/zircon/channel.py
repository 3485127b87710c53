"""Zircon-like channels and per-process handle tables.

Zircon IPC is asynchronous message passing over channel pairs: a
``channel_write`` copies the message from user space into a kernel
packet, a ``channel_read`` copies it out on the other side — the kernel
"twofold copy" of paper Figure 10(a) — and synchronous call semantics
(as Fuchsia's file system interfaces need) are *simulated* on top with a
wait per direction, which is why one round trip costs tens of thousands
of cycles (paper §1, §5.2).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Iterator, Optional, Tuple

from repro.kernel.objects import KernelObject, Right


class HandleError(Exception):
    """Bad handle, wrong type, or missing rights."""


@dataclass
class Message:
    """One kernel-buffered channel packet."""

    meta: tuple
    data: bytes
    handles: tuple = ()


class ChannelEnd(KernelObject):
    """One endpoint of a channel pair."""

    def __init__(self, koid: int, name: str = "") -> None:
        super().__init__(koid, name)
        self.peer: Optional["ChannelEnd"] = None
        self.queue: Deque[Message] = deque()
        self.closed = False

    def write(self, msg: Message) -> None:
        if self.peer is None or self.peer.closed:
            raise HandleError("peer closed")
        self.peer.queue.append(msg)

    def read(self) -> Message:
        if not self.queue:
            raise HandleError("channel empty (would block)")
        return self.queue.popleft()


def channel_create(koids: Iterator[int],
                   name: str = "chan") -> Tuple[ChannelEnd, ChannelEnd]:
    a = ChannelEnd(next(koids), f"{name}.a")
    b = ChannelEnd(next(koids), f"{name}.b")
    a.peer, b.peer = b, a
    return a, b


class HandleTable:
    """Per-process handle table (Zircon handle = index + rights)."""

    def __init__(self) -> None:
        self._table: Dict[int, Tuple[KernelObject, Right]] = {}
        self._next = 1

    def install(self, obj: KernelObject,
                rights: Right = Right.ALL) -> int:
        handle = self._next
        self._next += 1
        self._table[handle] = (obj, rights)
        return handle

    def get(self, handle: int, need: Right = Right.NONE) -> KernelObject:
        entry = self._table.get(handle)
        if entry is None:
            raise HandleError(f"bad handle {handle}")
        obj, rights = entry
        if int(need) & ~int(rights):  # IntFlag ops are Python calls
            raise HandleError(f"handle {handle} lacks rights {need!r}")
        return obj

    def close(self, handle: int) -> None:
        entry = self._table.pop(handle, None)
        if entry is None:
            raise HandleError(f"double close of handle {handle}")
        obj = entry[0]
        if isinstance(obj, ChannelEnd):
            obj.closed = True

    def close_keep_object(self, handle: int) -> None:
        """Remove the table entry without killing the object — the
        kernel uses this when a handle is moved through a channel."""
        if self._table.pop(handle, None) is None:
            raise HandleError(f"moving unknown handle {handle}")

    def __len__(self) -> int:
        return len(self._table)
