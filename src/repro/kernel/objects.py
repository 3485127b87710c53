"""Generic kernel objects and access rights."""

from __future__ import annotations

import enum


class Right(enum.IntFlag):
    """Access rights attached to capabilities/handles."""

    NONE = 0
    READ = 1
    WRITE = 2
    SEND = 4
    RECV = 8
    GRANT = 16
    ALL = READ | WRITE | SEND | RECV | GRANT


class KernelObject:
    """Base class for anything a capability or handle can point at.

    Its koid comes from the kernel that creates it (``BaseKernel.koids``),
    so koids are unique within one kernel, as in Zircon, and a rebuilt
    or restored world mints the same ones.
    """

    def __init__(self, koid: int, name: str = "") -> None:
        self.koid = koid
        self.name = name or f"{type(self).__name__}-{koid}"

    def __repr__(self) -> str:
        return f"<{type(self).__name__} koid={self.koid} {self.name!r}>"
