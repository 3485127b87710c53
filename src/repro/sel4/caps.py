"""seL4-style capability spaces.

seL4 "uses capabilities to manage all the kernel resources, including
IPC" (paper §2.2): every syscall names a slot in the caller's CSpace, and
the kernel validates the capability (type, rights) on the IPC fast path —
part of the 212-cycle "IPC logic" phase of Table 1.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.kernel.objects import KernelObject, Right


class CapError(Exception):
    """Capability lookup/permission failure (slow-path kernel fault)."""


class CapType(enum.Enum):
    ENDPOINT = "endpoint"
    NOTIFICATION = "notification"
    REPLY = "reply"
    UNTYPED = "untyped"
    FRAME = "frame"


@dataclass
class Capability:
    """One CSpace slot's contents."""

    ctype: CapType
    obj: KernelObject
    rights: Right = Right.ALL
    badge: int = 0

    def derive(self, rights: Right, badge: Optional[int] = None
               ) -> "Capability":
        """Mint a diminished copy (rights may only shrink)."""
        if int(rights) & ~int(self.rights):  # IntFlag ops are Python calls
            raise CapError("cannot amplify rights while minting")
        return Capability(self.ctype, self.obj, rights,
                          self.badge if badge is None else badge)


class CSpace:
    """A per-process capability table (slot -> Capability)."""

    def __init__(self, slots: int = 4096) -> None:
        self.slots = slots
        self._table: Dict[int, Capability] = {}
        self._next_slot = 1

    def insert(self, cap: Capability) -> int:
        if len(self._table) >= self.slots:
            raise CapError("CSpace full")
        slot = self._next_slot
        self._next_slot += 1
        self._table[slot] = cap
        return slot

    def lookup(self, slot: int, ctype: Optional[CapType] = None,
               need: Right = Right.NONE) -> Capability:
        """Fast-path capability fetch + validity check."""
        cap = self._table.get(slot)
        if cap is None:
            raise CapError(f"empty capability slot {slot}")
        if ctype is not None and cap.ctype is not ctype:
            raise CapError(
                f"slot {slot} holds a {cap.ctype.value} cap, "
                f"expected {ctype.value}"
            )
        if int(need) & ~int(cap.rights):  # IntFlag ops are Python calls
            raise CapError(f"slot {slot} lacks rights {need!r}")
        return cap

    def delete(self, slot: int) -> None:
        if slot not in self._table:
            raise CapError(f"delete of empty slot {slot}")
        del self._table[slot]

    def __len__(self) -> int:
        return len(self._table)
