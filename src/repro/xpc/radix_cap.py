"""Scalable xcall-cap: the radix-tree alternative of paper §6.2.

"xcall-cap is implemented as a bitmap in our prototype.  It is
efficient but may have scalability issue.  An alternative approach is
to use a radix-tree, which has better scalability but will increase
the memory footprint and affect the IPC performance."

This module implements that alternative so the ablation benchmark can
quantify the trade-off: the radix walk costs one memory access per
level on check, while the bitmap is a single bit test; the radix tree
only materializes nodes for granted ranges, so sparse capability sets
over huge ID spaces stay small.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.xpc.errors import InvalidXCallCapError

RADIX_BITS = 6                      # 64-way fan-out per level
RADIX_FANOUT = 1 << RADIX_BITS


class RadixCapTable:
    """xcall-cap as a radix tree over the x-entry ID space."""

    #: Cycles per level of the hardware walk (one memory access each;
    #: the bitmap equivalent is CycleParams.cap_bitmap_check = 2).
    WALK_CYCLES_PER_LEVEL = 12

    def __init__(self, id_bits: int = 18) -> None:
        if id_bits <= 0:
            raise ValueError("id space must be non-empty")
        self.id_bits = id_bits
        self.levels = (id_bits + RADIX_BITS - 1) // RADIX_BITS
        self.nbits = 1 << id_bits
        self._root: Dict = {}
        self._count = 0

    def _indices(self, entry_id: int):
        if not 0 <= entry_id < self.nbits:
            raise IndexError(f"x-entry id {entry_id} outside id space")
        for level in range(self.levels - 1, -1, -1):
            yield (entry_id >> (level * RADIX_BITS)) & (RADIX_FANOUT - 1)

    # -- kernel (control plane) --------------------------------------------
    def grant(self, entry_id: int) -> None:
        node = self._root
        *inner, last = list(self._indices(entry_id))
        for index in inner:
            node = node.setdefault(index, {})
        if not node.get(last):
            self._count += 1
        node[last] = True

    def revoke(self, entry_id: int) -> None:
        node = self._root
        *inner, last = list(self._indices(entry_id))
        for index in inner:
            node = node.get(index)
            if node is None:
                return
        if node.pop(last, False):
            self._count -= 1

    def clear(self) -> None:
        self._root = {}
        self._count = 0

    # -- hardware (data plane) -----------------------------------------------
    def test(self, entry_id: int) -> bool:
        node = self._root
        *inner, last = list(self._indices(entry_id))
        for index in inner:
            node = node.get(index)
            if node is None:
                return False
        return bool(node.get(last, False))

    def check(self, entry_id: int) -> None:
        """Hardware check; an id outside the id space is refused like a
        missing grant (never the control plane's ``IndexError``)."""
        if not (0 <= entry_id < self.nbits and self.test(entry_id)):
            raise InvalidXCallCapError(entry_id)

    def check_cycles(self) -> int:
        """Hardware cost of one capability check (the walk)."""
        return self.levels * self.WALK_CYCLES_PER_LEVEL

    def granted_ids(self):
        def walk(node, prefix, level):
            for index, child in sorted(node.items()):
                entry = (prefix << RADIX_BITS) | index
                if level == self.levels - 1:
                    if child:
                        yield entry
                else:
                    yield from walk(child, entry, level + 1)
        yield from walk(self._root, 0, 0)

    def memory_bytes(self) -> int:
        """Approximate footprint: one 64-entry node = 512 B."""
        def count_nodes(node, level):
            if level == self.levels - 1:
                return 1
            return 1 + sum(count_nodes(child, level + 1)
                           for child in node.values())
        if not self._root:
            return 512
        return 512 * count_nodes(self._root, 0)

    def __len__(self) -> int:
        return self.nbits
