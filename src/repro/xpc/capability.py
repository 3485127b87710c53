"""xcall-cap: the per-thread capability bitmap (paper §3.2).

Bit *i* set means the thread may ``xcall`` x-entry *i*.  The bitmap is a
real ``bytearray`` (128 bytes for the paper's 1024-entry table, §4.1),
maintained by the kernel (control plane) and tested by the hardware on
every ``xcall`` (data plane).
"""

from __future__ import annotations

from repro.xpc.errors import InvalidXCallCapError


class XCallCapBitmap:
    """A fixed-size capability bitmap backed by real bytes."""

    def __init__(self, nbits: int = 1024) -> None:
        if nbits <= 0 or nbits % 8:
            raise ValueError("bitmap size must be a positive multiple of 8")
        self.nbits = nbits
        self._bits = bytearray(nbits // 8)

    def _locate(self, entry_id: int) -> tuple:
        if not 0 <= entry_id < self.nbits:
            raise IndexError(f"x-entry id {entry_id} outside bitmap")
        return entry_id >> 3, 1 << (entry_id & 7)

    # Kernel (control plane) operations -----------------------------------
    def grant(self, entry_id: int) -> None:
        byte, mask = self._locate(entry_id)
        self._bits[byte] |= mask

    def revoke(self, entry_id: int) -> None:
        byte, mask = self._locate(entry_id)
        self._bits[byte] &= ~mask

    def clear(self) -> None:
        for i in range(len(self._bits)):
            self._bits[i] = 0

    # Hardware (data plane) operations -------------------------------------
    def test(self, entry_id: int) -> bool:
        byte, mask = self._locate(entry_id)
        return bool(self._bits[byte] & mask)

    def check(self, entry_id: int) -> None:
        """Hardware check during ``xcall``; raises on a cleared bit.

        An id past the bitmap has no bit to set, so it is refused the
        same way (never the control plane's ``IndexError``)."""
        if not (0 <= entry_id < self.nbits
                and self._bits[entry_id >> 3] & (1 << (entry_id & 7))):
            raise InvalidXCallCapError(entry_id)

    def granted_ids(self):
        """Iterate over every granted entry id (kernel bookkeeping)."""
        for entry_id in range(self.nbits):
            if self.test(entry_id):
                yield entry_id

    def copy(self) -> "XCallCapBitmap":
        dup = XCallCapBitmap(self.nbits)
        dup._bits[:] = self._bits
        return dup

    @property
    def raw(self) -> bytes:
        return bytes(self._bits)

    def __len__(self) -> int:
        return self.nbits
