"""Relay segments: register-mapped, single-owner message memory (§3.3).

A :class:`RelaySegment` is a physically contiguous region created by the
kernel.  The per-thread ``seg-reg`` (:class:`SegReg`) maps a window of it
directly — VA range to PA range — with priority over the page table, so a
callee can read the caller's message with *zero* copies and *zero* TLB
shootdowns.  ``seg-mask`` (:class:`SegMask`) lets a caller shrink the
window before an ``xcall`` (the "sliding window" handover of §4.4);
``seg-list`` (:class:`SegList`) holds a process's inactive segments for
``swapseg``.

Ownership invariant (TOCTTOU defence, §3.3/§6.1): a relay segment is
*active* for at most one thread at any time; ``xcall`` moves the active
ownership down the call chain and ``xret`` moves it back.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Tuple

from repro.hw.paging import PagePerm
from repro.xpc.errors import InvalidSegMaskError, SwapSegError

SEG_LIST_SLOTS = 128  # one 4 KB page of 32-byte descriptors (§4.1)


class RelaySegment:
    """A kernel-created contiguous physical region used for messages.

    ``seg_id`` is assigned by the creating kernel (each kernel numbers
    its own segments from 1), so IDs are deterministic per machine and
    never leak across simulator instances or test runs.  A segment built
    directly — outside any kernel — gets the anonymous ID 0.
    """

    def __init__(self, pa_base: int, va_base: int, length: int,
                 perm: PagePerm = PagePerm.RW,
                 owner_process: object = None,
                 seg_id: int = 0) -> None:
        if length <= 0:
            raise ValueError("relay segment length must be positive")
        self.seg_id = seg_id
        self.pa_base = pa_base
        self.va_base = va_base
        self.length = length
        self.perm = perm
        self.owner_process = owner_process
        #: The single thread for which this segment is currently active.
        self.active_owner: object = None
        self.revoked = False

    def __repr__(self) -> str:
        return (f"RelaySegment(id={self.seg_id}, va={self.va_base:#x}, "
                f"pa={self.pa_base:#x}, len={self.length})")


class SegReg(NamedTuple):
    """The ``relay-seg`` register value: one directly-mapped window.

    ``INVALID`` (segment None) means no active relay segment.  An
    immutable value (equality, hashing and ``repr`` by field); the hot
    path builds it positionally with :data:`_new` and tests
    ``segment is not None and length > 0`` inline instead of
    :attr:`valid`.
    """

    segment: Optional[RelaySegment] = None
    va_base: int = 0
    pa_base: int = 0
    length: int = 0
    perm: PagePerm = PagePerm.NONE

    @property
    def valid(self) -> bool:
        return self.segment is not None and self.length > 0

    def contains(self, va: int, n: int = 1) -> bool:
        return (self.valid and va >= self.va_base
                and va + n <= self.va_base + self.length)

    def translate(self, va: int) -> int:
        return self.pa_base + (va - self.va_base)

    @classmethod
    def for_segment(cls, seg: RelaySegment) -> "SegReg":
        return cls(seg, seg.va_base, seg.pa_base, seg.length, seg.perm)


#: The invalid/empty seg-reg value.
SEG_INVALID = SegReg()


class SegMask(NamedTuple):
    """The ``seg-mask`` register: (offset, length) shrink of seg-reg."""

    offset: int = 0
    length: int = -1  # -1 = no mask (full window)

    @property
    def is_identity(self) -> bool:
        return self.offset == 0 and self.length < 0


#: Positional construction without the per-call frame of the generated
#: ``__new__``: ``_new(SegReg, (segment, va, pa, length, perm))``.
_new = tuple.__new__


def apply_mask(seg: SegReg, mask: SegMask) -> SegReg:
    """Intersect a seg-reg window with a mask (hardware, at xcall time).

    Raises :class:`InvalidSegMaskError` if the masked window escapes the
    seg-reg range — the paper's "Invalid seg-mask" exception.
    """
    offset, length = mask
    if ((offset == 0 and length < 0) or seg.segment is None
            or seg.length <= 0):
        return seg      # identity mask, or no window to shrink
    if offset < 0 or length < 0:
        raise InvalidSegMaskError("negative seg-mask field")
    if offset + length > seg.length:
        raise InvalidSegMaskError(
            f"mask [{offset}, +{length}) escapes window "
            f"of length {seg.length}"
        )
    return _new(SegReg, (seg.segment, seg.va_base + offset,
                         seg.pa_base + offset, length, seg.perm))


NO_MASK = SegMask()


class SegList:
    """Per-address-space list of inactive relay segments (``seg-listp``).

    ``swapseg #i`` atomically exchanges the current seg-reg with slot *i*;
    swapping in an empty slot parks the current segment and leaves seg-reg
    invalid (the paper's way to invalidate seg-reg).
    """

    def __init__(self, slots: int = SEG_LIST_SLOTS) -> None:
        self.slots = slots
        self._entries: List[Optional[SegReg]] = [None] * slots

    def store(self, index: int, seg: SegReg) -> None:
        """Kernel: park a window in slot *index*."""
        self._check_index(index)
        self._entries[index] = seg

    def peek(self, index: int) -> Optional[SegReg]:
        self._check_index(index)
        return self._entries[index]

    def swap(self, index: int, current: SegReg) -> SegReg:
        """Hardware ``swapseg``: exchange slot *index* with *current*."""
        self._check_index(index)
        incoming = self._entries[index]
        self._entries[index] = (current if current.segment is not None
                                and current.length > 0 else None)
        return incoming if incoming is not None else SEG_INVALID

    def segments(self) -> List[Tuple[int, SegReg]]:
        """The parked windows as ``(slot, window)`` pairs (kernel
        revocation, §4.4; the invariant catalogue)."""
        entries = self._entries
        if entries.count(None) == self.slots:   # empty: no Python loop
            return []
        return [(i, entry) for i, entry in enumerate(entries)
                if entry is not None and entry.length > 0]

    def drop(self, index: int) -> None:
        self._check_index(index)
        self._entries[index] = None

    def _check_index(self, index: int) -> None:
        if not 0 <= index < self.slots:
            raise SwapSegError(index, "seg-list index out of range")
