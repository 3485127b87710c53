"""The per-thread link stack of linkage records (paper §3.2).

``xcall`` pushes a linkage record — everything user space cannot recover
by itself: the caller's page-table pointer, return address, xcall-cap-reg,
seg-list-reg, relay segment window and mask, and a valid bit.  ``xret``
pops and validates it.  The kernel walks link stacks when a process dies
to invalidate its records (§4.2 Application Termination).

The stack is bounded (8 KB SRAM, §4.1).  Overflow is a *recoverable
resource trap*, not a security violation: push raises
:class:`LinkStackOverflowError`, the kernel spills the bottom of the
stack to kernel memory (:meth:`LinkStack.spill`) and the xcall retries.
Symmetrically, an ``xret`` that drains the SRAM portion while spilled
records remain raises :class:`LinkStackUnderflowError` and the kernel
refills (:meth:`LinkStack.unspill`).  Forged or stale xrets keep raising
:class:`InvalidLinkageError`.

The *non-blocking* variant lets the engine retire ``xcall`` before the
record write completes ("save the linkage record lazily", §3.2), hiding
16 cycles; functionally the record is identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import repro.probe as probe
from repro.hw.paging import AddressSpace
from repro.xpc.errors import (InvalidLinkageError, LinkStackOverflowError,
                              LinkStackUnderflowError)
from repro.xpc.relayseg import SegMask, SegReg

#: 8 KB per-thread stack (§4.1) over ~16-byte-per-field records.
DEFAULT_CAPACITY = 512


@dataclass
class LinkageRecord:
    """One frame of the calling chain."""

    caller_aspace: AddressSpace
    caller_state: object            # caller's xcall-cap-reg (thread state)
    caller_thread: object
    seg_reg: SegReg                 # caller's seg-reg at call time
    seg_mask: SegMask               # caller's seg-mask at call time
    passed_seg: SegReg              # window actually handed to the callee
    callee_entry_id: int
    caller_seg_list: object = None  # caller's seg-list-reg (§3.2)
    valid: bool = True
    return_token: object = None     # opaque continuation for the runtime
    obs_span: object = None         # open obs span this record will close


class LinkStack:
    """Bounded LIFO of linkage records, one per thread.

    ``_records`` models the on-chip SRAM portion; ``_spilled`` models
    the kernel-memory overflow area (bottom of the logical stack).  All
    introspection (``records``, ``depth``, iteration) presents the
    *logical* stack — spilled bottom first — so the kernel's
    death-walk and the verify invariants see every frame.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity <= 0:
            raise ValueError("link stack capacity must be positive")
        self.capacity = capacity
        self._records: List[LinkageRecord] = []
        self._spilled: List[LinkageRecord] = []
        #: Deepest logical depth ever reached (PMU level counter).
        self.high_watermark = 0

    def push(self, record: LinkageRecord) -> None:
        records = self._records
        if len(records) >= self.capacity or (
                probe.INJECT
                and probe.inject("xpc.linkstack.overflow") is not None):
            raise LinkStackOverflowError(depth=self.depth,
                                         capacity=self.capacity)
        records.append(record)
        depth = len(records) + len(self._spilled)
        if depth > self.high_watermark:
            self.high_watermark = depth

    def pop(self) -> LinkageRecord:
        """Pop and validity-check the top record (hardware, at xret)."""
        if not self._records:
            if self._spilled:
                raise LinkStackUnderflowError(spilled=len(self._spilled))
            raise InvalidLinkageError("xret with empty link stack")
        record = self._records.pop()
        if not record.valid:
            raise InvalidLinkageError(
                "xret to an invalidated linkage record"
            )
        return record

    def peek(self) -> Optional[LinkageRecord]:
        if self._records:
            return self._records[-1]
        return self._spilled[-1] if self._spilled else None

    @property
    def records(self) -> tuple:
        """Read-only view of the logical stack, bottom to top
        (introspection for the kernel and :mod:`repro.verify`; hardware
        never exposes this)."""
        return tuple(self._spilled + self._records)

    def force_pop(self) -> Optional[LinkageRecord]:
        """Pop without the validity check (kernel repair path, §4.2).

        Unlike :meth:`pop` this never raises: the kernel walking a chain
        of dead records wants the record either way.  The kernel may
        reach through into the spilled area directly — it owns that
        memory anyway.
        """
        if self._records:
            return self._records.pop()
        return self._spilled.pop() if self._spilled else None

    # -- kernel spill area (§4.1 overflow recovery) -------------------

    def spill(self, count: int) -> int:
        """Move the bottom *count* SRAM records to kernel memory,
        freeing SRAM slots so the faulting xcall can retry.  Returns
        the number of records actually spilled."""
        count = min(count, len(self._records))
        if count > 0:
            self._spilled.extend(self._records[:count])
            del self._records[:count]
        return count

    def unspill(self, count: Optional[int] = None) -> int:
        """Refill SRAM from kernel memory (kernel, on underflow).

        Moves up to *count* records (default: as many as fit) from the
        top of the spill area back to the *bottom* of SRAM, preserving
        logical order.  Returns the number refilled."""
        room = self.capacity - len(self._records)
        count = room if count is None else min(count, room)
        count = min(count, len(self._spilled))
        if count > 0:
            self._records[:0] = self._spilled[-count:]
            del self._spilled[-count:]
        return count

    def invalidate_records_of(self, aspace: AddressSpace) -> int:
        """Kernel scan: mark every record of a dead process invalid.

        Matches by page-table pointer, as §4.2 describes; covers the
        spilled area too — dead frames do not resurrect on unspill.
        Returns the number of records invalidated.
        """
        count = 0
        for record in self._spilled + self._records:
            if record.caller_aspace is aspace and record.valid:
                record.valid = False
                count += 1
        return count

    @property
    def depth(self) -> int:
        """Logical depth (SRAM + spilled)."""
        return len(self._records) + len(self._spilled)

    @property
    def live_depth(self) -> int:
        """Records resident in SRAM (bounded by ``capacity``)."""
        return len(self._records)

    @property
    def spilled_depth(self) -> int:
        return len(self._spilled)

    def __iter__(self):
        return iter(self._spilled + self._records)
