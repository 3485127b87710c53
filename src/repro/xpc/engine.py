"""The per-core XPC engine: ``xcall``, ``xret``, ``swapseg`` (paper §3.2).

The engine is a unit of the core.  It holds the per-thread architectural
registers (installed by the kernel on context switch), performs the four
``xcall`` microcode steps from the paper —

  1. test the caller's xcall-cap bit,
  2. load + validity-check the target x-entry (optionally via the engine
     cache),
  3. push a linkage record onto the link stack (optionally non-blocking),
  4. switch the page-table pointer and jump to the entrance —

and the symmetric ``xret`` pop/validate/restore, including the relay-seg
integrity check of §3.3.  Cycle costs follow Table 3 and Figure 5:
``xcall`` is 34 cycles with a blocking link stack and a DRAM x-entry load,
18 with the non-blocking stack, and 6 with an engine-cache hit on top;
``xret`` is 23 and ``swapseg`` 11.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import repro.probe as probe
from repro.hw.cpu import Core
from repro.hw.paging import PagePerm
from repro.params import SEG_MASK_WRITE, XCALL_CAPTEST_FLOOR
from repro.xpc.capability import XCallCapBitmap
from repro.xpc.engine_cache import XPCEngineCache
from repro.xpc.entry import XEntry, XEntryTable
from repro.xpc.errors import (
    InvalidLinkageError, InvalidSegMaskError, XPCError,
)
from repro.xpc.linkstack import LinkageRecord, LinkStack
from repro.xpc.relayseg import (
    NO_MASK, SEG_INVALID, RelaySegment, SegList, SegMask, SegReg,
    apply_mask,
)


@dataclass
class XPCConfig:
    """Engine feature knobs (the optimization ladder of Figure 5)."""

    nonblocking_linkstack: bool = True
    engine_cache: bool = False
    engine_cache_entries: int = 1
    engine_cache_tagged: bool = False


@dataclass
class XPCThreadState:
    """Per-thread XPC architectural state (switched by the kernel, §4.1).

    ``cap_bitmap`` is what ``xcall-cap-reg`` points at; it doubles as the
    runtime-state identifier for the split thread state of §4.2.
    """

    cap_bitmap: XCallCapBitmap
    link_stack: LinkStack
    seg_reg: SegReg = SEG_INVALID
    seg_mask: SegMask = NO_MASK
    seg_list: Optional[SegList] = None


def restore_caller(state: XPCThreadState,
                   record: LinkageRecord) -> Optional[RelaySegment]:
    """Re-install *record*'s caller: the one restore step of ``xret``
    and the kernel's §4.2 repair.  Never re-installs a revoked window
    (§4.4); releases the window the callee left and hands the restored
    one back to the caller thread (§3.3).  Charges and announces
    nothing; returns the restored segment."""
    restored = record.seg_reg
    restored_seg = restored.segment if restored.length > 0 else None
    if restored_seg is not None and restored_seg.revoked:
        restored = SEG_INVALID
        restored_seg = None
    left = state.seg_reg
    if left.length > 0 and left.segment is not restored_seg:
        left.segment.active_owner = None
    state.seg_reg = restored
    state.seg_mask = record.seg_mask
    state.cap_bitmap = record.caller_state
    if record.caller_seg_list is not None:
        state.seg_list = record.caller_seg_list
    if restored_seg is not None:
        restored_seg.active_owner = record.caller_thread
    return restored_seg


@dataclass
class XPCEngineStats:
    xcalls: int = 0
    xrets: int = 0
    swapsegs: int = 0
    prefetches: int = 0
    exceptions: int = 0
    seg_bytes_passed: int = 0
    #: Relay-seg windows actually handed across (valid passed_seg).
    seg_transfers: int = 0
    #: seg-mask writes that shrink the window (non-identity masks).
    seg_shrinks: int = 0
    #: Cycles the engine charged executing xcall / xret microcode.
    #: Always-on bookkeeping (no obs session needed) so the PMU's
    #: derived ``xcall.cycles`` can be checked against the per-phase
    #: event counters — the Figure 5 decomposition invariant.
    xcall_cycles: int = 0
    xret_cycles: int = 0


class XPCEngine:
    """One core's XPC engine."""

    #: TEST HOOK — when truthy (set class-wide or per instance) ``xret``
    #: skips the §3.3 return-time relay-seg integrity check.  It exists
    #: only so the differential fuzzer can demonstrate that it would
    #: catch an engine shipping without the check
    #: (``tests/proptest/test_seeded_bugs.py``); production code never
    #: sets it.
    unsafe_skip_return_check = False

    #: TEST HOOK — seeded perf regression for the repro.prof sentry.
    #: When ``regress_captest_extra`` is nonzero (set per instance),
    #: every xcall after the first ``regress_captest_after`` charges
    #: that many extra captest cycles, modelling a silent cap-test
    #: slowdown landing mid-trace.  The sentry's job
    #: (``repro.prof.sentry``) is to bisect a recorded run to the exact
    #: op where this fires and name the phase in a flame-tree diff;
    #: production code never sets it.
    regress_captest_extra = 0
    regress_captest_after = 0

    def __init__(self, core: Core, table: XEntryTable,
                 config: Optional[XPCConfig] = None) -> None:
        self.core = core
        self.table = table
        self.config = config or XPCConfig()
        self.params = core.params
        self.cache = (
            XPCEngineCache(table, self.config.engine_cache_entries,
                           self.config.engine_cache_tagged)
            if self.config.engine_cache else None
        )
        self.state: Optional[XPCThreadState] = None
        self.current_thread = None
        #: caller-identity register (t0 in the paper): the caller's
        #: xcall-cap-reg value, set by hardware, unforgeable.
        self.caller_id_reg: Optional[XCallCapBitmap] = None
        self.stats = XPCEngineStats()
        #: ``(seg_reg, seg_mask, window)`` from the last validated
        #: ``csrw seg-mask``: the next xcall reuses the window while
        #: both registers still hold those very values.
        self._mask_latch: Optional[Tuple[SegReg, SegMask, SegReg]] = None
        core.xpc_engine = self

    # ------------------------------------------------------------------
    # Kernel interface (context switch)
    # ------------------------------------------------------------------
    def bind(self, thread, state: XPCThreadState) -> None:
        """Install *thread*'s XPC registers (kernel, on context switch)."""
        self.current_thread = thread
        self.state = state

    def unbind(self) -> None:
        self.current_thread = None
        self.state = None

    # ------------------------------------------------------------------
    # Translation hook (seg-reg has priority over the page table)
    # ------------------------------------------------------------------
    def seg_translate(self, va: int, access: PagePerm) -> Optional[int]:
        state = self.state
        if state is None:
            return None
        seg = state.seg_reg
        segment = seg.segment
        if segment is None or seg.length <= 0:
            return None
        if segment.revoked:
            # A revoked segment no longer translates (§4.4): the access
            # falls through to the page table and faults there.
            return None
        va_base = seg.va_base
        if not va_base <= va < va_base + seg.length:
            return None
        if not seg.perm & access:
            return None
        return seg.pa_base + (va - va_base)

    # ------------------------------------------------------------------
    # seg-mask / swapseg
    # ------------------------------------------------------------------
    def write_seg_mask(self, mask: SegMask) -> None:
        """``csrw seg-mask`` — validated against the current window."""
        state = self.state
        if state is None:
            raise XPCError("no thread bound to the XPC engine")
        if not (mask.offset == 0 and mask.length < 0):
            # Validation at write time (Table 2: "Invalid seg-mask").
            seg_reg = state.seg_reg
            self._mask_latch = (seg_reg, mask, apply_mask(seg_reg, mask))
            self.stats.seg_shrinks += 1
        state.seg_mask = mask
        self.core.tick(SEG_MASK_WRITE)

    def swapseg(self, index: int) -> None:
        """``swapseg #reg`` — exchange seg-reg with a seg-list slot."""
        state = self._require_state()
        if state.seg_list is None:
            raise XPCError("no seg-list installed (seg-listp is null)")
        outgoing = state.seg_reg
        out_seg = outgoing.segment if outgoing.length > 0 else None
        if out_seg is not None:
            out_seg.active_owner = None
            if probe.HANDOFF:
                probe.handoff(out_seg, "relay-seg", "swapseg-out")
        incoming = state.seg_list.swap(index, outgoing)
        seg = incoming.segment if incoming.length > 0 else None
        if seg is not None:
            if seg.active_owner not in (None, self.current_thread):
                # Undo the swap and trap: the kernel's one-active-owner
                # invariant (§3.3) would be violated.
                state.seg_list.swap(index, incoming)
                if out_seg is not None:
                    out_seg.active_owner = self.current_thread
                raise XPCError(
                    "relay segment is active on another thread/core"
                )
            seg.active_owner = self.current_thread
            if probe.HANDOFF:
                probe.handoff(seg, "relay-seg", "swapseg-in")
        state.seg_reg = incoming
        state.seg_mask = NO_MASK
        self.stats.swapsegs += 1
        if probe.SWAPSEG:
            probe.swapseg(self.core, index)
        self.core.tick(self.params.swapseg)

    # ------------------------------------------------------------------
    # xcall / xret
    # ------------------------------------------------------------------
    def prefetch(self, entry_id: int) -> None:
        """``xcall`` with a negative ID prefetches ``-ID`` (§4.1)."""
        if self.cache is None:
            return
        self.cache.prefetch(entry_id, self.current_thread)
        self.stats.prefetches += 1
        self.core.tick(self.params.xentry_load)

    def xcall(self, entry_id: int) -> Tuple[XEntry, SegReg]:
        """Execute ``xcall #reg``; returns (entry, window passed).

        The runtime library is responsible for actually running the
        handler (the engine only redirects the PC); any XPCError raised
        here is delivered to the kernel as an exception.
        """
        state = self.state
        if state is None:
            raise XPCError("no thread bound to the XPC engine")
        if entry_id < 0:
            self.prefetch(-entry_id)
            raise XPCError("prefetch pseudo-call does not transfer control")
        core = self.core
        params = self.params
        stats = self.stats
        cycles = XCALL_CAPTEST_FLOOR
        if self.regress_captest_extra:
            self._regress_seq = getattr(self, "_regress_seq", 0) + 1
            if self._regress_seq > self.regress_captest_after:
                cycles += self.regress_captest_extra
        captest_cycles = cycles
        xentry_cycles = 0
        try:
            # 1. capability check
            state.cap_bitmap.check(entry_id)
            # 2. x-entry load (engine cache first)
            entry = None
            if self.cache is not None:
                entry = self.cache.lookup(entry_id, self.current_thread)
            if entry is None:
                entry = self.table.load(entry_id)
                xentry_cycles = params.xentry_load
            else:
                xentry_cycles = params.xentry_cache_hit
            cycles += xentry_cycles
        except XPCError:
            stats.exceptions += 1
            self._account_xcall(cycles, xentry_cycles, 0)
            core.tick(cycles)
            raise
        # 3. linkage record push (non-blocking hides the store latency)
        seg_reg = state.seg_reg
        seg_mask = state.seg_mask
        latch = self._mask_latch
        if (latch is not None and latch[0] is seg_reg
                and latch[1] is seg_mask):
            passed_seg = latch[2]     # validated by write_seg_mask
        else:
            passed_seg = apply_mask(seg_reg, seg_mask)
        thread = self.current_thread
        record = LinkageRecord(
            caller_aspace=core.aspace,
            caller_state=state.cap_bitmap,
            caller_thread=thread,
            seg_reg=seg_reg,
            seg_mask=seg_mask,
            passed_seg=passed_seg,
            callee_entry_id=entry_id,
            caller_seg_list=state.seg_list,
        )
        try:
            state.link_stack.push(record)
        except XPCError:
            # Link-stack overflow: a recoverable resource trap (§4.1).
            # Charge the cycles spent so far and report to the kernel,
            # which spills and lets the runtime retry the xcall.
            stats.exceptions += 1
            self._account_xcall(cycles, xentry_cycles, 0)
            core.tick(cycles)
            raise
        if probe.ACCESS:
            probe.access(core, state.link_stack, "link-stack",
                         "xpc.engine.xcall.push", "write")
        linkpush_cycles = (params.link_push_nonblocking
                           if self.config.nonblocking_linkstack
                           else params.link_push)
        cycles += linkpush_cycles
        stats.xcall_cycles += cycles
        if probe.PHASE:
            # This tick is the xcall's lump charge (see _account_xcall).
            probe.phase(core, (("phase:captest", captest_cycles),
                               ("phase:xentry", xentry_cycles),
                               ("phase:linkpush", linkpush_cycles)))
        core.tick(cycles)
        # 4. page-table pointer + PC switch (TLB cost charged by the core)
        seg = passed_seg.segment
        if seg is not None and passed_seg.length > 0:
            if seg.active_owner not in (None, thread):
                raise XPCError(
                    "relay segment active on another thread "
                    "(kernel single-owner invariant violated)"
                )
            seg.active_owner = thread
            stats.seg_bytes_passed += passed_seg.length
            stats.seg_transfers += 1
            if probe.HANDOFF:
                probe.handoff(seg, "relay-seg", "xcall")
        self.caller_id_reg = state.cap_bitmap
        state.seg_reg = passed_seg
        state.seg_mask = NO_MASK
        if entry.callee_state is not None:
            state.cap_bitmap = entry.callee_state
        owner = entry.owner_process
        if owner is not None and getattr(owner, "seg_list", None) is not None:
            state.seg_list = owner.seg_list
        core.set_address_space(entry.aspace)
        entry.invocations += 1
        stats.xcalls += 1
        if probe.XCALL:
            probe.xcall(core, record)
        return entry, passed_seg

    def xret(self) -> LinkageRecord:
        """Execute ``xret``: pop, validate, restore the caller."""
        state = self.state
        if state is None:
            raise XPCError("no thread bound to the XPC engine")
        core = self.core
        xret_base = self.params.xret_base
        self.stats.xret_cycles += xret_base
        if probe.PHASE:
            probe.phase(core, (("phase:xret", xret_base),))
        core.tick(xret_base)
        try:
            record = state.link_stack.pop()
        except XPCError:
            self.stats.exceptions += 1
            raise
        if probe.ACCESS:
            probe.access(core, state.link_stack, "link-stack",
                         "xpc.engine.xret.pop", "write")
        # Relay-seg integrity: the callee must return exactly the window
        # it was handed (§3.3 "Return a relay-seg").  A window the kernel
        # revoked mid-call (§4.4) is exempt: revocation scrubs seg-reg
        # underneath the callee, which is the kernel's doing, not theft.
        passed = record.passed_seg
        passed_seg = passed.segment if passed.length > 0 else None
        if (not self.unsafe_skip_return_check
                and state.seg_reg != passed and not (
                    passed_seg is not None and passed_seg.revoked)):
            self.stats.exceptions += 1
            # Put the record back: the kernel will repair the chain.
            record.valid = True
            state.link_stack.push(record)
            raise InvalidLinkageError(
                "seg-reg does not match the window saved in the linkage "
                "record (possible relay-seg theft)"
            )
        restored_seg = restore_caller(state, record)
        if restored_seg is not None and probe.HANDOFF:
            probe.handoff(restored_seg, "relay-seg", "xret")
        if (probe.HANDOFF and passed_seg is not None
                and passed_seg is not restored_seg):
            probe.handoff(passed_seg, "relay-seg", "xret")
        core.set_address_space(record.caller_aspace)
        self.stats.xrets += 1
        if probe.XRET:
            probe.xret(core, record)
        return record

    # ------------------------------------------------------------------
    def _account_xcall(self, cycles: int, xentry_cycles: int,
                       linkpush_cycles: int) -> None:
        """Record one trapped xcall's Fig. 5 phase decomposition
        (captest + xentry + linkpush == cycles); a completed xcall does
        the same inline.  Pure accounting — the caller charges the clock
        (single-charger discipline)."""
        self.stats.xcall_cycles += cycles
        if probe.PHASE:
            # The caller's next tick is this xcall's lump charge.
            probe.phase(self.core, (
                ("phase:captest", cycles - xentry_cycles - linkpush_cycles),
                ("phase:xentry", xentry_cycles),
                ("phase:linkpush", linkpush_cycles)))

    # ------------------------------------------------------------------
    def _require_state(self) -> XPCThreadState:
        if self.state is None:
            raise XPCError("no thread bound to the XPC engine")
        return self.state
