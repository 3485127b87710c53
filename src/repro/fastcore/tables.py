"""Precomputed cycle tables: one ``CycleParams`` folded flat.

The reference engine charges cycles one ``tick()`` at a time as it
walks its state machines.  A :class:`CycleTable` adds those ticks up
*once*, at construction, for every path the hot loop can take:

====================  =====================================================
field                 reference tick sequence it folds
====================  =====================================================
``captest``           engine xcall floor (cap bit test + redirect),
                      ``XCALL_CAPTEST_FLOOR`` (plus any seeded-bug
                      perturbation, see :attr:`perturb_captest_extra`)
``xcall``             captest + x-entry fetch + linkage-record push
``xret``              ``params.xret_base`` (return-time §3.3 check folded
                      into the instruction, per paper Table 3)
``as_switch``         address-space switch: TLB flush when untagged,
                      ``asid_switch`` when tagged
``tramp``             user trampoline (full or partial context) + XPC
                      context-stack switch
``seg_mask``          ``csrw seg-mask`` (``SEG_MASK_WRITE``)
``swapseg``           ``params.swapseg``
``call_ok``           seg-mask write + xcall + AS switch + trampoline +
                      xret + AS switch — one full successful round trip,
                      excluding relay fill and handler work
``call_refused``      seg-mask write + captest-fail floor (denied cap or
                      invalid/zapped x-entry)
``register_xentry``   trap + REGISTER_LOGIC + restore
``grant``             trap + GRANT_LOGIC + restore
``kill``              KILL_ZAP_CYCLES (lazy zap; eager adds
                      LINK_SCAN_PER_RECORD per resident record — zero at
                      op boundaries)
``preempt``           trap + sched_pick + restore
``repair``            §4.2 repair_return with a live caller: trap + AS
                      switch back to the caller + restore
``thief_body``        relay-seg grab inside a thief handler: 4 KB seg
                      create + swapseg
``nested_scratch``    swapseg out + swapseg back around a scratch-seg
                      nested call
====================  =====================================================

Tables are cached per ``(params-fingerprint, config)`` so repeated
executor construction (every fuzz program builds a fresh fleet) reuses
the same folded sums.  The fingerprint includes
:attr:`CycleTable.perturb_captest_extra` so the seeded-bug hook takes
effect on the next build even when the params are otherwise cached.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.params import (CycleParams, DEFAULT_PARAMS, GRANT_LOGIC,
                          KILL_ZAP_CYCLES, REGISTER_LOGIC,
                          SEG_CREATE_PER_PAGE, SEG_MASK_WRITE,
                          XCALL_CAPTEST_FLOOR)

PAGE_BYTES = 4096


class CycleTable:
    """Flat per-path cycle sums for one ``(CycleParams, hw config)``."""

    __slots__ = (
        "params", "tagged", "partial", "nonblock", "cache",
        "captest", "xentry", "link", "xcall", "xret", "as_switch",
        "tramp", "seg_mask", "swapseg",
        "call_ok", "call_refused",
        "register_xentry", "grant", "kill", "preempt", "repair",
        "thief_body", "nested_scratch",
        "seg_create_4k", "seg_create_default",
    )

    #: Seeded-bug hook: extra cycles folded into the captest phase of
    #: every table built afterwards.  The equivalence gate must catch a
    #: perturbation of +1 (tests/proptest/test_fastcore_seeded_bug.py).
    perturb_captest_extra = 0

    def __init__(self, params: CycleParams, tagged: bool = False,
                 partial: bool = False, nonblock: bool = True,
                 cache: bool = False) -> None:
        self.params = params
        self.tagged = tagged
        self.partial = partial
        self.nonblock = nonblock
        self.cache = cache

        p = params
        self.captest = XCALL_CAPTEST_FLOOR + type(self).perturb_captest_extra
        self.xentry = p.xentry_cache_hit if cache else p.xentry_load
        self.link = p.link_push_nonblocking if nonblock else p.link_push
        self.xcall = self.captest + self.xentry + self.link
        self.xret = p.xret_base
        self.as_switch = p.asid_switch if tagged else p.tlb_flush
        self.tramp = (p.trampoline_partial_ctx if partial
                      else p.trampoline_full_ctx) + p.cstack_switch
        self.seg_mask = SEG_MASK_WRITE
        self.swapseg = p.swapseg

        self.call_ok = (self.seg_mask + self.xcall + self.as_switch
                        + self.tramp + self.xret + self.as_switch)
        self.call_refused = self.seg_mask + self.captest

        self.register_xentry = p.trap_enter + REGISTER_LOGIC + p.trap_restore
        self.grant = p.trap_enter + GRANT_LOGIC + p.trap_restore
        self.kill = KILL_ZAP_CYCLES
        self.preempt = p.trap_enter + p.sched_pick + p.trap_restore
        self.repair = p.trap_enter + self.as_switch + p.trap_restore
        self.seg_create_4k = self.seg_create(PAGE_BYTES)
        self.seg_create_default = self.seg_create(64 * 1024)
        self.thief_body = self.seg_create_4k + self.swapseg
        self.nested_scratch = 2 * self.swapseg

    # ------------------------------------------------------------------
    # Size-dependent paths (kept as tiny closed forms, not tables).
    # ------------------------------------------------------------------
    def fill(self, nbytes: int) -> int:
        """Relay-window fill cost for producing *nbytes* in place."""
        return int(nbytes * self.params.relay_fill_per_byte)

    def copy(self, nbytes: int) -> int:
        """Cross-segment memcpy (scratch-seg chain hop)."""
        return self.params.copy_cycles(nbytes)

    def seg_create(self, nbytes: int) -> int:
        """``create_relay_seg`` syscall: trap + per-page zap + restore."""
        pages = -(-max(nbytes, 1) // PAGE_BYTES)
        return (self.params.trap_enter + pages * SEG_CREATE_PER_PAGE
                + self.params.trap_restore)

    # ------------------------------------------------------------------
    # Fig. 5 ladder (one-way xcall -> handler entry, excluding the
    # context-stack switch the benchmark subtracts out).
    # ------------------------------------------------------------------
    def oneway(self) -> int:
        """xcall-to-handler-start cycles for this table's configuration."""
        return (self.captest + self.xentry + self.link + self.as_switch
                + self.tramp - self.params.cstack_switch)

    def roundtrip(self) -> int:
        """Full request/response engine cycles (``call_ok`` sans mask)."""
        return self.call_ok - self.seg_mask


_CACHE: Dict[Tuple, CycleTable] = {}
_CACHE_MAX = 64

#: CycleParams fields the table actually folds; the cache fingerprint
#: covers exactly these, so clones differing only in unrelated fields
#: (e.g. Binder costs) share one table.
_PARAM_FIELDS = (
    "tlb_flush", "asid_switch", "xret_base", "swapseg", "xentry_load",
    "xentry_cache_hit", "link_push", "link_push_nonblocking",
    "trampoline_full_ctx", "trampoline_partial_ctx", "cstack_switch",
    "trap_enter", "trap_restore", "sched_pick", "relay_fill_per_byte",
    "copy_setup", "copy_per_byte", "copy_per_byte_bulk",
    "copy_bulk_threshold",
)


def cycle_table(params: CycleParams = DEFAULT_PARAMS, tagged: bool = False,
                partial: bool = False, nonblock: bool = True,
                cache: bool = False) -> CycleTable:
    """Return a (cached) :class:`CycleTable` for *params* + config."""
    key = tuple(getattr(params, f) for f in _PARAM_FIELDS) + (
        tagged, partial, nonblock, cache,
        CycleTable.perturb_captest_extra,
    )
    table = _CACHE.get(key)
    if table is None:
        if len(_CACHE) >= _CACHE_MAX:
            _CACHE.clear()
        table = CycleTable(params, tagged=tagged, partial=partial,
                           nonblock=nonblock, cache=cache)
        _CACHE[key] = table
    return table
