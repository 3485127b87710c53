"""Set-associative TLB with optional ASID tagging.

The paper's RocketChip platform has an *untagged* TLB ("the RocketChip does
not support tagged TLB yet", §5.2), so every address-space switch flushes and
costs ~40 cycles of flush/refill penalty; the "+Tagged TLB" optimization in
Figure 5 removes that.  Both modes are modeled here.
"""

from __future__ import annotations

from collections import defaultdict
from typing import DefaultDict, Optional, Tuple

import repro.probe as probe
from repro.hw.memory import PAGE_SHIFT
from repro.hw.paging import PagePerm


class TLBStats:
    __slots__ = ("hits", "misses", "flushes")

    def __init__(self, hits: int = 0, misses: int = 0,
                 flushes: int = 0) -> None:
        self.hits = hits
        self.misses = misses
        self.flushes = flushes

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


class TLB:
    """LRU set-associative TLB.

    Entries map ``(asid, vpn)`` -> ``(ppn, perm)``.  In untagged mode the
    ASID field is ignored (always stored as 0) and :meth:`flush_all` must be
    called on every address-space switch.

    This sits on the simulator's hottest path (every memory access on a
    miss-heavy phase), so it is slotted and the lookup is flat: the key
    tuple is built inline rather than through :meth:`_key`.
    ``tests/hw/test_tlb_boundary.py`` pins its observable contract.
    """

    __slots__ = ("sets", "ways", "tagged", "_sets", "stats")

    def __init__(self, entries: int = 256, ways: int = 4,
                 tagged: bool = False) -> None:
        if entries % ways:
            raise ValueError("entries must divide evenly into ways")
        self.sets = entries // ways
        self.ways = ways
        self.tagged = tagged
        # Set index -> plain dict in LRU order (oldest first), created
        # on first touch — see the cache tag arrays for why: a flush is
        # one clear() and a snapshot copies only the touched sets, with
        # the same ordering semantics as a fixed list of OrderedDicts.
        self._sets: DefaultDict[int, dict] = defaultdict(dict)
        self.stats = TLBStats()

    def _key(self, vpn: int, asid: int) -> Tuple[int, int]:
        return (asid if self.tagged else 0, vpn)

    def lookup(self, va: int, asid: int) -> Optional[Tuple[int, PagePerm]]:
        vpn = va >> PAGE_SHIFT
        tset = self._sets[vpn % self.sets]
        key = (asid if self.tagged else 0, vpn)
        if probe.INJECT and probe.inject("hw.tlb.stale_entry") is not None:
            # Injected stale entry: drop the line before use so the
            # access misses and re-walks the page table.
            tset.pop(key, None)
        entry = tset.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        tset[key] = tset.pop(key)
        self.stats.hits += 1
        return entry

    def insert(self, va: int, asid: int, pa_page: int,
               perm: PagePerm) -> None:
        vpn = va >> PAGE_SHIFT
        tset = self._sets[vpn % self.sets]
        key = self._key(vpn, asid)
        if key in tset:
            del tset[key]
        elif len(tset) >= self.ways:
            del tset[next(iter(tset))]
        tset[key] = (pa_page, perm)

    def invalidate(self, va: int, asid: int) -> None:
        """Invalidate one translation (all ASIDs in untagged mode)."""
        vpn = va >> PAGE_SHIFT
        tset = self._sets[vpn % self.sets]
        tset.pop(self._key(vpn, asid), None)

    def flush_all(self) -> None:
        self._sets.clear()
        self.stats.flushes += 1

    def __deepcopy__(self, memo: dict) -> "TLB":
        """Entries map immutable ``(asid, vpn)`` to immutable
        ``(ppn, PagePerm)``, so snapshot deepcopies rebuild the
        touched sets with shallow per-set copies — same trick as the
        cache tag arrays, and for the same reason: generic dict
        reconstructions per TLB would dominate snapshot cost."""
        dup = TLB.__new__(TLB)
        memo[id(self)] = dup
        dup.sets = self.sets
        dup.ways = self.ways
        dup.tagged = self.tagged
        dup._sets = defaultdict(dict, {
            index: dict(tset) for index, tset in self._sets.items()})
        stats = self.stats
        dup.stats = TLBStats(stats.hits, stats.misses, stats.flushes)
        return dup

    def flush_asid(self, asid: int) -> None:
        if not self.tagged:
            self.flush_all()
            return
        for tset in self._sets.values():
            for key in [k for k in tset if k[0] == asid]:
                del tset[key]
        self.stats.flushes += 1
