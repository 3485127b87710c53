"""The XPC engine cache (paper §3.2 "XPC Engine Cache").

A tiny software-managed cache in front of the x-entry table.  The paper's
prototype holds **one entry** and relies on software prefetch (an
``xcall`` with a negative ID prefetches ``-ID``, §4.1) and eviction; a hit
saves the 12-cycle x-entry load from DRAM (Figure 5).  Entries can be
tagged per-thread to mitigate timing side channels (§6.1).
"""

from __future__ import annotations

from typing import Optional, Tuple

import repro.probe as probe
from repro.xpc.entry import XEntry, XEntryTable


class XPCEngineCache:
    """A 1..N entry, software-managed x-entry cache with prefetch.

    Slotted: it is probed on every xcall when enabled.
    ``tests/xpc/test_engine_cache_boundary.py`` pins its hit/miss/
    evict/flush contract.
    """

    __slots__ = ("table", "entries", "tagged", "_lines", "hits", "misses")

    def __init__(self, table: XEntryTable, entries: int = 1,
                 tagged: bool = False) -> None:
        if entries <= 0:
            raise ValueError("engine cache needs at least one entry")
        self.table = table
        self.entries = entries
        self.tagged = tagged
        self._lines: list[Optional[Tuple[object, int, XEntry]]] = (
            [None] * entries
        )
        self.hits = 0
        self.misses = 0

    def _tag(self, thread: object) -> object:
        return thread if self.tagged else None

    def prefetch(self, entry_id: int, thread: object = None) -> None:
        """Software prefetch: load entry into the cache ahead of the call."""
        entry = self.table.load(entry_id)
        victim = (entry_id % self.entries)
        self._lines[victim] = (self._tag(thread), entry_id, entry)

    def lookup(self, entry_id: int,
               thread: object = None) -> Optional[XEntry]:
        """Return the cached entry, or None on miss."""
        if (probe.INJECT
                and probe.inject("xpc.engine_cache.stale_entry") is not None):
            # Injected stale line: evict before the lookup so the xcall
            # falls back to a validated x-entry table load.
            self._lines[entry_id % self.entries] = None
        line = self._lines[entry_id % self.entries]
        if line is not None and line[0] == self._tag(thread) \
                and line[1] == entry_id:
            entry = line[2]
            if entry.valid:
                self.hits += 1
                return entry
        self.misses += 1
        return None

    def evict(self, entry_id: int) -> None:
        """Software eviction (kernel, after table updates)."""
        line = self._lines[entry_id % self.entries]
        if line is not None and line[1] == entry_id:
            self._lines[entry_id % self.entries] = None

    def flush(self) -> None:
        self._lines = [None] * self.entries
