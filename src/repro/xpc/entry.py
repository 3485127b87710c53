"""x-entry and the global x-entry table (paper §3.1, §3.2).

An x-entry binds a callable procedure to an address space, a handler
thread, and a context budget.  All x-entries live in one global table
pointed to by ``x-entry-table-reg`` and sized by ``x-entry-table-size``
(1024 entries in the paper's prototype, §4.1); an x-entry's ID is its
index in that table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.hw.paging import AddressSpace
from repro.xpc.errors import InvalidXEntryError

DEFAULT_TABLE_ENTRIES = 1024


@dataclass
class XEntry:
    """One registered XPC procedure.

    ``handler`` stands in for the procedure's entrance address: invoking
    the x-entry runs this callable in the server's address space.
    ``callee_state`` is the handler thread's per-thread XPC state (its
    xcall-cap bitmap), installed into ``xcall-cap-reg`` by the hardware on
    entry so the kernel can resolve the runtime state (§4.2 Split Thread
    State).
    """

    entry_id: int
    aspace: AddressSpace
    handler: Callable
    handler_thread: object
    max_contexts: int = 1
    valid: bool = True
    owner_process: object = None
    callee_state: object = None
    invocations: int = field(default=0, compare=False)


class XEntryTable:
    """The global x-entry table.

    The kernel allocates it at boot and sets ``x-entry-table-size``
    (§4.1); the XPC engine reads it on every ``xcall``.  Only occupied
    slots are stored: a fresh id comes from a counter that climbs from
    1 (slot 0 is reserved: the prefetch encoding, xcall with -ID, §4.1,
    cannot express entry 0), and removed ids are handed out again
    first, last removed first.
    """

    def __init__(self, size: int = DEFAULT_TABLE_ENTRIES) -> None:
        if size <= 1:
            raise ValueError("x-entry-table needs at least two slots")
        self.size = size
        self._entries: Dict[int, XEntry] = {}
        self._next_id = 1
        self._freed: List[int] = []

    def register(self, aspace: AddressSpace, handler: Callable,
                 handler_thread: object, max_contexts: int = 1,
                 owner_process: object = None,
                 callee_state: object = None) -> XEntry:
        """Allocate a slot and install a new, valid x-entry."""
        if not self._freed and self._next_id >= self.size:
            raise InvalidXEntryError(-1, "x-entry table is full")
        if max_contexts <= 0:
            raise ValueError("max_contexts must be positive")
        if self._freed:
            entry_id = self._freed.pop()
        else:
            entry_id = self._next_id
            self._next_id += 1
        entry = XEntry(
            entry_id=entry_id, aspace=aspace, handler=handler,
            handler_thread=handler_thread, max_contexts=max_contexts,
            owner_process=owner_process, callee_state=callee_state,
        )
        self._entries[entry_id] = entry
        return entry

    def remove(self, entry_id: int) -> None:
        """Invalidate and free a slot."""
        entry = self._entries.pop(entry_id, None)
        if entry is None:
            raise InvalidXEntryError(entry_id, "remove of unregistered entry")
        entry.valid = False
        self._freed.append(entry_id)

    def load(self, entry_id: int) -> XEntry:
        """Hardware load: fetch and validity-check an entry."""
        if not 0 <= entry_id < self.size:
            raise InvalidXEntryError(entry_id, "x-entry id out of table range")
        try:
            entry = self._entries[entry_id]
        except KeyError:
            entry = None
        if entry is None or not entry.valid:
            raise InvalidXEntryError(entry_id)
        return entry

    def peek(self, entry_id: int) -> Optional[XEntry]:
        """Software peek without validity semantics (kernel bookkeeping)."""
        return self._entries.get(entry_id)

    @property
    def registered(self) -> int:
        return len(self._entries)
