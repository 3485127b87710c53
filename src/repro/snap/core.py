"""Snapshot capture/restore and the content-addressed snapshot store.

A snapshot is a **dormant deep copy** of a world graph.  Every
allocator a world draws from (koids, ASIDs, segment IDs, TCP ISNs)
lives inside it, so capture and restore are both one ``copy.deepcopy``
pass:

* ``capture(world)`` — deepcopy the live graph.  Stateful leaves
  cooperate through ``__deepcopy__``:
  :class:`~repro.hw.memory.PhysicalMemory` goes *dormant* (drops its
  byte array, keeps a content-addressed page table shared
  copy-on-write with earlier snapshots of the same memory, so a
  checkpoint costs only the pages dirtied since the last one, and
  the first only the allocated frames);
* ``restore(snap)`` — deepcopy the dormant graph back into a fresh,
  fully live world (memory rematerialises its DRAM buffer).

Restore never mutates the snapshot: one snapshot can seed any number of
divergent futures (that is what the shrinker and the time-travel
bisector do).  Snapshots are cycle-stamped at capture and lazily
content-addressed by their canonical :func:`~repro.snap.fingerprint.
fingerprint`; byte-identity between a straight-line run and a
restore-and-rerun is the contract CI enforces.
"""

from __future__ import annotations

import copy
import os
import pickle
from typing import List, Optional

from repro.snap.fingerprint import fingerprint

#: Length of the store key prefix taken from the fingerprint.
KEY_LEN = 12


class Snapshot:
    """One dormant world graph, cycle-stamped and content-addressed."""

    __snap_state__ = ("world", "cycle", "op_index", "_fp")

    def __init__(self, world: object, cycle: int,
                 op_index: Optional[int] = None) -> None:
        self.world = world                  # dormant graph — do not run
        self.cycle = cycle
        self.op_index = op_index
        self._fp: Optional[str] = None

    @property
    def fingerprint(self) -> str:
        """Canonical digest of the captured state (computed lazily and
        cached — fingerprinting walks the whole graph)."""
        if self._fp is None:
            self._fp = fingerprint(self.world)
        return self._fp

    @property
    def key(self) -> str:
        return self.fingerprint[:KEY_LEN]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Snapshot(op={self.op_index}, cycle={self.cycle}, "
                f"key={self.key})")


def world_clock(world: object) -> int:
    """Cycle stamp for *world*: its ``clock()`` when it has one."""
    clock = getattr(world, "clock", None)
    return clock() if callable(clock) else 0


def capture(world: object, op_index: Optional[int] = None) -> Snapshot:
    """Snapshot *world* (live → dormant deepcopy)."""
    return Snapshot(world=copy.deepcopy(world), cycle=world_clock(world),
                    op_index=op_index)


def restore(snapshot: Snapshot) -> object:
    """Revive *snapshot* into a fresh live world (dormant → live
    deepcopy); the snapshot itself stays dormant and reusable."""
    return copy.deepcopy(snapshot.world)


def live_fingerprint(world: object) -> str:
    """Fingerprint of the *running* world, comparable against
    ``Snapshot.fingerprint`` of a capture taken at the same point.

    Goes through a capture so that memory is hashed in its canonical
    (page-table) form on both sides.
    """
    return capture(world).fingerprint


class SnapshotStore:
    """Content-addressed on-disk snapshots (pickled dormant graphs).

    Keys are fingerprint prefixes, so saving the same state twice is a
    no-op and a key names the state, not the moment it was saved.
    """

    def __init__(self, root: str) -> None:
        self.root = root
        os.makedirs(root, exist_ok=True)

    def _path(self, key: str) -> str:
        return os.path.join(self.root, f"{key}.snap")

    def save(self, snapshot: Snapshot) -> str:
        key = snapshot.key
        path = self._path(key)
        if not os.path.exists(path):
            tmp = path + ".tmp"
            with open(tmp, "wb") as fh:
                pickle.dump(snapshot, fh,
                            protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        return key

    def load(self, key: str) -> Snapshot:
        with open(self._path(key), "rb") as fh:
            snapshot = pickle.load(fh)
        if snapshot.key != key:
            raise ValueError(
                f"snapshot store corruption: {key} loads as "
                f"{snapshot.key}")
        return snapshot

    def keys(self) -> List[str]:
        return sorted(name[:-len(".snap")]
                      for name in os.listdir(self.root)
                      if name.endswith(".snap"))
