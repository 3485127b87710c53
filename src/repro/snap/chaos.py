"""Pre-fault snapshots for the chaos harness.

:class:`PreFaultSnapper` subscribes to the ``fault`` site of
:mod:`repro.probe`, which :func:`repro.faults.fire` announces the
moment a plan decides to inject.  The site fires *after* the plan has
recorded the event in its trace but *before* the fire site applies the
action, so each snapshot captures the world on the brink of the fault:
the event is already in the plan's trace (restoring and re-running the
op replays the decision without re-rolling it), the damage is not yet
done.

The snapper subscribes ahead of every other observer, so it composes
with observability in either nesting order: an injected fault is
snapshotted first, then annotated on the span timeline, and a snapshot
never holds its own fault's annotation.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import repro.probe as probe
from repro.snap.core import Snapshot, capture


class PreFaultSnapper:
    """Snapshot *world* immediately before every injected fault."""

    def __init__(self, world, keep: Optional[int] = 8) -> None:
        self.world = world
        self.keep = keep
        #: ``(point, action, snapshot)`` per injection, oldest first
        #: (trimmed to the last *keep* when bounded).
        self.snapshots: List[Tuple[str, dict, Snapshot]] = []
        self.injections = 0

    def __enter__(self) -> "PreFaultSnapper":
        probe.subscribe(self, {"fault": self._observe}, first=True)
        return self

    def __exit__(self, *exc) -> bool:
        probe.unsubscribe(self)
        return False

    def _observe(self, point: str, action: dict) -> None:
        self.injections += 1
        snapshot = capture(self.world,
                           op_index=getattr(self.world, "op_index",
                                            None))
        self.snapshots.append((point, dict(action), snapshot))
        if self.keep is not None and len(self.snapshots) > self.keep:
            del self.snapshots[:-self.keep]

    def last(self) -> Optional[Tuple[str, dict, Snapshot]]:
        return self.snapshots[-1] if self.snapshots else None
