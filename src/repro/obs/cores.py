"""How every observer of a session identifies and names a core.

The PMU, the cycle profiler and the span tracer keep their per-core
state keyed by the core object itself: unique across every machine a
session sees, and carried to the copied machine by the snapshot's one
``deepcopy`` of (session, machine).  A core's *name* — the PMU bank
label, the profiler root, the Chrome trace track — comes from the one
rule here: ``core<N>`` on the session's first machine, ``m<k>.core<N>``
on the k-th machine after it.
"""

from __future__ import annotations

from typing import Dict, Tuple


class CoreNames:
    """The machine ordinal of every core a session was shown."""

    def __init__(self) -> None:
        self._ordinal: Dict[object, int] = {}    # core -> machine ordinal
        self._attached = 0

    def attach_machine(self, machine) -> None:
        for core in machine.cores:
            self._ordinal.setdefault(core, self._attached)
        self._attached += 1

    def key(self, core) -> Tuple[int, int]:
        """``(machine ordinal, core_id)``: the order cores list in.
        A core whose machine was never attached counts as the first's."""
        return self._ordinal.get(core, 0), core.core_id

    def prefix(self, core) -> str:
        """``""`` on the first machine, ``"m<k>."`` on the k-th after."""
        machine = self._ordinal.get(core, 0)
        return f"m{machine}." if machine else ""

    def __call__(self, core) -> str:
        """The core's name: ``core<N>`` or ``m<k>.core<N>``."""
        return f"{self.prefix(core)}core{core.core_id}"
