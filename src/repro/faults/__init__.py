"""repro.faults — deterministic, seeded fault injection for the stack.

Usage pattern at an instrumented site (zero-cost when no plan is
installed — the hot paths guard on ``faults.ACTIVE is None`` before
paying any call):

    import repro.faults as faults
    ...
    if faults.ACTIVE is not None:
        act = faults.fire("blockdev.io_error")
        if act is not None:
            raise BlockDeviceError("injected I/O error")

and in a test / chaos driver:

    plan = faults.FaultPlan(seed=23).arm("blockdev.io_error", nth=3)
    with faults.active(plan):
        run_workload()
    artifact = plan.trace_json()   # replays via FaultPlan.from_json
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Optional

import repro.probe as probe
from repro.faults.plan import (FaultEvent, FaultPlan, FaultPlanError,
                               FaultSpec)
from repro.faults.points import CATALOGUE

__all__ = [
    "ACTIVE", "CATALOGUE", "FaultEvent", "FaultPlan", "FaultPlanError",
    "FaultSpec", "ProcessCrashFault", "active", "fire",
    "install", "uninstall",
]

#: The installed plan, or None.  Instrumented hot paths check this
#: before calling fire() so the disarmed cost is a single global load.
ACTIVE: Optional[FaultPlan] = None


class ProcessCrashFault(Exception):
    """Raised by an injected callee crash to abort the handler after the
    process has been killed.  This is simulator control flow, not a
    protocol error: the runtime converts it into the kernel-repaired
    return path and surfaces ``XPCPeerDiedError`` to the caller.
    """

    def __init__(self, service: str = "?", process=None):
        super().__init__(f"injected crash of {service}")
        self.service = service
        self.process = process


def fire(point: str) -> Optional[dict]:
    """One hit of *point* against the installed plan (None when
    disarmed or the plan declines).  An injection is announced at the
    :func:`repro.probe.fault` site before the caller applies it."""
    if ACTIVE is None:
        return None
    action = ACTIVE.fire(point)
    if action is not None and probe.FAULT:
        probe.fault(point, action)
    return action


def install(plan: Optional[FaultPlan]) -> None:
    global ACTIVE
    ACTIVE = plan


def uninstall() -> None:
    install(None)


@contextmanager
def active(plan: FaultPlan):
    """Install *plan* for the duration of the block (restoring whatever
    was installed before, so nested scopes compose)."""
    global ACTIVE
    prev = ACTIVE
    ACTIVE = plan
    try:
        yield plan
    finally:
        ACTIVE = prev
