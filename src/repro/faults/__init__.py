"""repro.faults — deterministic, seeded fault injection for the stack.

A fault point is a :mod:`repro.probe` site.  The instrumented layers
ask the probe's ``inject`` site at each catalogued point, behind the
probe's one-guard disarmed cost, and apply the action that comes back::

    if probe.INJECT:
        if probe.inject("blockdev.io_error") is not None:
            raise BlockDeviceError("injected I/O error")

This package is the driver side: a :class:`FaultPlan` decides, and
:func:`active` is the one way to arm it::

    plan = faults.FaultPlan(seed=23).arm("blockdev.io_error", nth=3)
    with faults.active(plan):
        run_workload()
    artifact = plan.trace_json()   # replays via FaultPlan.from_json

No simulator layer imports this package.
"""

from __future__ import annotations

import repro.probe as probe
from repro.faults.plan import (FaultEvent, FaultPlan, FaultPlanError,
                               FaultSpec)
from repro.faults.points import CATALOGUE

__all__ = [
    "CATALOGUE", "FaultEvent", "FaultPlan", "FaultPlanError",
    "FaultSpec", "active",
]


def active(plan: FaultPlan):
    """Arm *plan* at the probe's ``inject`` site for the duration of
    the block, restoring whatever plan was armed before, so nested
    scopes compose."""
    return probe.subscribed("faults", {"inject": plan.fire}, plan)
