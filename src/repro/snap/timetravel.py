"""Reverse-until-invariant time travel over a recorded run.

Given a :class:`~repro.snap.record.Recorder` whose run ended in a bad
state and a predicate ``violated(world) -> bool``, :func:`reverse_until`
finds the **first op whose execution makes the predicate true**:

1. bisect the checkpoint timeline — restore each probed checkpoint and
   evaluate the predicate on the revived world (restores never disturb
   the snapshots, so probing is free of side effects);
2. fine-step from the last healthy checkpoint one op at a time,
   capturing the boundary before each op, until the predicate flips.

The result pins the culprit op, the snapshot of the boundary
immediately before it, and the minimal op window (last healthy
checkpoint → culprit inclusive) — a ready-made reproducer: restore
``result.before``, apply ``result.window[-1]``, observe the violation.

Bisection assumes the predicate is monotone over the run (once
violated, stays violated) — true for the recovery invariants in
:mod:`repro.verify.live` under a fixed op suffix, and for any
"outcome log contains a divergence" predicate.  A non-monotone
predicate still works, but the bisection may land on a later
violation window than the first.

Predicates for the stock invariants are provided:
:func:`recovery_predicate` wraps
:func:`repro.verify.live.check_recovery_invariants` over whatever
kernel the world carries.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.snap.core import Snapshot, capture, restore
from repro.snap.record import Recorder
from repro.snap.world import kernel_of
from repro.verify.live import check_recovery_invariants


class TimeTravelResult:
    """Where the timeline first went bad."""

    __snap_state__ = ("op_index", "op", "world", "before", "window",
                      "probes")

    def __init__(self, op_index: int, op: object, world: object,
                 before: Snapshot, window: List[object],
                 probes: int) -> None:
        self.op_index = op_index    # index of the culprit op
        self.op = op                # the culprit op itself
        self.world = world          # live world just after the culprit
        self.before = before        # boundary snapshot just before it
        self.window = window        # ops: last good checkpoint..culprit
        self.probes = probes        # restores spent finding it

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"TimeTravelResult(op_index={self.op_index}, "
                f"op={self.op!r}, window={len(self.window)} ops, "
                f"probes={self.probes})")


def recovery_predicate(world) -> bool:
    """True when any §3.3/§4.2/§4.4 recovery invariant is violated."""
    return bool(check_recovery_invariants(kernel_of(world)))


def reverse_until(recorder: Recorder,
                  violated: Callable[[object], bool]
                  ) -> Optional[TimeTravelResult]:
    """First op of *recorder*'s run after which *violated* holds, or
    None when the predicate never fails (including on the final
    state)."""
    probes = 0

    def probe(snapshot: Snapshot) -> bool:
        nonlocal probes
        probes += 1
        return bool(violated(restore(snapshot)))

    if not violated(recorder.world):
        return None

    checkpoints = recorder.checkpoints
    if probe(checkpoints[0]):
        # Bad before any op ran: the culprit is the world builder.
        world = restore(checkpoints[0])
        return TimeTravelResult(op_index=-1, op=None, world=world,
                                before=checkpoints[0], window=[],
                                probes=probes)

    # Largest checkpoint index still healthy.  Invariant: lo healthy,
    # everything > hi known-or-assumed violated.
    lo, hi = 0, len(checkpoints) - 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if probe(checkpoints[mid]):
            hi = mid - 1
        else:
            lo = mid
    good = checkpoints[lo]

    # Fine phase: step from the healthy boundary, snapshotting each
    # boundary so the culprit's pre-state comes back with the result.
    world = restore(good)
    index = good.op_index
    before = good
    while index < len(recorder.ops):
        op = recorder.ops[index]
        world.step(op)
        if violated(world):
            return TimeTravelResult(
                op_index=index, op=op, world=world, before=before,
                window=list(recorder.ops[good.op_index:index + 1]),
                probes=probes)
        index += 1
        before = capture(world, op_index=index)
    return None
