"""PreFaultSnapper and an obs session compose in either nesting order.

Both subscribe to the fault site: every injected fault must be
snapshotted by the snapper *and* annotated on the span timeline, and
the snapshot must be taken before the annotation, so a restored
snapshot never holds its own fault's annotation.
"""

import pytest

import repro.obs as obs
from repro.faults import FaultPlan
from repro.snap import PreFaultSnapper, restore
from repro.snap.scenarios import fig5_world

POINT = "kernel.preempt"


def _annotations(session):
    spans = session.spans.spans
    if session.spans.current is not None:
        spans.append(session.spans.current)
    return [note["name"] for span in spans for note in span.events]


@pytest.mark.parametrize("snapper_outside", [True, False])
def test_fault_is_snapshotted_and_annotated(snapper_outside):
    world, ops = fig5_world()
    world.plan = FaultPlan(7).arm(POINT, nth=1, times=1)
    session = obs.ObsSession()
    session.attach(world.machine, world.kernel)
    world.obs = session
    snapper = PreFaultSnapper(world)
    if snapper_outside:
        with snapper, obs.active(session):
            world.run(ops[:2])
    else:
        with obs.active(session), snapper:
            world.run(ops[:2])

    assert snapper.injections == 1
    assert [p for p, _action, _snap in snapper.snapshots] == [POINT]
    assert _annotations(session) == [f"fault:{POINT}"]
    counter = f"faults.injected.{POINT}"
    assert session.registry.counter(counter).value == 1

    # Captured before obs reacted: the snapshot's copy of the session
    # has neither the annotation nor the injection count.
    _point, _action, snapshot = snapper.last()
    before = restore(snapshot).obs
    assert before.spans.current is not None
    assert _annotations(before) == []
    assert before.registry.counter(counter).value == 0
