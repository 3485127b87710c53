"""Unit tests for the exact cycle-attribution profiler."""

import copy

import pytest

import repro.obs as obs
import repro.probe as probe
from repro.hw.machine import Machine
from repro.obs.profiler import CycleProfiler, diff_collapsed


@pytest.fixture
def machine():
    return Machine(cores=2, mem_bytes=8 * 1024 * 1024)


def test_unframed_ticks_land_in_the_core_root(machine):
    session = obs.ObsSession(profile=True)
    with obs.active(session):
        machine.core0.tick(7)
        machine.core0.tick(3)
    prof = session.profiler
    assert prof.collapsed() == {"core0": 10}
    assert prof.attributed == 10
    assert prof.complete()


def test_frames_nest_and_attribute_self_cycles(machine):
    session = obs.ObsSession(profile=True)
    core = machine.core0
    with obs.active(session):
        prof = session.profiler
        outer = probe.frame(core, "outer")
        core.tick(5)
        inner = probe.frame(core, "inner")
        core.tick(2)
        probe.frame_end(core, inner)
        core.tick(1)
        probe.frame_end(core, outer)
        core.tick(4)
    assert prof.collapsed() == {
        "core0": 4,
        "core0;outer": 6,
        "core0;outer;inner": 2,
    }
    assert prof.complete()


def test_phase_split_decomposes_one_tick(machine):
    session = obs.ObsSession(profile=True)
    core = machine.core0
    with obs.active(session):
        prof = session.profiler
        frame = probe.frame(core, "xcall")
        prof.phase_split(core, (("phase:captest", 6),
                                ("phase:xentry", 30),
                                ("phase:linkpush", 13)))
        core.tick(49)
        core.tick(5)    # the split is consumed by exactly one tick
        probe.frame_end(core, frame)
    assert prof.collapsed() == {
        "core0;xcall": 5,
        "core0;xcall;phase:captest": 6,
        "core0;xcall;phase:xentry": 30,
        "core0;xcall;phase:linkpush": 13,
    }
    assert prof.bad_splits == 0
    assert prof.complete()


def test_partial_phase_split_keeps_the_remainder(machine):
    session = obs.ObsSession(profile=True)
    core = machine.core0
    with obs.active(session):
        prof = session.profiler
        prof.phase_split(core, (("phase:a", 3),))
        core.tick(10)
    assert prof.collapsed() == {"core0": 7, "core0;phase:a": 3}
    assert prof.bad_splits == 1
    assert prof.complete()


def test_span_bridge_shapes_the_flame_tree(machine):
    session = obs.ObsSession(profile=True)
    core = machine.core0
    with obs.active(session):
        outer = session.spans.begin(core, "call", cat="xpc")
        core.tick(10)
        session.spans.begin(core, "handler", cat="runtime")
        core.tick(4)
        # Ending the OUTER span truncates the nested one on both the
        # span stack and the profiler stack.
        session.spans.end(core, outer)
        core.tick(2)
    prof = session.profiler
    assert prof.collapsed() == {
        "core0": 2,
        "core0;xpc:call": 10,
        "core0;xpc:call;runtime:handler": 4,
    }
    assert session.spans.truncated_total == 1
    assert prof.complete()


def test_mismatched_pop_is_counted_not_fatal(machine):
    prof = CycleProfiler()
    core = machine.core0
    prof.pop(core)                    # unregistered: no-op
    assert prof.mismatched_pops == 0
    prof.push(core, "a")
    prof.pop(core)
    prof.pop(core)                    # only the root remains
    assert prof.mismatched_pops == 1
    prof.pop(core, span_id=999)       # span never bridged
    assert prof.mismatched_pops == 2


def test_profiler_survives_deepcopy_with_the_machine(machine):
    """Snapshot shape: deepcopying (profiler, machine) together keeps
    attribution keyed to the copied cores."""
    session = obs.ObsSession(profile=True)
    with obs.active(session):
        machine.core0.tick(5)
    pair = copy.deepcopy((session, machine))
    session2, machine2 = pair
    with obs.active(session2):
        machine2.core0.tick(7)
    assert session2.profiler.attributed == 12
    assert session2.profiler.complete()
    # The original is untouched by the copy's progress.
    assert session.profiler.attributed == 5
    assert session.profiler.complete()


def test_per_core_stacks_are_independent(machine):
    session = obs.ObsSession(profile=True)
    with obs.active(session):
        prof = session.profiler
        frame = probe.frame(machine.core0, "a")
        machine.core0.tick(3)
        machine.cores[1].tick(9)       # no frame on core1
        probe.frame_end(machine.core0, frame)
    assert prof.collapsed() == {"core0;a": 3, "core1": 9}
    assert prof.complete()


def test_collapsed_text_is_flamegraph_folded_format(machine):
    session = obs.ObsSession(profile=True)
    core = machine.core0
    with obs.active(session):
        frame = probe.frame(core, "x")
        core.tick(2)
        probe.frame_end(core, frame)
    text = session.profiler.collapsed_text()
    assert text == "core0;x 2"


def test_diff_collapsed_ranks_by_absolute_delta():
    base = {"a;b": 10, "a;c": 5, "gone": 3}
    fresh = {"a;b": 60, "a;c": 5, "new": 1}
    rows = diff_collapsed(base, fresh)
    assert rows[0] == {"path": "a;b", "base": 10, "fresh": 60,
                       "delta": 50}
    paths = {r["path"] for r in rows}
    assert paths == {"a;b", "gone", "new"}     # unchanged a;c omitted


def test_profiler_off_session_has_no_profiler():
    session = obs.ObsSession()
    assert session.profiler is None
    assert session.spans.profiler is None
