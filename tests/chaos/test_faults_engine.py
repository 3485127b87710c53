"""The fault-injection engine itself: determinism, replay, arming."""

import re
from pathlib import Path

import pytest

import repro.faults as faults
import repro.probe as probe
from repro.faults import FaultPlan, FaultPlanError


def drive(plan, points):
    """Reach a fixed point sequence with *plan* armed; return the
    actions the ``inject`` site hands back."""
    out = []
    with faults.active(plan):
        for point in points:
            out.append(probe.inject(point))
    return out


WORKLOAD = (["blockdev.io_error"] * 5 + ["net.drop"] * 5
            + ["blockdev.io_error", "net.drop"] * 10)


class TestArming:
    def test_unknown_point_rejected(self):
        with pytest.raises(FaultPlanError):
            FaultPlan(1).arm("no.such.point", nth=1)

    def test_test_prefix_points_allowed(self):
        plan = FaultPlan(1).arm("test.anything", nth=2)
        assert drive(plan, ["test.anything"] * 3) == [None, {}, None]

    def test_exactly_one_trigger_required(self):
        with pytest.raises(FaultPlanError):
            FaultPlan(1).arm("net.drop")
        with pytest.raises(FaultPlanError):
            FaultPlan(1).arm("net.drop", nth=1, probability=0.5)

    def test_bad_trigger_values_rejected(self):
        with pytest.raises(FaultPlanError):
            FaultPlan(1).arm("net.drop", nth=0)
        with pytest.raises(FaultPlanError):
            FaultPlan(1).arm("net.drop", probability=1.5)


class TestTriggering:
    def test_nth_hit_fires_exactly_once(self):
        plan = FaultPlan(7).arm("net.drop", nth=3)
        results = drive(plan, ["net.drop"] * 6)
        assert [r is not None for r in results] == [
            False, False, True, False, False, False]

    def test_nth_with_unlimited_times_fires_from_nth_on(self):
        plan = FaultPlan(7).arm("net.drop", nth=3, times=None)
        results = drive(plan, ["net.drop"] * 6)
        assert [r is not None for r in results] == [
            False, False, True, True, True, True]
        assert [e.hit for e in plan.trace] == [3, 4, 5, 6]

    def test_nth_with_times_fires_that_many_from_nth(self):
        plan = FaultPlan(7).arm("net.drop", nth=3, times=2)
        results = drive(plan, ["net.drop"] * 6)
        assert [r is not None for r in results] == [
            False, False, True, True, False, False]

    def test_times_bounds_probabilistic_firing(self):
        plan = FaultPlan(7).arm("net.drop", probability=1.0, times=2)
        results = drive(plan, ["net.drop"] * 6)
        assert sum(r is not None for r in results) == 2

    def test_times_none_is_unlimited(self):
        plan = FaultPlan(7).arm("net.drop", probability=1.0, times=None)
        results = drive(plan, ["net.drop"] * 6)
        assert all(r is not None for r in results)

    def test_action_kwargs_ride_along(self):
        plan = FaultPlan(7).arm("xpc.callee_crash", nth=1, lazy=False)
        [result] = drive(plan, ["xpc.callee_crash"])
        assert result == {"lazy": False}

    def test_points_count_hits_independently(self):
        plan = (FaultPlan(7)
                .arm("net.drop", nth=2)
                .arm("blockdev.io_error", nth=1))
        results = drive(plan, ["blockdev.io_error", "net.drop",
                               "net.drop", "blockdev.io_error"])
        assert [r is not None for r in results] == [
            True, False, True, False]


class TestDeterminism:
    def test_same_seed_same_trace(self):
        def run(seed):
            plan = (FaultPlan(seed)
                    .arm("blockdev.io_error", probability=0.3, times=None)
                    .arm("net.drop", probability=0.3, times=None))
            drive(plan, WORKLOAD)
            return [(e.point, e.hit) for e in plan.trace]

        assert run(42) == run(42)
        assert run(42) != run(43)  # and seeds actually matter

    def test_probability_stream_isolated_per_spec(self):
        """Arming an extra nth= fault must not perturb an existing
        probabilistic spec's decisions."""
        base = (FaultPlan(5)
                .arm("net.drop", probability=0.4, times=None))
        drive(base, WORKLOAD)
        augmented = (FaultPlan(5)
                     .arm("net.drop", probability=0.4, times=None)
                     .arm("blockdev.io_error", nth=2))
        drive(augmented, WORKLOAD)
        assert ([(e.point, e.hit) for e in base.trace]
                == [(e.point, e.hit) for e in augmented.trace
                    if e.point == "net.drop"])


class TestReplay:
    def test_replay_fires_exactly_the_recorded_events(self):
        plan = (FaultPlan(99)
                .arm("blockdev.io_error", probability=0.5, times=None)
                .arm("net.drop", nth=4, lazy=True))
        originals = drive(plan, WORKLOAD)

        replay = FaultPlan.replay(plan.trace)
        replayed = drive(replay, WORKLOAD)
        assert replayed == originals
        assert ([(e.point, e.hit, e.action) for e in replay.trace]
                == [(e.point, e.hit, e.action) for e in plan.trace])

    def test_trace_json_round_trip(self):
        plan = FaultPlan(11).arm("net.corrupt", nth=2, byte=7)
        originals = drive(plan, ["net.corrupt"] * 4)
        replay = FaultPlan.from_json(plan.trace_json())
        assert drive(replay, ["net.corrupt"] * 4) == originals

    def test_replay_off_sequence_fires_nothing(self):
        plan = FaultPlan(3).arm("net.drop", nth=1)
        drive(plan, ["net.drop"])
        replay = FaultPlan.replay(plan.trace)
        # A different workload that never reaches (net.drop, hit 1)
        # again: only the recorded (point, hit) pair injects.
        assert drive(replay, ["blockdev.io_error"] * 3) == [None] * 3


class TestInstallation:
    def test_fire_without_plan_is_none(self):
        assert probe.INJECT == ()
        assert probe.inject("net.drop") is None

    def test_active_restores_previous_plan(self):
        outer = FaultPlan(1)
        inner = FaultPlan(2)

        def hits():
            probe.inject("test.which")
            return outer.hits("test.which"), inner.hits("test.which")

        with faults.active(outer):
            with faults.active(inner):
                assert hits() == (0, 1)
            assert hits() == (1, 1)
        assert probe.INJECT == ()
        assert hits() == (1, 1)

    def test_injection_is_announced_at_the_fault_site(self):
        seen = []
        plan = FaultPlan(1).arm("net.corrupt", nth=2, byte=3)
        probe.subscribe("test-fault-log", {
            "fault": lambda point, action: seen.append(
                (point, dict(action), len(plan.trace)))})
        try:
            drive(plan, ["net.corrupt"] * 3)
        finally:
            probe.unsubscribe("test-fault-log")
        # Announced once, after the plan recorded it, with its action.
        assert seen == [("net.corrupt", {"byte": 3}, 1)]

    def test_catalogue_layers_are_known(self):
        from repro.faults.points import CATALOGUE, layer_of
        for point in CATALOGUE:
            assert layer_of(point) in {"hw", "xpc", "kernel", "services",
                                       "aio", "cluster"}


def test_design_fault_table_lists_the_catalogue():
    """DESIGN.md §9 renders the catalogue: its table's point column is
    exactly ``CATALOGUE``'s keys, in order."""
    from repro.faults.points import CATALOGUE
    design = Path(__file__).resolve().parents[2] / "DESIGN.md"
    text = design.read_text()
    section = text[text.index("\n## 9. "):]
    section = section[:section.index("\n## 10. ")]
    points = re.findall(r"^\| `([^`]+)` \|", section, flags=re.MULTILINE)
    assert points == list(CATALOGUE)
