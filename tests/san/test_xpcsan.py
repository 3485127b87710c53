"""XPCSan: the epoch/access-log model, the seeded ownership bug, and
cycle neutrality.

The seeded bug is the §3.3 violation the sanitizer exists for: the same
ring memory touched from two simulated cores with no sanctioned handoff
(xcall/xret/swapseg/install/run_thread) in between.
"""

import pytest

import repro.probe as probe
import repro.san as san
from repro.aio.ring import XPCRing
from repro.hw.machine import Machine
from repro.kernel.kernel import BaseKernel


class FakeCore:
    def __init__(self, core_id, cycles=0):
        self.core_id = core_id
        self.cycles = cycles


class View:
    """A transient view of segment memory (like XPCRing.attach)."""

    def __init__(self, pa_base):
        self.pa_base = pa_base


# ----------------------------------------------------------------------
# the epoch model
# ----------------------------------------------------------------------
class TestEpochModel:
    def test_cross_core_writes_in_one_epoch_conflict(self):
        session = san.SanSession()
        obj = object()
        session.access(FakeCore(0), obj, "ring-sq", "t.push", "write")
        session.access(FakeCore(1), obj, "ring-sq", "t.pop", "write")
        assert len(session.issues) == 1
        issue = session.issues[0]
        assert issue.resource.startswith("ring-sq#")
        assert issue.first.core_id == 0 and issue.second.core_id == 1
        # file:line precision — both accesses point back into this test.
        for acc in (issue.first, issue.second):
            fname, _, line = acc.location.rpartition(":")
            assert fname.endswith("test_xpcsan.py")
            assert int(line) > 0
        assert "no ownership handoff" in issue.describe()

    def test_read_read_sharing_is_fine(self):
        session = san.SanSession()
        obj = object()
        session.access(FakeCore(0), obj, "ring-sq", "t.peek", "read")
        session.access(FakeCore(1), obj, "ring-sq", "t.peek", "read")
        assert session.issues == []

    def test_write_then_remote_read_conflicts(self):
        session = san.SanSession()
        obj = object()
        session.access(FakeCore(0), obj, "ring-sq", "t.push", "write")
        session.access(FakeCore(1), obj, "ring-sq", "t.peek", "read")
        assert len(session.issues) == 1

    def test_handoff_opens_a_new_epoch(self):
        session = san.SanSession()
        obj = object()
        session.access(FakeCore(0), obj, "ring-sq", "t.push", "write")
        session.handoff(obj, "ring-sq", via="xcall")
        session.access(FakeCore(1), obj, "ring-sq", "t.pop", "write")
        assert session.issues == []
        assert session.handoffs == 1

    def test_conflicts_dedupe_per_epoch_and_core_pair(self):
        session = san.SanSession()
        obj = object()
        for _ in range(4):
            session.access(FakeCore(0), obj, "ring-sq", "t.push", "write")
            session.access(FakeCore(1), obj, "ring-sq", "t.pop", "write")
        assert len(session.issues) == 1
        session.handoff(obj, "ring-sq", via="xret")
        session.access(FakeCore(0), obj, "ring-sq", "t.push", "write")
        session.access(FakeCore(1), obj, "ring-sq", "t.pop", "write")
        assert len(session.issues) == 2         # fresh epoch, fresh report

    def test_distinct_resources_do_not_interact(self):
        # id-keyed resources must stay alive across the session (true
        # of every instrumented one: link stacks, cap tables) — a freed
        # object's id can be recycled.
        session = san.SanSession()
        a, b = object(), object()
        session.access(FakeCore(0), a, "ring-sq", "t.a", "write")
        session.access(FakeCore(1), b, "ring-sq", "t.b", "write")
        assert session.issues == []


class TestPhysicalIdentity:
    def test_views_of_the_same_memory_are_one_resource(self):
        # XPCRing.attach makes a fresh Python object per drain; the
        # *ring memory* is what ownership covers.
        session = san.SanSession()
        session.access(FakeCore(0), View(4096), "ring-sq", "t.a", "write")
        session.access(FakeCore(1), View(4096), "ring-sq", "t.b", "write")
        assert len(session.issues) == 1

    def test_segment_handoff_synchronizes_the_rings_inside_it(self):
        # The engine hands the *segment* over at xcall; the ring labels
        # at the same physical base must get a fresh epoch too.
        session = san.SanSession()
        session.access(FakeCore(0), View(4096), "ring-sq", "t.a", "write")
        session.handoff(View(4096), "relay-seg", via="xcall")
        session.access(FakeCore(1), View(4096), "ring-sq", "t.b", "write")
        assert session.issues == []

    def test_different_physical_bases_stay_distinct(self):
        session = san.SanSession()
        session.access(FakeCore(0), View(4096), "ring-sq", "t.a", "write")
        session.access(FakeCore(1), View(8192), "ring-sq", "t.b", "write")
        assert session.issues == []


class TestSessionPlumbing:
    def test_active_restores_the_previous_session(self):
        outer, inner = san.SanSession(), san.SanSession()
        seg = object()
        with san.active(outer):
            probe.handoff(seg, "relay-seg", "xcall")
            with san.active(inner):
                probe.handoff(seg, "relay-seg", "xcall")
            probe.handoff(seg, "relay-seg", "xcall")
        assert probe.HANDOFF == probe.ACCESS == ()
        probe.handoff(seg, "relay-seg", "xcall")
        assert (outer.handoffs, inner.handoffs) == (2, 1)

    def test_from_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_XPCSAN", raising=False)
        assert san.from_env() is None
        monkeypatch.setenv("REPRO_XPCSAN", "1")
        assert isinstance(san.from_env(), san.SanSession)

    def test_report_shape(self):
        session = san.SanSession()
        obj = object()
        session.access(FakeCore(0), obj, "ring-sq", "t.push", "write")
        session.access(FakeCore(1), obj, "ring-sq", "t.pop", "write")
        report = session.report()
        assert report["accesses"] == 2
        assert report["resources"] == 1
        assert len(report["issues"]) == 1

    def test_format_issues_empty_and_full(self):
        assert "no conflicting" in san.format_issues([])
        session = san.SanSession()
        obj = object()
        session.access(FakeCore(0), obj, "link-stack", "t.a", "write")
        session.access(FakeCore(1), obj, "link-stack", "t.b", "write")
        text = san.format_issues(session.issues)
        assert "link-stack#0" in text and "1 issue(s)" in text


# ----------------------------------------------------------------------
# the seeded bug, on the real stack
# ----------------------------------------------------------------------
def make_ring(cores=2):
    machine = Machine(cores=cores, mem_bytes=64 * 1024 * 1024)
    kernel = BaseKernel(machine)
    proc = kernel.create_process("p")
    seg, _slot = kernel.create_relay_seg(machine.core0, proc, 8192)
    ring = XPCRing.format(machine.core0, machine.memory, seg, entries=4)
    return machine, kernel, seg, ring


class TestSeededOwnershipBug:
    def test_cross_core_drain_without_handoff_is_flagged(self):
        machine, kernel, seg, ring = make_ring()
        with san.active(san.SanSession()) as session:
            ring.push_sqe(machine.core0, ("op", 1), b"x",
                          reply_capacity=8)
            # BUG under test: core1 drains without any xcall/handoff.
            assert ring.pop_sqe(machine.cores[1]) is not None
        assert len(session.issues) == 1
        issue = session.issues[0]
        assert issue.resource.startswith("ring-sq#")
        assert issue.second.site == "aio.ring.pop_sqe"
        fname, _, line = issue.second.location.rpartition(":")
        assert fname.endswith("ring.py") and int(line) > 0

    def test_handed_off_cross_core_drain_is_clean(self):
        machine, kernel, seg, ring = make_ring()
        with san.active(san.SanSession()) as session:
            ring.push_sqe(machine.core0, ("op", 1), b"x",
                          reply_capacity=8)
            # The sanctioned transfer: hand the segment over (as the
            # engine does at xcall), then drain from the other core.
            probe.handoff(seg, "relay-seg", "xcall")
            assert ring.pop_sqe(machine.cores[1]) is not None
        assert session.issues == []

    def test_single_core_round_trip_is_clean(self):
        machine, kernel, seg, ring = make_ring(cores=1)
        with san.active(san.SanSession()) as session:
            core = machine.core0
            seq = ring.push_sqe(core, ("op", 1), b"x", reply_capacity=8)
            sqe = ring.pop_sqe(core)
            ring.push_cqe(core, seq, 0, ("ok",), sqe.data_off, 0)
            assert ring.pop_cqe(core) is not None
        assert session.issues == []


class TestCycleNeutrality:
    def test_sanitizer_never_moves_the_simulated_clock(self):
        def run(armed):
            machine, kernel, seg, ring = make_ring(cores=1)
            core = machine.core0

            def workload():
                seq = ring.push_sqe(core, ("op", 1), b"payload",
                                    reply_capacity=16)
                sqe = ring.pop_sqe(core)
                ring.push_cqe(core, seq, 0, ("ok",), sqe.data_off, 0)
                ring.pop_cqe(core)

            if armed:
                with san.active(san.SanSession()):
                    workload()
            else:
                workload()
            return core.cycles

        assert run(armed=True) == run(armed=False)
