"""Admission control: reject/park policies, obs gauges, breaker wiring."""

import pytest

import repro.obs as obs
import repro.probe as probe
from repro.aio import (AdmissionController, AdmissionPolicy,
                       XPCRingFullError)
from repro.hw.machine import Machine
from repro.obs import ObsSession
from tests.aio.conftest import AioWorld


def make_core():
    return Machine(cores=1, mem_bytes=32 * 1024 * 1024).core0


class TestReject:
    def test_limit_enforced(self):
        core = make_core()
        ctl = AdmissionController(limit=2)
        ctl.admit(core)
        ctl.admit(core)
        with pytest.raises(XPCRingFullError):
            ctl.admit(core)
        assert ctl.rejected == 1
        ctl.release(core)
        ctl.admit(core)                   # slot freed: admitted again
        assert ctl.admitted == 3

    def test_rejection_does_not_burn_cycles(self):
        core = make_core()
        ctl = AdmissionController(limit=1)
        ctl.admit(core)
        before = core.cycles
        with pytest.raises(XPCRingFullError):
            ctl.admit(core)
        assert core.cycles == before

    def test_bad_limit_rejected(self):
        with pytest.raises(ValueError):
            AdmissionController(limit=0)


class TestPark:
    def test_park_waits_for_a_slot(self):
        core = make_core()
        ctl = AdmissionController(limit=1,
                                  policy=AdmissionPolicy.PARK,
                                  park_cycles=500)
        ctl.admit(core)
        before = core.cycles

        def drain():
            ctl.release(core)

        ctl.admit(core, drain_hook=drain)
        assert ctl.parked == 1
        assert core.cycles - before >= 500

    def test_parks_are_bounded(self):
        core = make_core()
        ctl = AdmissionController(limit=1,
                                  policy=AdmissionPolicy.PARK,
                                  park_cycles=100, max_parks=3)
        ctl.admit(core)
        before = core.cycles
        with pytest.raises(XPCRingFullError):
            ctl.admit(core, drain_hook=lambda: None)
        assert ctl.parked == 3
        assert ctl.rejected == 1
        assert core.cycles - before == 300


class TestWiring:
    def test_obs_gauge_and_counters(self):
        core = make_core()
        session = ObsSession()
        with obs.active(session):
            ctl = AdmissionController(limit=1, name="bp")
            ctl.admit(core)
            with pytest.raises(XPCRingFullError):
                ctl.admit(core)
            ctl.release(core)
            assert session.registry.gauge("aio.inflight.bp").value == 0
            assert session.registry.counter(
                "aio.admission_rejected.bp").value == 1
        assert all(getattr(probe, site.upper()) == ()
                   for site in session.probe_handlers())

    def test_health_reports_failure_and_success(self):
        class Health:
            def __init__(self):
                self.failures = []
                self.successes = []

            def report_failure(self, name):
                self.failures.append(name)

            def report_success(self, name):
                self.successes.append(name)

        core = make_core()
        health = Health()
        ctl = AdmissionController(limit=1, health=health,
                                  service_name="svc")
        ctl.admit(core)
        with pytest.raises(XPCRingFullError):
            ctl.admit(core)
        ctl.release(core)
        assert health.failures == ["svc"]
        assert health.successes == ["svc"]

    def test_batcher_parks_until_flush_frees_slots(self):
        ctl = AdmissionController(limit=4,
                                  policy=AdmissionPolicy.PARK,
                                  park_cycles=200)
        world = AioWorld(max_batch=64, admission=ctl)
        futures = [world.batcher.submit(("echo", i), b"x")
                   for i in range(10)]
        # Submissions past the limit parked and drained in place.
        assert ctl.parked >= 1
        assert world.batcher.flushes >= 1
        world.batcher.flush()
        assert all(f.done for f in futures)
        assert ctl.inflight == 0

    def test_batcher_rejects_past_limit(self):
        ctl = AdmissionController(limit=2)
        world = AioWorld(max_batch=64, admission=ctl)
        world.batcher.submit(("echo", 0), b"x")
        world.batcher.submit(("echo", 1), b"x")
        with pytest.raises(XPCRingFullError):
            world.batcher.submit(("echo", 2), b"x")
        world.batcher.flush()
        world.batcher.submit(("echo", 3), b"x")   # slots freed
        world.batcher.flush()
        assert ctl.inflight == 0
