"""The harness's phase-partition check, armed as a bare phase watch.

``run_one`` arms a :class:`repro.obs.PhaseWatch` (the ``phase`` site
alone) in place of a full ``ObsSession``.  These tests hold it to what
the PMU-based check caught: a phase split that does not add up, and a
core whose xcall cycles were never split at all.  They also pin that
the watch leaves the probe as it found it and pauses an outer session
for the run, as a per-run ``ObsSession`` did.
"""

import repro.obs as obs
import repro.probe as probe
from repro.proptest.harness import run_differential
from tests.proptest.test_differential import FULL_COVERAGE

#: Roster executors that run xcalls on an engine (the baselines trap,
#: and the fast core has no engine).
XCALLING = {"seL4-XPC", "Zircon-XPC", "XPC-batched", "seL4-XPC+faults",
            "XPC-batched+faults", "seL4-XPC+xpcsan"}


def _partition_failures(result):
    return [f for f in result.invariant_failures if "phase partition" in f]


def _executors(failures):
    return {f.split(": ", 1)[0] for f in failures}


def test_off_by_one_split_fails_the_partition(monkeypatch):
    split = probe.phase

    def linkpush_plus_one(core, parts):
        split(core, tuple((label, n + 1 if label == "phase:linkpush" else n)
                          for label, n in parts))

    monkeypatch.setattr(probe, "phase", linkpush_plus_one)
    failures = _partition_failures(run_differential(FULL_COVERAGE))
    assert _executors(failures) == XCALLING, failures
    assert all(": core0 phase partition " in f for f in failures)


def test_xcall_cycles_without_phase_events_fail(monkeypatch):
    monkeypatch.setattr(probe, "phase", lambda core, parts: None)
    failures = _partition_failures(run_differential(FULL_COVERAGE))
    assert _executors(failures) == XCALLING, failures
    assert all(" phase partition 0 != xcall.cycles " in f
               for f in failures)


def test_run_leaves_every_probe_site_unwatched():
    run_differential(FULL_COVERAGE)
    assert probe._subscribers == []
    assert all(getattr(probe, site.upper()) == () for site in probe.SITES)


def test_outer_session_records_none_of_the_runs():
    session = obs.ObsSession()
    with obs.active(session):
        assert run_differential(FULL_COVERAGE).ok
    assert session.pmu.snapshot().labels() == []
    assert len(session.spans) == 0
    assert session.registry.as_dict() == {
        "counters": {}, "gauges": {}, "histograms": {}}
