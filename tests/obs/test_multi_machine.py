"""One session watching two machines: the observers tell the cores
apart.

Every machine numbers its cores from 0, so per-core observer state is
keyed by the core object and named by one rule: ``core<N>`` on the
session's first machine, ``m<k>.core<N>`` on the k-th after it.  Each
test runs xcalls on two one-core machines under one profiling
:class:`~repro.obs.ObsSession`.
"""

import repro.obs as obs
from repro.hw.machine import Machine
from repro.kernel.kernel import BaseKernel
from repro.runtime.xpclib import XPCService, xpc_call

MEM = 8 * 1024 * 1024


def echo_rig():
    """A one-core machine whose client may xcall an echo service;
    returns ``(core, call)``."""
    machine = Machine(cores=1, mem_bytes=MEM)
    kernel = BaseKernel(machine)
    core = machine.core0
    server = kernel.create_process("echo")
    st = kernel.create_thread(server)
    kernel.run_thread(core, st)
    svc = XPCService(kernel, core, st, lambda call: "ok")
    client = kernel.create_process("client")
    ct = kernel.create_thread(client)
    kernel.grant_xcall_cap(core, server, ct, svc.entry_id)
    kernel.run_thread(core, ct)
    return core, lambda: xpc_call(core, svc.entry_id, kernel=kernel)


def two_machines(session, calls=(3, 2)):
    with obs.active(session):
        rigs = [echo_rig(), echo_rig()]
        for (_core, call), n in zip(rigs, calls):
            for _ in range(n):
                call()
    return [core for core, _call in rigs]


def test_profile_adds_up_across_machines():
    session = obs.ObsSession(profile=True)
    first, second = two_machines(session)
    prof = session.profiler
    assert prof.attributed == first.cycles + second.cycles > 0
    assert prof.clock_cycles() == prof.attributed
    assert prof.complete()


def test_profiler_roots_match_the_pmu_bank_labels():
    session = obs.ObsSession(profile=True)
    two_machines(session)
    roots = [root.label for root in session.profiler.roots()]
    banks = [label for label in session.pmu.snapshot().labels()
             if label.startswith(("core", "m1."))]
    assert roots == banks == ["core0", "m1.core0"]
    assert {path.split(";")[0]
            for path in session.profiler.collapsed()} == set(roots)


def test_second_machine_span_does_not_nest_under_the_first():
    session = obs.ObsSession(profile=True)
    first, second = two_machines(session, calls=(0, 0))
    with obs.active(session):
        outer = session.spans.begin(first, "outer")
        other = session.spans.begin(second, "other")
        assert other.parent_id is None
        assert other.trace_id != outer.trace_id
        assert session.spans.open_depth(first) == 1
        assert session.spans.open_depth(second) == 1
        assert session.profiler.open_depth(first) == 1
        assert session.profiler.open_depth(second) == 1
        session.spans.end(second, other)
        session.spans.end(first, outer)
    assert outer.args.get("truncated") is None


def test_machines_draw_on_different_chrome_tracks():
    session = obs.ObsSession(profile=True)
    first, second = two_machines(session)
    events = session.report("run")["trace_events"]
    tracks = {(e["pid"], e["tid"]) for e in events}
    assert tracks == {("run", 0), ("m1.run", 0)}
    by_track = {}
    for event in events:
        if event["ph"] == "X":
            by_track.setdefault(event["pid"], []).append(event)
    # Each machine's spans lie inside its own core's clock.
    assert max(e["ts"] + e["dur"] for e in by_track["run"]) <= first.cycles
    assert max(e["ts"] + e["dur"]
               for e in by_track["m1.run"]) <= second.cycles
