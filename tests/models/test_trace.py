"""The machine's event stream: probe.EventLog and the obs xcall spans."""

from collections import Counter

import pytest

import repro.obs as obs
import repro.probe as probe
from repro.hw.cpu import TrapCause
from repro.hw.machine import Machine
from repro.kernel.kernel import BaseKernel
from repro.runtime.xpclib import XPCService, xpc_call
from tests.conftest import TRANSPORT_SPECS, build_transport, \
    register_echo


def echo_world():
    machine = Machine(cores=1, mem_bytes=64 * 1024 * 1024)
    kernel = BaseKernel(machine)
    core = machine.core0
    server = kernel.create_process("server")
    client = kernel.create_process("client")
    st = kernel.create_thread(server)
    ct = kernel.create_thread(client)
    kernel.run_thread(core, st)
    svc = XPCService(kernel, core, st, lambda call: "ok")
    kernel.grant_xcall_cap(core, server, ct, svc.entry_id)
    kernel.run_thread(core, ct)
    return machine, core, svc


def logged_calls(calls=1):
    """Set up off the log, then record *calls* xpc_calls."""
    machine, core, svc = echo_world()
    with probe.EventLog() as log:
        for _ in range(calls):
            xpc_call(core, svc.entry_id)
    return log


def kinds(log):
    return Counter(e.kind for e in log.events)


def test_xcall_xret_recorded_in_order():
    log = logged_calls()
    order = [e.kind for e in log.events]
    assert order.index("xcall") < order.index("xret")
    counts = kinds(log)
    assert counts["xcall"] == counts["xret"] == 1
    # No kernel trap happened anywhere on the path.
    assert "trap" not in counts


def test_baseline_ipc_traps_visible():
    machine, kernel, transport, ct = build_transport(TRANSPORT_SPECS[0])
    sid = register_echo(kernel, transport)
    with probe.EventLog() as log:
        transport.call(sid, (), b"x")
    counts = kinds(log)
    assert counts.get("trap", 0) >= 2      # request + reply
    assert "xcall" not in counts


def test_spans_pair_nested_calls():
    machine, core, svc = echo_world()
    with obs.active(obs.ObsSession()) as session:
        xpc_call(core, svc.entry_id)
        xpc_call(core, svc.entry_id)
    spans = session.spans.find(f"xcall#{svc.entry_id}")
    assert len(spans) == 2
    assert all(span.duration > 0 for span in spans)


def test_filter_by_kind_and_core():
    log = logged_calls()
    xcalls = [e for e in log.events if e.kind == "xcall"]
    assert xcalls[0].core_id == 0
    assert [e for e in xcalls if e.core_id == 1] == []


class FakeCore:
    def __init__(self, cycles=5, core_id=0):
        self.cycles = cycles
        self.core_id = core_id


def test_capacity_bound():
    with probe.EventLog(capacity=2) as log:
        for _ in range(5):
            probe.trap(FakeCore(), TrapCause.SYSCALL)
    assert len(log.events) == 2
    assert log.dropped == 3
    assert "dropped" in log.to_text()


def test_overflow_keeps_most_recent_events():
    with probe.EventLog(capacity=3) as log:
        for i in range(6):
            probe.trap(FakeCore(cycles=i), TrapCause.SYSCALL)
    # Ring-buffer semantics: the window holds the *newest* events and
    # the evictions are counted.
    assert [e.cycle for e in log.events] == [3, 4, 5]
    assert log.dropped == 3


def test_clear_resets_dropped():
    """Each log is its own window: a fresh one starts from zero while
    the full one keeps its eviction count."""
    with probe.EventLog(capacity=1) as full:
        probe.trap(FakeCore(), TrapCause.SYSCALL)
        probe.trap(FakeCore(), TrapCause.SYSCALL)
    with probe.EventLog(capacity=1) as fresh:
        probe.swapseg(FakeCore(), 0)
    assert full.dropped == 1 and len(full.events) == 1
    assert fresh.dropped == 0
    assert [e.kind for e in fresh.events] == ["swapseg"]


def test_events_are_cycle_ordered():
    log = logged_calls(calls=2)
    cycles = [e.cycle for e in log.events if e.core_id == 0]
    assert cycles == sorted(cycles)
    assert len(cycles) >= 4            # two xcall/xret pairs at least


def test_filter_composes_kind_and_count():
    log = logged_calls()
    by_kind = sum(kinds(log).values())
    assert by_kind == len(log.events)


def test_to_text_truncates_long_traces():
    with probe.EventLog() as log:
        for i in range(60):
            probe.trap(FakeCore(cycles=i), TrapCause.SYSCALL)
    text = log.to_text(limit=10)
    assert "50 more events" in text


def test_to_text_renders_events():
    text = logged_calls().to_text()
    assert "xcall" in text and "core0" in text


def test_detach_stops_recording():
    machine, core, svc = echo_world()
    with probe.EventLog() as log:
        pass
    xpc_call(core, svc.entry_id)
    assert len(log.events) == 0
    assert probe.XCALL == ()


def test_bad_capacity():
    with pytest.raises(ValueError):
        probe.EventLog(capacity=0)


def test_event_str():
    event = probe.Event(123, 1, "xcall", "entry=5")
    assert "core1" in str(event) and "entry=5" in str(event)
