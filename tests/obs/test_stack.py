"""End-to-end observability over the real stack.

The acceptance scenario: a fig7-shaped client→fs→blockdev workload on
seL4-XPC exports a valid Chrome trace whose spans nest causally down
the whole chain, the PMU's Figure-5 phase breakdown accounts for every
engine cycle, and — the null-sink property — running with obs enabled
does not move the simulated clock by a single cycle.
"""

import json

import pytest

import repro.faults as faults
import repro.obs as obs
from repro.faults import FaultPlan
from repro.hw.machine import Machine
from repro.kernel.kernel import BaseKernel
from repro.runtime.xpclib import XPCService, xpc_call
from repro.sel4 import Sel4Kernel, Sel4XPCTransport
from repro.services.fs import build_fs_stack
from repro.xpc.errors import XPCPeerDiedError

MEM = 128 * 1024 * 1024


def run_fig7_workload():
    """One fs read/write pass over the two-server FS stack; returns
    (machine, total cycles)."""
    machine = Machine(cores=2, mem_bytes=MEM)
    kernel = Sel4Kernel(machine)
    client_proc = kernel.create_process("app")
    client_thread = kernel.create_thread(client_proc)
    kernel.run_thread(machine.core0, client_thread)
    transport = Sel4XPCTransport(kernel, machine.core0, client_thread)
    server, fs, disk = build_fs_stack(transport, kernel,
                                      disk_blocks=256)
    fs.create("/data")
    fs.write("/data", b"x" * 4096)
    assert fs.read("/data", 0, 4096) == b"x" * 4096
    return machine, sum(core.cycles for core in machine.cores)


class TestFig7Trace:
    @pytest.fixture(scope="class")
    def session(self):
        with obs.active(obs.ObsSession()) as session:
            run_fig7_workload()
        return session

    def test_chain_nests_causally(self, session):
        """client call → engine xcall → fs handler → fs op → nested
        blockdev call: at least 3 levels of causal nesting, with child
        windows inside their parents on the cycle axis."""
        spans = {s.span_id: s for s in session.spans.spans}
        fs_reads = session.spans.find("fs:read")
        assert fs_reads, "no fs:read span recorded"
        for leaf in fs_reads:
            depth = 0
            node = leaf
            while node.parent_id is not None:
                parent = spans[node.parent_id]
                assert parent.trace_id == node.trace_id
                assert parent.start <= node.start
                assert parent.end >= node.end
                node = parent
                depth += 1
            assert depth >= 3
            names = {spans[i].name for i in self._ancestors(leaf, spans)}
            assert "handler:fs" in names
            assert any(n.startswith("call:fs") for n in names)
            assert any(n.startswith("xcall#") for n in names)

    @staticmethod
    def _ancestors(span, spans):
        while span.parent_id is not None:
            span = spans[span.parent_id]
            yield span.span_id

    def test_fs_op_contains_blockdev_call(self, session):
        """The server→server leg: blockdev transport calls are children
        of the fs operation that issued them."""
        spans = {s.span_id: s for s in session.spans.spans}
        blk = [s for s in session.spans.spans
               if s.name.startswith("call:blockdev")
               and s.parent_id is not None]   # mkfs-time calls are roots
        assert blk
        assert all(spans[s.parent_id].name.startswith("fs:")
                   for s in blk)

    def test_chrome_export_is_valid_and_cycle_stamped(self, session):
        doc = json.loads(session.spans.chrome_json(pid="fig7"))
        events = doc["traceEvents"]
        assert events and all(
            e["ph"] in ("X", "i") for e in events)
        for event in events:
            assert event["ts"] >= 0
            if event["ph"] == "X":
                assert event["dur"] >= 0
        by_id = {e["args"]["span_id"]: e for e in events
                 if e["ph"] == "X"}
        span = session.spans.find("fs:read")[0]
        exported = by_id[span.span_id]
        assert exported["ts"] == span.start
        assert exported["dur"] == span.duration

    def test_fig5_phase_sum_invariant(self, session):
        snap = session.pmu.snapshot()
        bank = snap.bank("core0")
        assert (bank["cycles.xcall.captest"]
                + bank["cycles.xcall.xentry"]
                + bank["cycles.xcall.linkpush"]) == bank["xcall.cycles"]
        assert bank["xcall.cycles"] > 0

    def test_registry_saw_every_layer(self, session):
        names = session.registry.names()
        assert any(n.startswith("fs.op_cycles.") for n in names)
        hist = session.registry.get("transport.payload_bytes")
        assert hist is not None and hist.count > 0

    def test_report_artifact_is_json_serializable(self, session):
        artifact = session.report("fig7")
        blob = json.dumps(artifact)
        back = json.loads(blob)
        assert back["title"] == "fig7"
        assert back["spans"]["finished"] == len(session.spans)
        assert back["span_summary"][0]["count"] >= 1
        assert len(back["trace_events"]) >= len(session.spans)


def test_obs_is_cycle_invisible():
    """The null-sink property, the PR's core acceptance bar: the same
    workload spends exactly the same simulated cycles with the full
    observability stack armed as with it disarmed."""
    _, cycles_off = run_fig7_workload()
    with obs.active(obs.ObsSession()) as session:
        _, cycles_on = run_fig7_workload()
    assert cycles_on == cycles_off
    assert len(session.spans) > 0          # ...and it really observed


def test_fault_injection_is_annotated_and_counted():
    machine = Machine(cores=1, mem_bytes=MEM)
    with obs.active(obs.ObsSession()) as session:
        kernel = BaseKernel(machine)
        session.attach(machine, kernel)
        server = kernel.create_process("echo")
        st = kernel.create_thread(server)
        kernel.run_thread(machine.core0, st)
        svc = XPCService(kernel, machine.core0, st, lambda call: "ok")
        client = kernel.create_process("client")
        ct = kernel.create_thread(client)
        kernel.grant_xcall_cap(machine.core0, server, ct, svc.entry_id)
        kernel.run_thread(machine.core0, ct)

        plan = FaultPlan(17).arm("xpc.callee_crash", nth=1)
        with faults.active(plan):
            with pytest.raises(XPCPeerDiedError):
                xpc_call(machine.core0, svc.entry_id, kernel=kernel)

        counter = session.registry.get(
            "faults.injected.xpc.callee_crash")
        assert counter is not None and counter.value == 1
        notes = [note for span in session.spans.spans
                 for note in span.events]
        assert any(n["name"] == "fault:xpc.callee_crash" for n in notes)
        assert session.registry.get("xpc.peer_died").value == 1
        assert session.spans.open_depth(machine.core0) == 0


def test_repair_path_closes_orphaned_spans():
    """§4.2: A→B→C with B killed mid-chain.  The repair pops both
    records, so both xcall spans are closed by the kernel — never left
    dangling — and marked with what the repair found."""
    with obs.active(obs.ObsSession()) as session:
        machine = Machine(cores=1, mem_bytes=MEM)
        kernel = BaseKernel(machine)
        core = machine.core0
        a = kernel.create_process("A")
        b = kernel.create_process("B")
        c = kernel.create_process("C")
        at = kernel.create_thread(a)
        bt = kernel.create_thread(b)
        ct = kernel.create_thread(c)
        entry_b = kernel.register_xentry(core, bt, lambda *x: None)
        entry_c = kernel.register_xentry(core, ct, lambda *x: None)
        kernel.grant_xcall_cap(core, b, at, entry_b.entry_id)
        kernel.grant_xcall_cap(core, c, bt, entry_c.entry_id)
        kernel.run_thread(core, at)
        engine = machine.engines[0]
        engine.xcall(entry_b.entry_id)
        engine.xcall(entry_c.entry_id)
        assert session.spans.open_depth(core) == 2
        kernel.kill_process(b, lazy=False)
        assert kernel.repair_return(core, at) is not None

        assert session.spans.open_depth(core) == 0
        repaired = {s.name: s.args for s in session.spans.spans
                    if s.args.get("repaired")}
        assert set(repaired) == {f"xcall#{entry_b.entry_id}",
                                 f"xcall#{entry_c.entry_id}"}
        # B→C's record found its caller B dead; A→B's found A alive.
        assert repaired[f"xcall#{entry_c.entry_id}"]["restored"] is False
        assert repaired[f"xcall#{entry_b.entry_id}"]["restored"] is True
