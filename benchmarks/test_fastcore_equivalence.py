"""Fast-core equivalence: precomputed tables vs the measured engine.

The tables in :mod:`repro.fastcore` claim to *predict* the reference
engine, not merely approximate it.  This benchmark pins that claim to
the two figures the cost model was calibrated against:

* **Figure 5 ladder** — for each optimization rung, the table's
  ``oneway()`` sum must equal the one-way cycles measured on a real
  :class:`~repro.hw.machine.Machine` (and both must equal the paper's
  number), and ``roundtrip()`` must equal the full measured
  ``xpc_call`` delta.
* **Figure 7-style sweep** — per-call cycles of the seL4-XPC transport
  across payload sizes must equal ``call_ok + fill(size)`` exactly,
  with the first call carrying precisely one relay-segment creation.
"""

from repro.fastcore import cycle_table
from repro.proptest.executors import SyncExecutor
from repro.proptest.grammar import (CallOp, GrantOp, Program,
                                    RegisterOp)
from repro.sel4 import Sel4Kernel, Sel4XPCTransport

from benchmarks.test_fig5_xpc_breakdown import CONFIGS, PAPER, oneway_cycles

#: Figure 7's FS buffer ladder (bytes per call).
BUF_SIZES = [2048, 4096, 8192, 16384]


def test_fig5_ladder_matches_tables(results):
    """Every rung: measured one-way == table.oneway() == paper."""
    measured = {}
    predicted = {}
    for name, cfg in CONFIGS.items():
        table = cycle_table(tagged=cfg["tagged"], partial=cfg["partial"],
                            nonblock=cfg["nonblock"], cache=cfg["cache"])
        measured[name] = oneway_cycles(**cfg)
        predicted[name] = table.oneway()
    print("\nfig5 ladder (measured / table / paper):")
    for name in PAPER:
        print(f"  {name:<22} {measured[name]:>4} / "
              f"{predicted[name]:>4} / {PAPER[name]:>4}")
    assert measured == predicted == PAPER
    results.record("fastcore_equivalence", {
        "fig5_ladder_exact": True,
        "fig5_configs": len(CONFIGS),
    })


def test_roundtrip_matches_tables(results):
    """Full xpc_call round-trip (trivial handler) == table.roundtrip().

    Measured the same way fig5 measures, but through the whole
    call-and-return (xcall + switch + trampoline + xret + switch),
    which exercises the return half the one-way number never sees.
    """
    from repro.hw.machine import Machine
    from repro.kernel.kernel import BaseKernel
    from repro.runtime.xpclib import XPCService, xpc_call
    from repro.xpc.engine import XPCConfig

    for name, cfg in CONFIGS.items():
        machine = Machine(
            cores=1, mem_bytes=64 * 1024 * 1024,
            tagged_tlb=cfg["tagged"],
            xpc_config=XPCConfig(
                nonblocking_linkstack=cfg["nonblock"],
                engine_cache=cfg["cache"]))
        kernel = BaseKernel(machine)
        core = machine.core0
        server = kernel.create_process("server")
        client = kernel.create_process("client")
        st = kernel.create_thread(server)
        ct = kernel.create_thread(client)
        kernel.run_thread(core, st)
        service = XPCService(kernel, core, st, lambda call: None,
                             partial_context=cfg["partial"])
        kernel.grant_xcall_cap(core, server, ct, service.entry_id)
        kernel.run_thread(core, ct)
        if cfg["cache"]:
            machine.engines[0].prefetch(service.entry_id)
        start = core.cycles
        xpc_call(core, service.entry_id)
        delta = core.cycles - start
        table = cycle_table(tagged=cfg["tagged"], partial=cfg["partial"],
                            nonblock=cfg["nonblock"], cache=cfg["cache"])
        assert delta == table.roundtrip(), name
    results.record("fastcore_equivalence", {
        "roundtrip_exact": True,
    })


def test_payload_sweep_matches_tables(results):
    """seL4-XPC transport per-call cycles across Figure 7's buffer
    ladder == ``call_ok + fill(size)`` element-wise; the first call's
    surplus is exactly one relay-segment creation."""
    ops = [RegisterOp("echo", "echo"), GrantOp("echo")]
    for size in BUF_SIZES:
        ops.append(CallOp("echo", ("echo", size), b"x" * size, size))
    program = Program(tuple(ops))
    report = SyncExecutor("seL4-XPC", Sel4Kernel, Sel4XPCTransport,
                          is_xpc=True).run(program)
    for outcome in report.outcomes:
        assert outcome[0] == "ok"
    table = cycle_table()
    predicted = [table.call_ok + table.fill(n) for n in BUF_SIZES]
    measured = report.op_cycles[2:]
    print("\nfig7-style sweep (buffer: measured / table):")
    for size, got, want in zip(BUF_SIZES, measured, predicted):
        print(f"  {size:>6}B: {got:>5} / {want:>5}")
    # The first call grows the relay segment once; the rest are pure
    # table sums.
    assert measured[0] == predicted[0] + table.seg_create_default
    assert measured[1:] == predicted[1:]
    results.record("fastcore_equivalence", {
        "payload_sweep_exact": True,
        "payload_sweep_sizes": len(BUF_SIZES),
    })

