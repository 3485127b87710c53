"""Differential-fuzz throughput smoke.

Runs a fixed batch of generated programs through the full executor
fleet (every transport, the batcher, and the fault-armed variants) and
records how many simulated cycles the campaign burns per program and
per op.  The numbers are fully deterministic — fixed generator seeds,
fixed fault seeds, simulated clock — so they double as a regression
fence: a mechanism whose cycle charging drifts shows up here even when
its outcomes still agree with the oracle.
"""

import os
import time

from repro.proptest.executors import SyncExecutor, default_executor_factories
from repro.proptest.fastexec import FastCoreExecutor
from repro.proptest.gen import generate
from repro.proptest.harness import run_differential
from repro.sel4 import Sel4Kernel, Sel4XPCTransport

SEEDS = (0, 1, 2, 3)

#: Program seeds for the fast-core replay race (>= 20 programs, per the
#: fast-core acceptance bar) and the wall-clock floor it must clear.
SPEEDUP_SEEDS = tuple(range(24))
SPEEDUP_FLOOR = 10.0


def test_fuzz_campaign_throughput(benchmark, results):
    def run_campaign():
        total_ops = 0
        total_cycles = 0
        per_seed = {}
        for seed in SEEDS:
            program = generate(seed)
            result = run_differential(program)
            assert result.ok, [d.describe() for d in result.divergences]
            total_ops += len(program) * len(result.reports)
            total_cycles += result.sim_cycles
            per_seed[seed] = result.sim_cycles
        return total_ops, total_cycles, per_seed

    total_ops, total_cycles, per_seed = benchmark.pedantic(
        run_campaign, rounds=1, iterations=1)

    executors = len(default_executor_factories())
    ops_per_mcycle = total_ops / (total_cycles / 1e6)
    print(f"\nfuzz campaign: {len(SEEDS)} programs x {executors} "
          f"executors, {total_ops} executed ops, "
          f"{total_cycles} simulated cycles "
          f"({ops_per_mcycle:.1f} ops/Mcycle)")
    for seed, cycles in per_seed.items():
        print(f"  seed {seed}: {cycles} cycles")

    assert total_cycles > 0 and total_ops > 0
    results.record("fuzz_throughput", {
        "programs": len(SEEDS),
        "executors": executors,
        "executed_ops": total_ops,
        "sim_cycles": total_cycles,
        "ops_per_mcycle": round(ops_per_mcycle, 2),
    })


def _reference_executor():
    return SyncExecutor("seL4-XPC", Sel4Kernel, Sel4XPCTransport,
                        is_xpc=True)


def test_fastcore_speedup(results):
    """The table-driven fast core replays fuzz programs >= 10x faster
    than the reference engine — while staying byte-identical.

    Every program runs on both cores; outcomes AND per-op cycle deltas
    are compared element-wise (the same strict-equivalence contract the
    harness enforces), then the two wall-clock loops are raced.
    """
    programs = [generate(seed) for seed in SPEEDUP_SEEDS]

    # Warm both paths (imports, table cache, allocator) off the clock.
    _reference_executor().run(programs[0])
    FastCoreExecutor().run(programs[0])

    t0 = time.perf_counter()
    ref_reports = [_reference_executor().run(p) for p in programs]
    ref_wall = time.perf_counter() - t0

    t0 = time.perf_counter()
    fast_reports = [FastCoreExecutor().run(p) for p in programs]
    fast_wall = time.perf_counter() - t0

    # Strict equivalence over every program, op by op.
    total_ops = 0
    total_cycles = 0
    for program, ref, fast in zip(programs, ref_reports, fast_reports):
        assert fast.outcomes == ref.outcomes, program.seed
        assert fast.op_cycles == ref.op_cycles, program.seed
        total_ops += len(program)
        total_cycles += sum(ref.op_cycles)

    speedup = ref_wall / fast_wall
    print(f"\nfast-core replay race: {len(programs)} programs, "
          f"{total_ops} ops, {total_cycles} simulated cycles")
    print(f"  reference: {ref_wall * 1e3:8.1f} ms")
    print(f"  fastcore:  {fast_wall * 1e3:8.1f} ms  "
          f"({speedup:.0f}x)")
    assert speedup >= SPEEDUP_FLOOR, (
        f"fast core only {speedup:.1f}x faster than the reference "
        f"(floor {SPEEDUP_FLOOR:.0f}x)")

    entry = {
        "programs": len(programs),
        "executed_ops": total_ops,
        "sim_cycles": total_cycles,
        "identical_outcomes": True,
        "identical_cycles": True,
        "min_wall_speedup": SPEEDUP_FLOOR,
        "meets_min_wall_speedup": True,
    }
    # The measured ratio jitters run to run (host load, CPython
    # version), so it lands in the committed baseline only when
    # blessing; unblessed runs assert the floor and print the ratio.
    if os.environ.get("REPRO_BLESS") == "1":
        entry["wall_speedup_observed"] = round(speedup, 1)
    results.record("fastcore_speedup", entry)
