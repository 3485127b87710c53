"""Measure one workload in this process and report its metrics.

:func:`measure` is the whole protocol for one run:

1. Set up :data:`SETUP_REPS` times.  Each set-up drops every ``repro``
   module, then times the fresh import, the input generation and the
   first system's construction.  ``setup_s`` is the median.
2. Run timed passes for *seconds* (at least one).  Every pass after
   the first gets a fresh system, built outside the timed region, and
   must reproduce the first pass's simulated results exactly.
   ``ops_per_host_s`` comes from :func:`best_chunks`.
3. With *trace*, the first pass runs untraced and every later pass runs
   under the layer wrappers of :mod:`bench.layers`; the traced passes
   must still reproduce the untraced simulated results.
"""

from __future__ import annotations

import gc
import json
import math
import resource
import statistics
import sys
import time
from typing import Dict, List, Tuple

from bench import ROOT
from bench.layers import LAYERS, Tracer
from bench.workloads import COUNTERS, ChunkClock, Pass

SETUP_REPS = 5
#: Extra end-to-end metric kept in BENCH files; the ``measure`` result
#: line reports it through ``attempted`` and ``failed`` instead, because
#: a metric listed in ``BENCHMARK.json`` must never read 0.
FAIL_RATIO = "fail_ratio"


def benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def percentile(values: List[int], p: float) -> int:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def best_chunks(passes: List[Pass]) -> List[Tuple[int, float]]:
    """(ops, fastest host seconds) of each chunk across passes.

    Every pass repeats the same work chunk for chunk, and other
    processes on a shared host only ever add time, so each chunk's
    fastest pass is its least disturbed measurement.  Total ops over
    the summed fastest times spreads 3 % across runs on a shared 2-vCPU
    VM, where the median chunk rate spreads 5-10 %.
    """
    return [(samples[0][0], min(t for _, t in samples))
            for samples in zip(*(p.chunks() for p in passes))]


def peak_rss_mb() -> float:
    # Linux reports ru_maxrss in KiB.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _forget_repro() -> None:
    for name in [m for m in sys.modules
                 if m == "repro" or m.startswith("repro.")]:
        del sys.modules[name]


def _set_up(workload, seed: int):
    samples = []
    for _ in range(SETUP_REPS):
        _forget_repro()
        start = time.perf_counter()
        inputs = workload.inputs(seed)
        system = workload.system(inputs)
        samples.append(time.perf_counter() - start)
    return samples, inputs, system


def measure(workload, seed: int, seconds: float,
            trace: bool = False) -> dict:
    """Run *workload* once; returns every metric plus the raw samples."""
    setup, inputs, system = _set_up(workload, seed)
    started = time.perf_counter()
    first = workload.run(system, inputs,
                         ChunkClock(workload.units(inputs)))
    del system
    passes: List[Pass] = [first]
    tracer = Tracer() if trace else None

    def another() -> bool:
        if trace and len(passes) == 1:
            return True     # a traced run needs one traced pass
        spent = time.perf_counter() - started
        return spent + passes[-1].host_s <= seconds

    def fresh_system():
        # Collecting the last pass's garbage first keeps the peak RSS
        # independent of how many passes ran.
        gc.collect()
        return workload.system(inputs)

    if tracer is None:
        while another():
            passes.append(workload.run(fresh_system(), inputs,
                                       ChunkClock(workload.units(inputs))))
    else:
        # Systems are built after install(), so no bound method captured
        # during construction escapes the wrappers.
        with tracer.installed():
            while another():
                system = fresh_system()
                with tracer.recording():
                    passes.append(workload.run(system, inputs, ChunkClock(
                        workload.units(inputs), on_unit=tracer.set_op)))
                del system
    attempted = sum(p.ops for p in passes)
    failed = sum(p.failed for p in passes)
    deterministic = all(p.simulated() == first.simulated()
                        for p in passes[1:])
    # End-to-end host metrics come from untraced passes only.
    chunks = best_chunks(passes[:1] if trace else passes)
    result = {
        "workload": workload.name,
        "seed": seed,
        "passes": len(passes),
        "correct": failed == 0 and deterministic,
        "deterministic": deterministic,
        "attempted": attempted,
        "failed": failed,
        # Chunk i of one run pairs with chunk i of another (compare).
        "chunk_rates": [ops / seconds for ops, seconds in chunks],
        "setup_samples": setup,
        "counters": first.counters,
        "metrics": {
            "ops_per_host_s": (sum(ops for ops, _ in chunks)
                               / sum(seconds for _, seconds in chunks)),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss_mb(),
            "sim_cycles": first.sim_cycles,
            "sim_p50_cycles": percentile(first.latencies, 50),
            "sim_p99_cycles": percentile(first.latencies, 99),
            FAIL_RATIO: failed / attempted,
        },
    }
    if tracer is not None:
        result["layers"] = _layer_metrics(tracer, first, passes[1:])
        result["chrome_trace"] = tracer.chrome_trace()
    return result


def _layer_metrics(tracer: Tracer, untraced: Pass,
                   traced: List[Pass]) -> Dict[str, float]:
    n = len(traced)
    out: Dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = round(tracer.calls[layer] / n)
        out[f"{layer}.self_s"] = tracer.self_ns[layer] / 1e9 / n
        out[f"{layer}.share"] = tracer.self_ns[layer] / tracer.recorded_ns
    out["bench.unattributed_share"] = 1.0 - sum(
        out[f"{layer}.share"] for layer in LAYERS)
    out["bench.trace_overhead"] = (
        statistics.median(p.host_s for p in traced) / untraced.host_s)
    out.update({name: untraced.counters[name] for name in COUNTERS})
    return out


def contract_line(result: dict, spec: dict, trace: bool) -> dict:
    """The last stdout line: end-to-end metrics, or per-layer ones when
    traced, named and with units as ``BENCHMARK.json`` lists them."""
    values = result["layers"] if trace else result["metrics"]
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]],
                                "unit": m["unit"]} for m in listed},
    }
