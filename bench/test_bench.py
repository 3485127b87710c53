"""Tests of the benchmark itself, at tiny sizes: ``python -m pytest bench -q``."""

from __future__ import annotations

import copy
import json
import random
import shutil
import subprocess
import sys

import pytest

from bench import ROOT, use_checkout_src
from bench.compare import compare
from bench.layers import LAYERS, Tracer, resolve
from bench.runner import FAIL_RATIO, benchmark_spec, contract_line, measure
from bench.workloads import WORKLOADS, XcallEcho

use_checkout_src()

SIM = ("sim_cycles", "sim_p50_cycles", "sim_p99_cycles", FAIL_RATIO)
TINY = {"calls": 60, "rounds": 3, "requests": 400, "programs": 3}


def tiny(name: str):
    """The named workload with its run length cut down."""
    workload = copy.copy(WORKLOADS[name])
    for attr, n in TINY.items():
        if isinstance(getattr(workload, attr, None), int):
            setattr(workload, attr, n)
    return workload


def sim(result: dict) -> dict:
    return {name: result["metrics"][name] for name in SIM}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_listed_metric_is_emitted(name):
    spec = benchmark_spec()
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    result = measure(tiny(name), seed=3, seconds=0, trace=True)
    assert result["correct"] and result["deterministic"]
    for trace, listed in ((False, "end_to_end"), (True, "per_layer")):
        line = contract_line(result, spec, trace)
        assert set(line["metrics"]) == {m["name"] for m in spec[listed]}
        assert line["attempted"] >= 1 and line["failed"] == 0
    assert all(result["metrics"][m["name"]] > 0
               for m in spec["end_to_end"])


def test_seed_drives_the_simulated_results():
    first = measure(tiny("cluster_read"), seed=5, seconds=0)
    again = measure(tiny("cluster_read"), seed=5, seconds=0)
    other = measure(tiny("cluster_read"), seed=6, seconds=0)
    assert sim(first) == sim(again)
    assert first["counters"] == again["counters"]
    assert other["metrics"]["sim_cycles"] != first["metrics"]["sim_cycles"]


class WrongEcho:
    """An echo server that corrupts a seeded tenth of its replies."""

    def __init__(self) -> None:
        self.rng = random.Random(11)

    def __call__(self, meta, payload):
        data = bytearray(payload.read(meta[1]))
        if self.rng.random() < 0.1:
            data[0] ^= 0xFF
        return ("ok", len(data)), bytes(data)


def test_wrong_replies_count_as_failures():
    result = measure(XcallEcho(calls=100, handler=WrongEcho), seed=1,
                     seconds=0)
    assert result["metrics"][FAIL_RATIO] > 0
    assert not result["correct"]


def _wrapped_leftovers() -> list:
    leftovers = []
    for rows in LAYERS.values():
        for module, owner, names in rows:
            for name in names:
                if hasattr(resolve(module, owner, name), "__wrapped__"):
                    leftovers.append((module, owner, name))
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("repro") and hasattr(
                vars(mod).get("xpc_call"), "__wrapped__"):
            leftovers.append(mod.__name__)
    return leftovers


@pytest.mark.parametrize("name", ["xcall_echo", "fuzz_diff"])
def test_tracing_changes_no_simulated_result(name):
    plain = measure(tiny(name), seed=2, seconds=0)
    traced = measure(tiny(name), seed=2, seconds=0, trace=True)
    assert traced["deterministic"]
    assert sim(traced) == sim(plain)
    assert traced["layers"]["bench.trace_overhead"] > 0
    assert _wrapped_leftovers() == []


def test_tracer_restores_every_wrapped_attribute():
    tracer = Tracer()
    tracer.install()
    patched = tracer.patched()
    assert len(patched) >= sum(len(names) for rows in LAYERS.values()
                               for _, _, names in rows)
    tracer.uninstall()
    assert tracer.patched() == []
    for owner, name, original in patched:
        assert vars(owner)[name] is original
    assert _wrapped_leftovers() == []


def test_layer_table_resolves():
    """A rename under src/ must fail here, not silently drop a layer."""
    for layer, rows in LAYERS.items():
        assert rows, layer
        for module, owner, names in rows:
            for name in names:
                fn = resolve(module, owner, name)
                assert callable(fn), (layer, module, owner, name)


def _bench_doc(seed: int = 1, chunk_rates=(1000.0, 1001.0, 999.0),
               **metrics) -> dict:
    base = {"ops_per_host_s": 1000.0, "setup_s": 0.5, "peak_rss_mb": 50.0,
            "sim_cycles": 100, "sim_p50_cycles": 10, "sim_p99_cycles": 20,
            FAIL_RATIO: 0.0}
    base.update(metrics)
    return {"run": {"seed": seed, "workloads": {"w": {
        "metrics": base, "chunk_rates": list(chunk_rates),
        "setup_samples": [0.5, 0.5, 0.5]}}}}


def _labels(rows) -> dict:
    return {name: label for _, name, _, _, _, _, label in rows}


def test_compare_fails_only_on_simulated_regressions():
    spec = benchmark_spec()
    rows, regressed = compare(_bench_doc(), _bench_doc(
        ops_per_host_s=500.0, setup_s=1.0), spec)
    labels = _labels(rows)
    assert labels["ops_per_host_s"] == "worse"
    assert labels["setup_s"] == "worse"
    assert labels["sim_cycles"] == "unchanged"
    assert not regressed
    rows, regressed = compare(_bench_doc(), _bench_doc(sim_p99_cycles=21),
                              spec)
    assert _labels(rows)["sim_p99_cycles"] == "worse" and regressed
    rows, regressed = compare(_bench_doc(), _bench_doc(**{FAIL_RATIO: 0.1}),
                              spec)
    assert _labels(rows)[FAIL_RATIO] == "worse" and regressed


def test_compare_reports_wide_spread_as_unresolved():
    old = _bench_doc()
    new = _bench_doc(ops_per_host_s=1100.0,
                     chunk_rates=[600.0, 1100.0, 1600.0])
    rows, _ = compare(old, new, benchmark_spec())
    assert _labels(rows)["ops_per_host_s"] == "unresolved"


def test_compare_pairs_chunks_that_do_different_work():
    """Chunk rates falling 14k -> 7.8k across a pass spread far wider
    than the bound, but a uniform 25 % slowdown pairs up tightly."""
    old_rates = [14_000.0 - 326.0 * i for i in range(20)]
    rng = random.Random(4)
    new_rates = [r * 0.75 * (1 + rng.uniform(-0.01, 0.01))
                 for r in old_rates]
    old = _bench_doc(ops_per_host_s=10_900.0, chunk_rates=old_rates)
    new = _bench_doc(ops_per_host_s=8_175.0, chunk_rates=new_rates)
    rows, regressed = compare(old, new, benchmark_spec())
    assert _labels(rows)["ops_per_host_s"] == "worse" and not regressed


def test_compare_leaves_simulated_metrics_open_across_seeds():
    rows, regressed = compare(_bench_doc(seed=1),
                              _bench_doc(seed=2, sim_cycles=150),
                              benchmark_spec())
    labels = _labels(rows)
    assert labels["sim_cycles"] == "unresolved"
    assert labels[FAIL_RATIO] == "unresolved"
    assert labels["ops_per_host_s"] == "unchanged"
    assert not regressed


def test_fails_without_the_simulator(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    spec = json.loads((tmp_path / "BENCHMARK.json").read_text())
    cmd = [sys.executable if part == "python3" else part
           for part in spec["command"]]
    proc = subprocess.run(cmd + ["--workload", "xcall_echo", "--seed", "1",
                                 "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
