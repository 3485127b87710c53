"""``python -m bench compare OLD NEW``: every workload x metric, judged.

Host metrics are judged against their ``BENCHMARK.json`` bound: a
change larger than the bound is better or worse, a smaller one is
unchanged.  Every run of a workload stores the same samples (chunk
rates, set-up times) in the same order, so sample i of NEW pairs with
sample i of OLD and the different work of each sample cancels out.  A
host metric whose paired ratios new/old spread (quartile distance over
the median) wider than the bound is unresolved, unless every ratio lies
on the same side of 1.  Simulated metrics and ``fail_ratio`` are
deterministic at a fixed seed, so any change counts and only those can
fail the comparison; between runs at different seeds they are
unresolved.
"""

from __future__ import annotations

import statistics
from typing import List, Optional, Tuple

from bench.runner import FAIL_RATIO

EXACT = ("sim_cycles", "sim_p50_cycles", "sim_p99_cycles", FAIL_RATIO)
#: Stored samples behind each host metric, the same work sample for
#: sample in every run of a workload.
SAMPLES = {"ops_per_host_s": "chunk_rates", "setup_s": "setup_samples"}


def spread(samples: List[float]) -> float:
    """Quartile distance over the median (0 for fewer than 2 samples)."""
    if len(samples) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / statistics.median(samples)


def paired_ratios(name: str, old: dict, new: dict
                  ) -> Optional[List[float]]:
    """new/old of each pair of stored samples behind a host metric:
    none for ``peak_rss_mb``, which has one sample per run, and
    ``None`` when the two runs stored different numbers of samples."""
    key = SAMPLES.get(name)
    if key is None:
        return []
    if len(old[key]) != len(new[key]):
        return None
    return [n / o for o, n in zip(old[key], new[key])]


def _judge(name: str, old: dict, new: dict, bound: float, higher: bool,
           same_seed: bool) -> Tuple[float, str]:
    ov, nv = old["metrics"][name], new["metrics"][name]
    rel = (nv - ov) / ov if ov else (0.0 if nv == ov else float("inf"))
    gain = rel if higher else -rel
    if name in EXACT:
        if not same_seed:
            return rel, "unresolved"
        if nv == ov:
            return rel, "unchanged"
        improved = nv > ov if higher else nv < ov
        return rel, "better" if improved else "worse"
    ratios = paired_ratios(name, old, new)
    if ratios is None:
        return rel, "unresolved"
    one_sided = all(r > 1 for r in ratios) or all(r < 1 for r in ratios)
    if spread(ratios) > bound and not one_sided:
        return rel, "unresolved"
    if gain > bound:
        return rel, "better"
    if gain < -bound:
        return rel, "worse"
    return rel, "unchanged"


def compare(old: dict, new: dict, spec: dict) -> Tuple[List[tuple], bool]:
    """Rows of (workload, metric, old, new, delta, bound, label), and
    whether a simulated metric or the failure ratio got worse."""
    metrics = [(m["name"], m["bound"], m["better"] == "higher")
               for m in spec["end_to_end"]] + [(FAIL_RATIO, 0.0, False)]
    same_seed = old["run"]["seed"] == new["run"]["seed"]
    old_w, new_w = old["run"]["workloads"], new["run"]["workloads"]
    rows, regressed = [], False
    for workload in sorted(set(old_w) & set(new_w)):
        for name, bound, higher in metrics:
            if name in EXACT:
                bound = 0.0
            rel, label = _judge(name, old_w[workload], new_w[workload],
                                bound, higher, same_seed)
            regressed |= name in EXACT and label == "worse"
            rows.append((workload, name, old_w[workload]["metrics"][name],
                         new_w[workload]["metrics"][name], rel, bound,
                         label))
    return rows, regressed


def render(rows: List[tuple]) -> str:
    lines = [f"{'workload':<14} {'metric':<16} {'old':>14} {'new':>14} "
             f"{'delta':>9} {'bound':>6}  label"]
    for workload, name, ov, nv, rel, bound, label in rows:
        lines.append(f"{workload:<14} {name:<16} {ov:>14.6g} {nv:>14.6g} "
                     f"{rel:>+9.2%} {bound:>6.2f}  {label}")
    return "\n".join(lines)
