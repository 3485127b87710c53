"""The perf regression sentry: bisect a cycle drift to its first op.

When a benchmark's cycles drift past the ``results.json`` guard, the
interesting question is not *that* the totals moved but *which op*
first charged differently and *in which phase*.  The sentry answers it
with the snapshot stack:

1. record the scenario twice with :class:`~repro.snap.record.Recorder`
   — a clean baseline and the suspect run (for CI smoke tests the
   suspect is seeded as an ``xpc.captest.slow`` fault plan;
   for a real drift it is the current tree against a pinned baseline
   trace);
2. the per-op cycle trace (``world.op_cycles``) is the **cycle-budget
   invariant**: a world is "violated" once its op-cycle prefix diverges
   from the baseline trace — monotone by construction, so
   :func:`~repro.snap.timetravel.reverse_until` bisects the checkpoint
   timeline straight to the first divergent op;
3. both recorders then :meth:`~repro.snap.record.Recorder.resume` to
   the boundary before the culprit, re-step just that op under a
   profiling :class:`~repro.obs.ObsSession`, and the two flame trees
   are diffed stack-by-stack — the output names the call path *and*
   the Fig. 5 phase the extra cycles landed in.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

import repro.obs as obs
from repro.faults import FaultPlan
from repro.obs.profiler import diff_collapsed
from repro.snap.record import Recorder
from repro.snap.scenarios import SCENARIOS
from repro.snap.timetravel import reverse_until
from repro.snap.world import attach_obs


def seed_captest_regression(extra: int, after_ops: int) -> Callable:
    """A world mutator arming a seeded captest slowdown as the world's
    fault plan: every xcall after the first *after_ops* charges *extra*
    extra captest cycles."""

    def mutate(world):
        world.plan = FaultPlan().arm("xpc.captest.slow", nth=after_ops + 1,
                                     times=None, cycles=extra)

    return mutate


def record_scenario(scenario: str,
                    mutate: Optional[Callable] = None,
                    every_ops: int = 1) -> Recorder:
    """Build and record one scenario run, op-boundary checkpoints
    throughout; *mutate* (if given) adjusts the fresh world before the
    first op — the seeded-regression injection point."""
    builder = SCENARIOS[scenario]
    world, ops = builder()
    attach_obs(world, obs.ObsSession())
    if mutate is not None:
        mutate(world)
    recorder = Recorder(world, every_ops=every_ops)
    recorder.run(ops)
    return recorder


def profile_op(recorder: Recorder, op_index: int):
    """Resume to the boundary before op *op_index*, re-step just that
    op under a profiling session, and return the CycleProfiler."""
    world = recorder.resume(op_index)
    session = attach_obs(world, obs.ObsSession(profile=True))
    world.step(recorder.ops[op_index])
    profiler = session.profiler
    assert profiler.complete(), "sentry profiling lost cycles"
    return profiler


class SentryReport:
    """Where (and in which phase) the cycles went wrong."""

    def __init__(self, scenario: str, regressed: bool,
                 op_index: Optional[int] = None,
                 op: Optional[object] = None,
                 baseline_total: int = 0, fresh_total: int = 0,
                 baseline_op_cycles: int = 0, fresh_op_cycles: int = 0,
                 flame_diff: Optional[List[dict]] = None,
                 probes: int = 0) -> None:
        self.scenario = scenario
        self.regressed = regressed
        self.op_index = op_index
        self.op = op
        self.baseline_total = baseline_total
        self.fresh_total = fresh_total
        self.baseline_op_cycles = baseline_op_cycles
        self.fresh_op_cycles = fresh_op_cycles
        self.flame_diff = flame_diff or []
        self.probes = probes

    @property
    def culprit_path(self) -> Optional[str]:
        """The stack whose delta explains the most cycles."""
        if not self.flame_diff:
            return None
        return self.flame_diff[0]["path"]

    @property
    def culprit_phase(self) -> Optional[str]:
        """The deepest ``phase:*`` frame on the culprit stack."""
        path = self.culprit_path
        if path is None:
            return None
        phases = [f for f in path.split(";")
                  if f.startswith("phase:")]
        return phases[-1] if phases else None

    def as_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "regressed": self.regressed,
            "op_index": self.op_index,
            "op": repr(self.op) if self.op is not None else None,
            "baseline_total": self.baseline_total,
            "fresh_total": self.fresh_total,
            "baseline_op_cycles": self.baseline_op_cycles,
            "fresh_op_cycles": self.fresh_op_cycles,
            "culprit_path": self.culprit_path,
            "culprit_phase": self.culprit_phase,
            "probes": self.probes,
            "flame_diff": self.flame_diff,
        }

    def render(self, top_n: int = 8) -> str:
        if not self.regressed:
            return (f"sentry[{self.scenario}]: no divergence "
                    f"(total {self.baseline_total} cycles)")
        lines = [
            f"sentry[{self.scenario}]: first divergent op is "
            f"#{self.op_index} ({self.op!r})",
            f"  totals: baseline {self.baseline_total} -> fresh "
            f"{self.fresh_total} "
            f"({self.fresh_total - self.baseline_total:+d} cycles)",
            f"  op #{self.op_index}: {self.baseline_op_cycles} -> "
            f"{self.fresh_op_cycles} cycles "
            f"({self.fresh_op_cycles - self.baseline_op_cycles:+d})",
            f"  culprit phase: {self.culprit_phase or '(none)'}   "
            f"[{self.probes} bisection probes]",
            "  flame-tree diff (cycles, fresh - baseline):",
        ]
        for row in self.flame_diff[:top_n]:
            lines.append(f"    {row['delta']:+6d}  {row['path']} "
                         f"({row['base']} -> {row['fresh']})")
        return "\n".join(lines)


def bisect_regression(scenario: str,
                      mutate: Callable,
                      baseline_trace: Optional[List[int]] = None,
                      ) -> SentryReport:
    """Record baseline + mutated runs, bisect to the first op whose
    cycle attribution diverges, and diff the two flame trees there.

    *baseline_trace* overrides the freshly recorded baseline per-op
    cycle list — pass a pinned trace to chase a real (unseeded) drift.
    """
    baseline = record_scenario(scenario)
    base_trace = (list(baseline_trace) if baseline_trace is not None
                  else list(baseline.world.op_cycles))
    fresh = record_scenario(scenario, mutate=mutate)
    fresh_trace = list(fresh.world.op_cycles)

    def violated(world) -> bool:
        trace = world.op_cycles
        return any(a != b for a, b in zip(trace, base_trace))

    result = reverse_until(fresh, violated)
    base_total, fresh_total = sum(base_trace), sum(fresh_trace)
    if result is None:
        return SentryReport(scenario, regressed=False,
                            baseline_total=base_total,
                            fresh_total=fresh_total)
    k = result.op_index
    base_prof = profile_op(baseline, k)
    fresh_prof = profile_op(fresh, k)
    return SentryReport(
        scenario, regressed=True, op_index=k, op=result.op,
        baseline_total=base_total, fresh_total=fresh_total,
        baseline_op_cycles=base_trace[k] if k < len(base_trace) else 0,
        fresh_op_cycles=fresh_trace[k] if k < len(fresh_trace) else 0,
        flame_diff=diff_collapsed(base_prof.collapsed(),
                                  fresh_prof.collapsed()),
        probes=result.probes)
