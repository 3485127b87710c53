"""The differential harness: one program, every mechanism, one oracle.

For each executor the harness builds a fresh machine, runs the program
with only what its checks read armed — a :class:`~repro.obs.PhaseWatch`
summing the Fig. 5 xcall phases per core, plus an XPCSan session when
``REPRO_XPCSAN=1`` — and then checks five things:

1. **Outcomes** — every op's observable outcome equals the oracle's,
   byte for byte.  This is the differential property: five mechanisms
   and the batched/faulted variants must disagree with the reference
   model in nothing observable.
2. **Clock sanity** — cycles are *never* compared exactly across
   mechanisms (they differ by design; that difference is the paper).
   Instead: per-op cycle deltas are non-negative (the simulated clock
   is monotone), and the phase partition holds on every core that did
   xcalls: the captest, xentry and linkpush cycles split at the probe's
   ``phase`` site sum to the engine's ``xcall_cycles`` (Figure 5's
   identity).  A core with xcall cycles and no phase events fails.
3. **Model agreement** — when a program did enough successful sync
   calls to be a signal, the measured mechanism-cycle totals must agree
   in *direction* with the analytic Table-7 model: XPC's per-chain cost
   is below L4's in the model, so the seL4-XPC executor must spend
   fewer mechanism cycles than the seL4 baseline on the same ops.
4. **Fast-core equivalence** — the one exception to "never compare
   cycles across executors": the table-driven ``fastcore`` executor
   re-implements the seL4-XPC reference, so when both are in the
   roster their per-op cycle deltas must be *identical*, op by op.
   A mismatch is a :class:`Divergence` (expected/actual carry the two
   deltas as ``("cycles", n)``), so the shrinker can chase it like any
   outcome bug.
5. **Protocol catalogue** — :func:`repro.verify.invariants.
   check_protocol` holds after every op on every executor with a real
   kernel (all but ``fastcore``); violations land in
   ``invariant_failures`` with the executor name and op index.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import repro.obs as obs
import repro.san as san
from repro.compare.mechanisms import by_name
from repro.proptest.executors import (ExecutionReport,
                                      default_executor_factories)
from repro.proptest.grammar import CallOp, Program
from repro.proptest.oracle import Oracle

#: Minimum successful sync calls before cycle totals carry enough
#: signal for the cross-mechanism direction check.
MODEL_CHECK_MIN_CALLS = 5

#: The executor pair the direction check compares (present in the
#: default roster; skipped when either is missing from a custom one).
MODEL_CHECK_PAIR = ("seL4-XPC", "seL4-twocopy")

#: The strict-equivalence pair: (fast re-implementation, reference).
EQUIVALENCE_PAIR = ("fastcore", "seL4-XPC")


@dataclass
class Divergence:
    """One op whose observed outcome differs from the oracle's."""

    executor: str
    op_index: int
    expected: tuple
    actual: tuple

    def describe(self) -> str:
        return (f"{self.executor}: op {self.op_index} expected "
                f"{self.expected!r}, got {self.actual!r}")


@dataclass
class DiffResult:
    """Everything one differential run of one program produced."""

    program: Program
    expected: List[tuple]
    reports: List[ExecutionReport]
    divergences: List[Divergence] = field(default_factory=list)
    #: Failed invariants (monotonicity, phase partition, model direction,
    #: the per-op protocol catalogue): real failures, but not op-level
    #: divergences a shrinker can chase.
    invariant_failures: List[str] = field(default_factory=list)
    #: Total simulated cycles burned across all executors (budgeting).
    sim_cycles: int = 0

    @property
    def ok(self) -> bool:
        return not self.divergences and not self.invariant_failures


def expected_outcomes(program: Program) -> List[tuple]:
    return Oracle().expected(program)


def run_one(factory: Callable[[], object],
            program: Program) -> Tuple[ExecutionReport, object,
                                       obs.PhaseWatch]:
    """Run *program* on a fresh executor under its own phase watch.

    The watch subscribes the probe's ``phase`` site alone, under the
    obs key, so an outer :class:`~repro.obs.ObsSession` records none
    of the run.  With ``REPRO_XPCSAN=1`` in the environment, every
    executor (not just the ``+xpcsan`` roster variant) also runs under
    a fresh XPCSan session, and its findings land in
    ``report.san_issues``.  A wrapper's own fault plan or XPCSan
    session is armed by its ``run``.

    Returns ``(report, machine, watch)``.
    """
    watch = obs.PhaseWatch()
    san_session = san.from_env()
    with obs.active(watch):
        if san_session is not None:
            with san.active(san_session):
                executor = factory()
                report = executor.run(program)
        else:
            executor = factory()
            report = executor.run(program)
    if san_session is not None and report.san_issues is None:
        report.san_issues = [issue.describe()
                             for issue in san_session.issues]
    return report, executor.machine, watch


def _check_clock(report: ExecutionReport, machine,
                 watch: obs.PhaseWatch) -> List[str]:
    problems = []
    for i, delta in enumerate(report.op_cycles):
        if delta < 0:
            problems.append(f"{report.executor}: op {i} moved the "
                            f"clock backwards ({delta})")
    for core in machine.cores:
        engine = core.xpc_engine
        total = engine.stats.xcall_cycles if engine is not None else 0
        if not total:
            continue
        phases = watch.xcall_cycles(core)
        if phases != total:
            problems.append(
                f"{report.executor}: core{core.core_id} phase partition "
                f"{phases} != xcall.cycles {total}")
    return problems


def _check_model_direction(program: Program, expected: List[tuple],
                           reports: List[ExecutionReport]) -> List[str]:
    ok_calls = sum(
        1 for op, outcome in zip(program.ops, expected)
        if isinstance(op, CallOp) and outcome and outcome[0] == "ok")
    if ok_calls < MODEL_CHECK_MIN_CALLS:
        return []
    by_exec: Dict[str, ExecutionReport] = {r.executor: r for r in reports}
    xpc_name, base_name = MODEL_CHECK_PAIR
    xpc, base = by_exec.get(xpc_name), by_exec.get(base_name)
    if xpc is None or base is None:
        return []
    # The analytic model's claim, restated for one hop of a typical
    # payload; the measurement must point the same way.
    model_xpc = by_name("XPC").chain_cycles(1, 256)
    model_l4 = by_name("L4").chain_cycles(1, 256)
    problems = []
    if not model_xpc < model_l4:
        problems.append(
            f"model inversion: XPC {model_xpc} >= L4 {model_l4}")
    measured_xpc = sum(xpc.op_ipc_cycles)
    measured_base = sum(base.op_ipc_cycles)
    if not measured_xpc < measured_base:
        problems.append(
            f"measured inversion over {ok_calls} ok calls: "
            f"{xpc_name} spent {measured_xpc} mechanism cycles, "
            f"{base_name} only {measured_base}")
    return problems


def _check_fast_equivalence(
        reports: List[ExecutionReport]) -> List[Divergence]:
    """Op-by-op cycle identity between the fast core and the reference.

    Outcome equality is already enforced against the oracle for both;
    what makes the fast core trustworthy as a *simulator* is that its
    precomputed tables charge exactly what the reference engine ticks.
    """
    by_exec: Dict[str, ExecutionReport] = {r.executor: r for r in reports}
    fast_name, ref_name = EQUIVALENCE_PAIR
    fast, ref = by_exec.get(fast_name), by_exec.get(ref_name)
    if fast is None or ref is None:
        return []
    divergences = []
    for i, (ref_delta, fast_delta) in enumerate(
            zip(ref.op_cycles, fast.op_cycles)):
        if ref_delta != fast_delta:
            divergences.append(Divergence(
                fast_name, i, ("cycles", ref_delta),
                ("cycles", fast_delta)))
    return divergences


def run_differential(program: Program,
                     factories: Optional[list] = None) -> DiffResult:
    """Run *program* on every executor and diff against the oracle."""
    if factories is None:
        factories = default_executor_factories()
    expected = expected_outcomes(program)
    reports: List[ExecutionReport] = []
    divergences: List[Divergence] = []
    invariant_failures: List[str] = []
    sim_cycles = 0
    for _name, factory in factories:
        report, machine, watch = run_one(factory, program)
        reports.append(report)
        sim_cycles += sum(core.cycles for core in machine.cores)
        invariant_failures.extend(_check_clock(report, machine, watch))
        invariant_failures.extend(report.invariant_failures)
        for issue in report.san_issues or ():
            invariant_failures.append(f"{report.executor}: {issue}")
        for i, (want, got) in enumerate(zip(expected, report.outcomes)):
            if want != got:
                divergences.append(
                    Divergence(report.executor, i, want, got))
    divergences.extend(_check_fast_equivalence(reports))
    invariant_failures.extend(
        _check_model_direction(program, expected, reports))
    return DiffResult(program, expected, reports, divergences,
                      invariant_failures, sim_cycles)
