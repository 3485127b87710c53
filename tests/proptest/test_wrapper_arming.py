"""Once-per-run arming of the fault and XPCSan wrappers is per-op arming.

``FaultingExecutor.run`` and ``SanExecutor.run`` arm their plan or
session once, around the inner executor's program loop.  ``step`` arms
per op, which is how ``repro.snap``'s ``ExecutorWorld`` drives a
wrapper (it resumes mid-program).  Nothing fires and nothing is accessed
between ops, so the two must report the same thing, op for op.
"""

import json

import pytest

from repro.proptest.executors import (FaultingExecutor, SanExecutor,
                                      _run_steps,
                                      default_executor_factories)
from repro.proptest.gen import generate

WRAPPED = [(name, factory) for name, factory in default_executor_factories()
           if name.endswith(("+faults", "+xpcsan"))]

PROGRAMS = range(20)


def _per_op(wrapper, program):
    """Drive *wrapper* through its own ``step`` (armed per op) and
    finish the report the way its ``run`` does."""
    report = _run_steps(wrapper, program)
    if isinstance(wrapper, FaultingExecutor):
        report.fault_trace = [ev.as_dict() for ev in wrapper.plan.trace]
    else:
        report.san_issues = [issue.describe()
                             for issue in wrapper.session.issues]
    return report


def _facts(report):
    return (report.executor, report.outcomes, report.op_cycles,
            report.op_ipc_cycles, report.fault_trace, report.san_issues,
            report.invariant_failures)


def test_roster_wraps_both_kinds():
    kinds = {type(factory()) for _name, factory in WRAPPED}
    assert kinds == {FaultingExecutor, SanExecutor}


def _armed_state(wrapper):
    """What the wrapper's plan or session saw beyond the report: every
    armed point's hit count and the plan's RNG position, or XPCSan's
    whole access summary."""
    if isinstance(wrapper, FaultingExecutor):
        plan = wrapper.plan
        return ([plan.hits(spec.point) for spec in plan.specs],
                plan.rng.getstate())
    return json.dumps(wrapper.session.report(), sort_keys=True)


@pytest.mark.parametrize("name,factory", WRAPPED,
                         ids=[name for name, _ in WRAPPED])
def test_run_matches_per_op_arming(name, factory):
    consulted = 0
    for seed in PROGRAMS:
        program = generate(seed)
        whole, stepped = factory(), factory()
        by_run = whole.run(program)
        by_op = _per_op(stepped, program)
        assert by_run.executor == name
        assert _facts(by_run) == _facts(by_op), f"program {seed}"
        assert _armed_state(whole) == _armed_state(stepped), (
            f"program {seed}")
        if isinstance(whole, SanExecutor):
            consulted += whole.session.accesses
        else:
            consulted += sum(whole.plan.hits(spec.point)
                             for spec in whole.plan.specs)
    # The comparison means something only if what run() armed was used.
    assert consulted
