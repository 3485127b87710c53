"""Host-cost guard: Python-level calls for one differential pass.

Counts the ``"call"`` events ``sys.setprofile`` sees while
``run_differential`` takes generated programs 0-19 through a fresh
default roster: ten executors per program, the oracle, every check.
The count is deterministic — it does not depend on timing, load or
``PYTHONHASHSEED`` — so the ceiling is the achieved count.  It was
taken in a fresh interpreter; module-level memos that an earlier test
warmed only lower it.

A change that adds host work to the harness or to the machinery every
executor runs fails here; one that removes work should lower
:data:`CALLS_FOR_PROGRAMS_0_19` to match.
"""

import gc
import sys

from repro.proptest.executors import default_executor_factories
from repro.proptest.gen import generate
from repro.proptest.harness import run_differential

#: Achieved Python-level calls for programs 0-19 (261,246 when every
#: executor run armed a full ``ObsSession`` and the fault and XPCSan
#: wrappers re-armed around every op).
CALLS_FOR_PROGRAMS_0_19 = 180_710
#: Allowance for interpreter differences (3.12 inlines comprehensions,
#: which only lowers the count), over the whole measurement.
SLACK = 500
PROGRAMS = range(20)


def _count_calls(roster, programs) -> int:
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    # A collection inside the window would count the finalizers it
    # runs (say, a suspended generator in an earlier test's garbage).
    gc.collect()
    previous = sys.getprofile()
    gc.disable()
    sys.setprofile(profiler)
    try:
        for program in programs:
            run_differential(program, roster)
    finally:
        sys.setprofile(previous)
        gc.enable()
    return calls


def test_differential_pass_call_budget(monkeypatch):
    # The budget is for the default pass: no environment-armed XPCSan.
    monkeypatch.delenv("REPRO_XPCSAN", raising=False)
    roster = default_executor_factories()
    programs = [generate(seed) for seed in PROGRAMS]
    calls = _count_calls(roster, programs)
    assert calls <= CALLS_FOR_PROGRAMS_0_19 + SLACK, (
        f"{calls} Python calls for programs 0-19, "
        f"budget {CALLS_FOR_PROGRAMS_0_19}")
