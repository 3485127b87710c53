"""Every point the faulting executors arm is one they reach.

A point no executor hits never fires, so arming it claims coverage the
campaign does not have.  Over programs 0-19, each point in
``FaultingExecutor.TRANSPARENT_POINTS`` must be hit by at least one of
the two faulting wrappers in the default roster.
"""

from repro.proptest.executors import (FaultingExecutor,
                                      default_executor_factories)
from repro.proptest.gen import generate

PROGRAMS = range(20)


def test_every_armed_point_is_hit():
    factories = [factory for name, factory in default_executor_factories()
                 if name.endswith("+faults")]
    assert len(factories) == 2
    hits = {point: 0 for point, _ in FaultingExecutor.TRANSPARENT_POINTS}
    for seed in PROGRAMS:
        program = generate(seed)
        for factory in factories:
            executor = factory()
            executor.run(program)
            for point in hits:
                hits[point] += executor.plan.hits(point)
    assert all(hits.values()), hits
