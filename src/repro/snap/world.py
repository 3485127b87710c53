"""World wrappers: the unit of snapshotting is one *world* object.

A world is a single root that owns everything the simulation touches —
machine, kernel, transports, servers, plus the run's own bookkeeping
(outcomes, per-op cycle deltas, observability session).  ``capture``
deepcopies the root, so anything the run can observe must hang off it;
the only state outside the graph is the pair of process-global
allocator counters, which :mod:`repro.snap.core` carries alongside.

Two shapes cover the stack:

* :class:`ExecutorWorld` wraps any :mod:`repro.proptest` executor and
  steps it through grammar ops — this is what the differential
  identity tier, the snapshot-accelerated shrinker, and ``python -m
  repro.snap`` drive;
* :class:`SimWorld` is an open-attribute container for hand-built
  scenarios (the fig5/fig7-shaped worlds in
  :mod:`repro.snap.scenarios`, the fs/net chaos scenarios in the
  tests), whose ops are module-level callables ``op(world) ->
  outcome`` so a recorded op list replays against any restored copy.

``step`` is the only way a world advances, and each step installs the
world's own obs/faults sessions around the op.  That makes the op
boundary a quiescent point: everything context-managed during an op is
torn back down before a checkpoint is taken, so a restored world
resumes with plain ``step`` calls and no ambient globals to rebuild.
If an outer driver already installed this world's obs session,
``step`` leaves it in place.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

import repro.faults as faults
import repro.obs as obs


class ExecutorWorld:
    """A proptest executor plus its run bookkeeping, as one graph."""

    __snap_state__ = ("executor", "obs", "outcomes", "op_cycles",
                      "op_ipc", "op_index")

    def __init__(self, executor, obs_session: Optional[obs.ObsSession]
                 = None) -> None:
        self.executor = executor
        self.obs = obs_session
        self.outcomes: List[tuple] = []
        self.op_cycles: List[int] = []
        self.op_ipc: List[int] = []
        self.op_index = 0

    @classmethod
    def build(cls, factory: Callable[[], object],
              observe: bool = True) -> "ExecutorWorld":
        """Construct the executor and (optionally) wire an ObsSession
        to its machine and kernel so PMU/metrics state snapshots with
        the world."""
        executor = factory()
        session = None
        if observe:
            session = obs.ObsSession()
            session.attach(executor.kernel.machine, executor.kernel)
        return cls(executor, session)

    def clock(self) -> int:
        return self.executor.core.cycles

    def step(self, op) -> tuple:
        """Run one grammar op; record outcome and per-op deltas."""
        cycles0 = self.executor.core.cycles
        ipc0 = self.executor._ipc_total()
        if self.obs is not None and obs.ACTIVE is not self.obs:
            with obs.active(self.obs):
                outcome = self.executor.step(op)
        else:
            outcome = self.executor.step(op)
        self.outcomes.append(outcome)
        self.op_cycles.append(self.executor.core.cycles - cycles0)
        self.op_ipc.append(self.executor._ipc_total() - ipc0)
        self.op_index += 1
        return outcome

    def run(self, ops: Sequence) -> List[tuple]:
        return [self.step(op) for op in ops]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ExecutorWorld({self.executor.name}, "
                f"op={self.op_index}, cycle={self.clock()})")


class SimWorld:
    """Open-attribute world for hand-built scenarios.

    The builder hangs whatever it likes off the instance (machine,
    kernel, transport, servers, client stubs, service ids...).  Ops are
    module-level callables invoked as ``op(world)``; their return value
    is the recorded outcome.  Optional well-known attributes:

    * ``plan`` — a :class:`~repro.faults.FaultPlan` installed around
      every op (per-op arming is trace-identical to whole-run arming:
      nothing fires between ops);
    * ``obs`` — an :class:`~repro.obs.ObsSession` installed around
      every op (unless an outer driver already installed it);
    * ``core`` — the core whose cycle counter stamps snapshots.

    Deliberately *not* ``__snap_state__``-disciplined: open attributes
    are the point.  Everything reachable still fingerprints.
    """

    def __init__(self, **attrs) -> None:
        self.plan = None
        self.obs = None
        self.core = None
        self.outcomes: List[object] = []
        self.op_cycles: List[int] = []
        self.op_index = 0
        for name, value in attrs.items():
            setattr(self, name, value)

    def clock(self) -> int:
        return self.core.cycles if self.core is not None else 0

    def step(self, op) -> object:
        cycles0 = self.clock()
        outcome = self._execute(op)
        self.outcomes.append(outcome)
        self.op_cycles.append(self.clock() - cycles0)
        self.op_index += 1
        return outcome

    def _execute(self, op):
        if self.obs is not None and obs.ACTIVE is not self.obs:
            with obs.active(self.obs):
                return self._execute_faulted(op)
        return self._execute_faulted(op)

    def _execute_faulted(self, op):
        if self.plan is not None:
            with faults.active(self.plan):
                return op(self)
        return op(self)

    def run(self, ops: Sequence) -> List[object]:
        return [self.step(op) for op in ops]
