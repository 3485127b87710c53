"""repro.snap — deterministic snapshot/restore, record/replay, and
reverse-until-invariant time travel for the whole simulated machine.

The simulation is already deterministic; this package makes that
determinism *navigable*:

* :func:`capture` / :func:`restore` — one-deepcopy snapshots of a
  world graph (hardware, kernel, XPC engine state, aio rings, fault
  plans, observability), content-addressed by a ``PYTHONHASHSEED``-
  stable :func:`fingerprint` and cheap via copy-on-write page sharing
  in :class:`~repro.hw.memory.PhysicalMemory`;
* :class:`Recorder` — checkpointed execution with
  restore-and-replay positioning (:meth:`Recorder.resume`), the
  byte-identity contract CI enforces on fig5/fig7-shaped workloads and
  the generated differential programs;
* :func:`reverse_until` — bisect a recorded timeline to the first op
  that breaks an invariant (:mod:`repro.verify.live` predicates or any
  custom one), returning the pre-violation snapshot and the minimal op
  window;
* :class:`PreFaultSnapper` — chaos-harness hook snapshotting the world
  immediately before every injected fault;
* ``python -m repro.snap`` — save/restore/bisect/identity/probe from
  the command line.

The proptest shrinker uses :class:`Recorder` checkpoints to restart
candidate probes from the longest common prefix instead of replaying
from op 0 (:mod:`repro.proptest.shrink`).
"""

from __future__ import annotations

from repro.snap.chaos import PreFaultSnapper
from repro.snap.core import (KEY_LEN, Snapshot, SnapshotStore, capture,
                             live_fingerprint, restore, world_clock)
from repro.snap.fingerprint import (SnapshotError, check_state_discipline,
                                    declared_state, fingerprint)
from repro.snap.record import Recorder
from repro.snap.timetravel import (TimeTravelResult, recovery_predicate,
                                   reverse_until)
from repro.snap.world import ExecutorWorld, SimWorld, attach_obs, kernel_of

__all__ = [
    "ExecutorWorld", "KEY_LEN", "PreFaultSnapper", "Recorder",
    "SimWorld", "Snapshot", "SnapshotError", "SnapshotStore",
    "TimeTravelResult", "attach_obs", "capture", "check_state_discipline",
    "declared_state", "fingerprint", "kernel_of", "live_fingerprint",
    "recovery_predicate", "restore", "reverse_until", "world_clock",
]
