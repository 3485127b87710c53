"""Deterministic fault plans.

A :class:`FaultPlan` owns a seeded PRNG and a set of armed
:class:`FaultSpec`\\ s.  Instrumented code asks the
:func:`repro.probe.inject` site at named points, and an armed plan
(:func:`repro.faults.active`) answers through :meth:`FaultPlan.fire`:
it decides — purely as a function of (seed, arm order, hit counts) —
whether that hit injects, and if so appends a :class:`FaultEvent` to
``plan.trace``.

Determinism contract (asserted by ``tests/chaos/test_faults_engine.py``):

* the same seed + same armed specs + same workload produce an
  *identical* trace (same points, same hit indices, same order);
* a recorded trace replays exactly: ``FaultPlan.replay(trace)`` fires at
  precisely the recorded (point, hit) pairs and nowhere else, so any
  chaos failure reproduces from its trace artifact alone.

The PRNG is consumed *only* by probability-armed specs, and only at
their own points, so adding an ``nth=``-armed fault never perturbs the
random choices of an existing probabilistic one.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.faults import points as _points


class FaultPlanError(ValueError):
    """Bad plan construction: unknown point, or ambiguous trigger."""


@dataclass
class FaultEvent:
    """One injected fault, as recorded in the trace."""

    seq: int            # position in the trace (0-based)
    point: str          # catalogue name
    hit: int            # 1-based hit index of the point when it fired
    action: dict        # the spec's action kwargs, verbatim

    def as_dict(self) -> dict:
        return {"seq": self.seq, "point": self.point, "hit": self.hit,
                "action": dict(self.action)}


@dataclass
class FaultSpec:
    """One armed fault: *where* (point), *when* (from the nth hit on,
    xor with probability), *how often* (times) and *what* (free-form
    action kwargs interpreted by the fire site)."""

    point: str
    action: dict
    nth: Optional[int] = None
    probability: Optional[float] = None
    times: Optional[int] = 1    # None = unlimited
    fired: int = field(default=0, compare=False)

    def exhausted(self) -> bool:
        return self.times is not None and self.fired >= self.times

    def decide(self, hit: int, rng: random.Random) -> bool:
        """Should this spec fire at the *hit*-th occurrence?

        Draws from *rng* for every hit of a live probabilistic spec
        (fired or not) so the decision stream depends only on the hit
        sequence, not on earlier outcomes.
        """
        if self.probability is not None:
            draw = rng.random()
            if self.exhausted():
                return False
            return draw < self.probability
        if self.exhausted():
            return False
        return hit >= self.nth

    def record(self) -> None:
        self.fired += 1


class FaultPlan:
    """A seeded, replayable set of armed faults.

    Two modes:

    * **generative** — ``FaultPlan(seed)`` + :meth:`arm`: decisions come
      from the specs and the seeded PRNG;
    * **replay** — :meth:`FaultPlan.replay` with a recorded trace:
      decisions come solely from the trace's (point, hit) pairs.
    """

    __snap_state__ = ("seed", "rng", "specs", "trace", "_hits",
                      "_replay")

    def __init__(self, seed: int = 0):
        self.seed = seed
        self.rng = random.Random(seed)
        self.specs: List[FaultSpec] = []
        self.trace: List[FaultEvent] = []
        self._hits: Dict[str, int] = {}
        self._replay: Optional[Dict[Tuple[str, int], dict]] = None

    # -- arming --------------------------------------------------------

    def arm(self, point: str, *, nth: Optional[int] = None,
            probability: Optional[float] = None,
            times: Optional[int] = 1, **action) -> "FaultPlan":
        """Arm *point* to fire at each hit from its *nth* on, or at each
        hit with seeded *probability*; fires at most *times* times (None
        = unlimited), so with the default ``times=1`` an *nth* spec fires
        once, at hit *nth* unless an earlier spec takes it.  Extra kwargs ride along as the event's action and
        are handed back to the fire site.  Returns self for chaining.
        """
        if not _points.known(point):
            raise FaultPlanError(f"unknown fault point: {point!r}")
        if (nth is None) == (probability is None):
            raise FaultPlanError(
                f"{point}: arm with exactly one of nth= or probability=")
        if nth is not None and nth < 1:
            raise FaultPlanError(f"{point}: nth must be >= 1")
        if probability is not None and not 0.0 <= probability <= 1.0:
            raise FaultPlanError(f"{point}: probability must be in [0,1]")
        self.specs.append(FaultSpec(point=point, action=dict(action),
                                    nth=nth, probability=probability,
                                    times=times))
        return self

    @classmethod
    def replay(cls, trace) -> "FaultPlan":
        """Build a plan that re-injects exactly the recorded events.

        *trace* is a list of :class:`FaultEvent` or their ``as_dict``
        forms (e.g. parsed from a trace artifact).
        """
        plan = cls(seed=0)
        plan._replay = {}
        for ev in trace:
            if isinstance(ev, FaultEvent):
                ev = ev.as_dict()
            plan._replay[(ev["point"], ev["hit"])] = dict(ev["action"])
        return plan

    # -- firing --------------------------------------------------------

    def fire(self, point: str) -> Optional[dict]:
        """One hit of *point*: returns the action dict if a fault
        injects here, else None.  Records the event in the trace."""
        hit = self._hits.get(point, 0) + 1
        self._hits[point] = hit
        if self._replay is not None:
            action = self._replay.get((point, hit))
            if action is None:
                return None
            self._record(point, hit, action)
            return action
        for spec in self.specs:
            if spec.point != point:
                continue
            if spec.decide(hit, self.rng):
                spec.record()
                self._record(point, hit, spec.action)
                return dict(spec.action)
        return None

    def _record(self, point: str, hit: int, action: dict) -> None:
        self.trace.append(FaultEvent(seq=len(self.trace), point=point,
                                     hit=hit, action=dict(action)))

    # -- trace serialisation ------------------------------------------

    def trace_json(self) -> str:
        return json.dumps({
            "seed": self.seed,
            "events": [ev.as_dict() for ev in self.trace],
        }, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        """Rebuild a replay plan from a ``trace_json`` artifact."""
        data = json.loads(text)
        return cls.replay(data["events"])

    # -- introspection -------------------------------------------------

    def hits(self, point: str) -> int:
        return self._hits.get(point, 0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"FaultPlan(seed={self.seed}, specs={len(self.specs)}, "
                f"trace={len(self.trace)})")
