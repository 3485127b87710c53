"""Seeded synthetic-population load generation for the cluster.

Models the paper-scale question ROADMAP item 1 asks — what happens when
10^5–10^6 clients hit the stack — without simulating 10^5 closed loops:
an **open-loop** arrival process (the population is large enough that
arrivals are Poisson regardless of per-client think time), **Zipf** key
skew (the YCSB-standard hot-key model, here with an exact
inverse-CDF sampler so distribution properties are testable), and a
**diurnal burst schedule** (piecewise rate multipliers, wrapping) that
moves the offered load the way a day of real traffic does.

Everything is seeded: two generators built with the same arguments
yield byte-identical request streams (asserted in
``tests/cluster/test_loadgen.py`` and relied on by the capacity
benchmark's determinism check).
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple


class ZipfSampler:
    """Exact Zipf(theta) over ranks [0, n) by inverse-CDF lookup.

    Rank probabilities are ``(1/(r+1)^theta) / H`` — monotonically
    decreasing in rank by construction, which is the property the
    rank-frequency tests pin.  ``theta = 0`` degenerates to uniform;
    YCSB's default skew is 0.99.
    """

    def __init__(self, n: int, theta: float = 0.99,
                 seed: int = 0) -> None:
        if n <= 0:
            raise ValueError("need a positive rank count")
        if theta < 0:
            raise ValueError("theta must be >= 0")
        self.n = n
        self.theta = theta
        self.seed = seed
        self.rng = random.Random(seed)
        weights = [1.0 / ((r + 1) ** theta) for r in range(n)]
        total = sum(weights)
        cdf: List[float] = []
        acc = 0.0
        for w in weights:
            acc += w
            cdf.append(acc / total)
        self._cdf = cdf

    def probability(self, rank: int) -> float:
        """P(rank) — exact, for the distribution-property tests."""
        lo = self._cdf[rank - 1] if rank else 0.0
        return self._cdf[rank] - lo

    def sample(self) -> int:
        return bisect.bisect_left(self._cdf, self.rng.random())


class OpenLoopArrivals:
    """Poisson arrivals: exponential gaps around ``mean_interval``.

    ``next_gap(multiplier)`` scales the *rate* by the diurnal
    multiplier (gap shrinks when traffic bursts).  The closed-form
    check: the sample mean of gaps at multiplier 1 converges on
    ``mean_interval``.
    """

    def __init__(self, mean_interval: float, seed: int = 0) -> None:
        if mean_interval <= 0:
            raise ValueError("mean inter-arrival must be positive")
        self.mean_interval = mean_interval
        self.rng = random.Random(seed ^ 0x9E3779B9)

    def next_gap(self, multiplier: float = 1.0) -> float:
        return self.rng.expovariate(multiplier / self.mean_interval)


class DiurnalSchedule:
    """Piecewise-constant rate multipliers over the cycle clock.

    ``phases`` is a sequence of ``(duration_cycles, multiplier)``; the
    schedule wraps (one simulated "day" repeats).  ``FLAT`` is the
    identity schedule.
    """

    def __init__(self, phases: Sequence[Tuple[int, float]]) -> None:
        if not phases:
            raise ValueError("need at least one phase")
        if any(d <= 0 or m <= 0 for d, m in phases):
            raise ValueError("phase durations and multipliers must be "
                             "positive")
        self.phases = [(int(d), float(m)) for d, m in phases]
        self.period = sum(d for d, _ in self.phases)

    def multiplier_at(self, cycle: float) -> float:
        t = cycle % self.period
        for duration, mult in self.phases:
            if t < duration:
                return mult
            t -= duration
        return self.phases[-1][1]


FLAT = DiurnalSchedule([(1, 1.0)])


@dataclass
class Request:
    """One synthetic request: who, when, what."""

    seq: int
    arrival: int            # cycle stamp on the shared cluster timeline
    client_id: int
    key: str
    op: str                 # "read" / "update" / whatever the app maps
    value_bytes: int


class LoadGenerator:
    """The synthetic population: open loop + Zipf keys + diurnal shape.

    *clients* is the population size (client ids are drawn uniformly —
    with 10^5+ clients each sends rarely, which is exactly why the
    aggregate is open-loop Poisson).  *keys* is the keyspace; each
    request's key rank comes from the Zipf sampler, so key
    ``k000000`` is the globally hottest.  The ``mix`` maps op names to
    probabilities (YCSB-style, e.g. ``{"read": .95, "update": .05}``).
    """

    def __init__(self, clients: int = 100_000, keys: int = 4096,
                 mean_interval: float = 400.0,
                 theta: float = 0.99,
                 mix: Optional[Dict[str, float]] = None,
                 schedule: DiurnalSchedule = FLAT,
                 value_bytes: int = 64,
                 seed: int = 0) -> None:
        if clients <= 0 or keys <= 0:
            raise ValueError("population and keyspace must be positive")
        self.clients = clients
        self.keys = keys
        self.schedule = schedule
        self.value_bytes = value_bytes
        self.seed = seed
        self.zipf = ZipfSampler(keys, theta=theta, seed=seed ^ 0x5EED)
        self.arrivals = OpenLoopArrivals(mean_interval, seed=seed)
        self.rng = random.Random(seed ^ 0xC10C)
        mix = dict(mix or {"read": 0.95, "update": 0.05})
        total = sum(mix.values())
        self._ops = sorted(mix)
        self._op_cdf = []
        acc = 0.0
        for op in self._ops:
            acc += mix[op] / total
            self._op_cdf.append(acc)

    def key_for(self, rank: int) -> str:
        return f"k{rank:06d}"

    def _pick_op(self) -> str:
        return self._ops[bisect.bisect_left(self._op_cdf,
                                            self.rng.random())]

    def requests(self, n: int, start_cycle: int = 0) -> Iterator[Request]:
        """Yield *n* requests in arrival order (the whole stream is a
        pure function of the constructor arguments)."""
        t = float(start_cycle)
        for seq in range(n):
            t += self.arrivals.next_gap(self.schedule.multiplier_at(t))
            yield Request(
                seq=seq,
                arrival=int(t),
                client_id=self.rng.randrange(self.clients),
                key=self.key_for(self.zipf.sample()),
                op=self._pick_op(),
                value_bytes=self.value_bytes)

    def describe(self) -> dict:
        return {
            "clients": self.clients,
            "keys": self.keys,
            "mean_interval": self.arrivals.mean_interval,
            "theta": self.zipf.theta,
            "schedule_period": self.schedule.period,
            "seed": self.seed,
        }

