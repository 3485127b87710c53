"""The metrics registry: counters, gauges, and histograms on the cycle clock.

Every instrumentation site in the stack reports through a
:class:`MetricsRegistry` (never by poking counter state directly — the
``obs-discipline`` lint rule enforces that).  Metrics are *keyed on the
simulated cycle clock*: each update carries the cycle at which it
happened, so a metric can be correlated with the span timeline and the
PMU snapshots of the same run.

Nothing in this module charges cycles or touches simulator state: the
registry is a pure observer, which is what keeps obs-on and obs-off runs
cycle-identical.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.stats import percentile, percentile_of_sorted

#: Histograms keep at most this many raw samples; older samples are
#: discarded ring-buffer style but ``count``/``total`` keep accumulating.
DEFAULT_HISTOGRAM_CAPACITY = 65_536


class Metric:
    """Common identity for every metric kind."""

    kind = "metric"

    def __init__(self, name: str) -> None:
        self.name = name
        self.updated_cycle = 0      # cycle clock of the last update

    def _touch(self, cycle: Optional[int]) -> None:
        if cycle is not None and cycle > self.updated_cycle:
            self.updated_cycle = cycle


class Counter(Metric):
    """A monotonically increasing count."""

    kind = "counter"

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.value = 0

    def inc(self, n: int = 1, cycle: Optional[int] = None) -> None:
        if n < 0:
            raise ValueError("counters only go up")
        self.value += n
        self._touch(cycle)

    def as_dict(self) -> dict:
        return {"kind": self.kind, "value": self.value,
                "updated_cycle": self.updated_cycle}


class Gauge(Metric):
    """A point-in-time value (queue depth, breaker state, ...)."""

    kind = "gauge"

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.value = 0

    def set(self, value, cycle: Optional[int] = None) -> None:
        self.value = value
        self._touch(cycle)

    def as_dict(self) -> dict:
        return {"kind": self.kind, "value": self.value,
                "updated_cycle": self.updated_cycle}


class Histogram(Metric):
    """A distribution of observations (latencies in cycles, sizes...).

    Keeps a bounded window of raw samples for percentiles; ``count`` and
    ``total`` cover every observation ever made.  Optional *buckets*
    (sorted upper boundaries, right-closed like Prometheus: bucket *i*
    covers ``(bounds[i-1], bounds[i]]``) add fixed cumulative bins that
    never forget: once the sample ring has overflowed, percentiles fall
    back to boundary-exact bucket interpolation instead of silently
    computing over whatever window survived.

    Until the ring first evicts, percentiles read a sorted view of the
    samples that each query extends with the samples observed since the
    last one (a stable sort of the view plus the appended run, so the
    view always equals ``sorted(samples)``).  The view is derived state:
    it is dropped on the first eviction and left out of snapshot
    fingerprints.
    """

    kind = "histogram"

    def __init__(self, name: str,
                 capacity: int = DEFAULT_HISTOGRAM_CAPACITY,
                 buckets: Optional[Sequence[float]] = None) -> None:
        if capacity <= 0:
            raise ValueError("histogram capacity must be positive")
        super().__init__(name)
        self.capacity = capacity
        self.count = 0
        self.total = 0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._samples: List[float] = []
        self._cursor = 0            # ring-buffer write position
        self._sorted: List[float] = []   # sorted _samples[:len(_sorted)]
        if buckets is not None:
            bounds = [float(b) for b in buckets]
            if not bounds:
                raise ValueError("bucket boundary list is empty")
            if sorted(set(bounds)) != bounds:
                raise ValueError(
                    "bucket boundaries must be strictly increasing")
            self.bucket_bounds: Optional[List[float]] = bounds
            # One bin per boundary plus the overflow bin above the last.
            self.bucket_counts: Optional[List[int]] = (
                [0] * (len(bounds) + 1))
        else:
            self.bucket_bounds = None
            self.bucket_counts = None

    def observe(self, value, cycle: Optional[int] = None) -> None:
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        if len(self._samples) < self.capacity:
            self._samples.append(value)
        else:
            self._samples[self._cursor] = value
            self._cursor = (self._cursor + 1) % self.capacity
            self._sorted.clear()
        if self.bucket_bounds is not None:
            self.bucket_counts[bisect_left(self.bucket_bounds,
                                           value)] += 1
        self._touch(cycle)

    @property
    def samples(self) -> Tuple[float, ...]:
        """The retained sample window (read-only)."""
        return tuple(self._samples)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """The *p*-th percentile of the distribution.

        While the sample ring still holds every observation the answer
        is exact (sorted-window interpolation).  Once observations have
        been evicted, a bucketed histogram switches to
        :meth:`bucket_percentile` — an estimate over the full history —
        instead of pretending the surviving window is the population.
        """
        samples = self._samples
        if not samples:
            raise ValueError(f"histogram {self.name!r} has no samples")
        if self.count > len(samples):           # the ring has evicted
            if self.bucket_bounds is not None:
                return self.bucket_percentile(p)
            return percentile(samples, p)
        view = self._sorted
        if len(view) < len(samples):
            view.extend(samples[len(view):])
            view.sort()
        return percentile_of_sorted(view, p)

    def bucket_percentile(self, p: float) -> float:
        """Percentile estimated from the cumulative bucket counts.

        Uses the same fractional-rank convention as the sorted-list
        oracle (rank ``(p/100)·(count-1)``), locating each integer rank
        in its bucket by cumulative count and interpolating linearly
        inside the bucket.  Boundary-exact by construction: a bucket's
        bottom rank maps to its (clamped) lower bound and its top rank
        to the upper boundary itself — an estimate never bleeds past a
        boundary into a neighboring bucket, so a rank that the oracle
        resolves inside bucket *i* always yields a value within bucket
        *i*'s bounds, and ``p0``/``p100`` return the exact observed
        ``min``/``max``.  The overall result is clamped to
        ``[min, max]``.
        """
        if self.bucket_bounds is None:
            raise ValueError(f"histogram {self.name!r} has no buckets")
        if not self.count:
            raise ValueError(f"histogram {self.name!r} has no samples")
        p = min(max(p, 0.0), 100.0)
        rank = (p / 100.0) * (self.count - 1)
        lo_rank = int(rank)
        hi_rank = min(lo_rank + 1, self.count - 1)
        lo_v = self._value_at_rank(lo_rank)
        hi_v = self._value_at_rank(hi_rank)
        value = lo_v + (hi_v - lo_v) * (rank - lo_rank)
        return min(max(value, self.min), self.max)

    def _value_at_rank(self, rank: int) -> float:
        """Interpolated value of the *rank*-th (0-based) observation."""
        bounds = self.bucket_bounds
        cum = 0
        for i, n in enumerate(self.bucket_counts):
            if n and rank <= cum + n - 1:
                lo = bounds[i - 1] if i > 0 else self.min
                hi = bounds[i] if i < len(bounds) else self.max
                lo = max(lo, self.min)
                hi = min(hi, self.max)
                if hi <= lo:
                    return hi
                if n == 1:
                    # The bucket's only sample: the global min when
                    # this is the lowest nonempty bucket (lo is then
                    # the min itself), else the right-closed bound.
                    return lo if cum == 0 else hi
                # Linear inside the bucket: rank cum maps to lo, rank
                # cum+n-1 to hi — both boundaries belong to this
                # bucket (right-closed), never to a neighbor.
                return lo + (hi - lo) * ((rank - cum) / (n - 1))
            cum += n
        return self.max

    def __snap_fingerprint__(self):
        """Identity without the derived sorted view, so a snapshot's
        fingerprint does not depend on which percentiles were read."""
        return {name: value for name, value in sorted(vars(self).items())
                if name != "_sorted"}

    def as_dict(self) -> dict:
        out = {"kind": self.kind, "count": self.count, "total": self.total,
               "min": self.min, "max": self.max,
               "mean": round(self.mean, 3),
               "updated_cycle": self.updated_cycle}
        if self._samples:
            out["percentiles"] = {
                p: round(self.percentile(float(p.lstrip("p"))), 3)
                for p in ("p50", "p90", "p99")
            }
        if self.bucket_bounds is not None:
            out["buckets"] = {
                "bounds": list(self.bucket_bounds),
                "counts": list(self.bucket_counts),
            }
        return out


class MetricsRegistry:
    """Get-or-create registry of named metrics.

    Names are dotted paths (``kernel.link_spills``,
    ``fs.op_cycles.read``); the first component groups the owning
    subsystem in reports.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}

    def _get(self, name: str, cls, **kwargs) -> Metric:
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name, **kwargs)
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} already registered as {metric.kind}")
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str,
                  capacity: int = DEFAULT_HISTOGRAM_CAPACITY,
                  buckets: Optional[Sequence[float]] = None) -> Histogram:
        return self._get(name, Histogram, capacity=capacity,
                         buckets=buckets)

    def get(self, name: str) -> Optional[Metric]:
        return self._metrics.get(name)

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def as_dict(self) -> dict:
        """Serializable view, grouped by metric kind."""
        out: Dict[str, dict] = {"counters": {}, "gauges": {},
                                "histograms": {}}
        for name in self.names():
            metric = self._metrics[name]
            out[metric.kind + "s"][name] = metric.as_dict()
        return out
