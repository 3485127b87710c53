"""Measurement helpers: CDFs, percentiles, normalization, means."""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Sequence, Tuple


def cdf(samples: Sequence[float]) -> List[Tuple[float, float]]:
    """Empirical CDF points (value, fraction <= value)."""
    if not samples:
        return []
    ordered = sorted(samples)
    n = len(ordered)
    points = []
    for i, value in enumerate(ordered, start=1):
        if points and points[-1][0] == value:
            points[-1] = (value, i / n)
        else:
            points.append((value, i / n))
    return points


def percentile(samples: Sequence[float], p: float) -> float:
    """Linear-interpolated percentile, p in [0, 100]."""
    return percentile_of_sorted(sorted(samples), p)


def percentile_of_sorted(ordered: Sequence[float], p: float) -> float:
    """:func:`percentile` over samples already in ascending order."""
    if not ordered:
        raise ValueError("no samples")
    if not 0 <= p <= 100:
        raise ValueError("percentile must be within [0, 100]")
    if len(ordered) == 1:
        return ordered[0]
    rank = (p / 100) * (len(ordered) - 1)
    lo = int(math.floor(rank))
    hi = int(math.ceil(rank))
    if lo == hi:
        return ordered[lo]
    frac = rank - lo
    return ordered[lo] * (1 - frac) + ordered[hi] * frac


def normalize(values: Dict[str, float],
              baseline: str) -> Dict[str, float]:
    """Divide every series value by the baseline's (paper Fig. 8)."""
    base = values[baseline]
    if base == 0:
        raise ValueError("baseline value is zero")
    return {name: value / base for name, value in values.items()}


def geomean(values: Iterable[float]) -> float:
    vals = [v for v in values]
    if not vals:
        raise ValueError("no values")
    if any(v <= 0 for v in vals):
        raise ValueError("geomean needs positive values")
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def speedup(fast_cycles: float, slow_cycles: float) -> float:
    """How many times faster *fast* is than *slow* (>1 = faster)."""
    if fast_cycles <= 0:
        raise ValueError("cycles must be positive")
    return slow_cycles / fast_cycles


def throughput_mb_s(nbytes: int, cycles: int,
                    freq_hz: float = 100e6) -> float:
    """Bytes-over-cycles as MB/s at the FPGA clock (100 MHz)."""
    if cycles <= 0:
        raise ValueError("cycles must be positive")
    return nbytes / (cycles / freq_hz) / 1e6


def ops_per_sec(ops: int, cycles: int, freq_hz: float = 100e6) -> float:
    if cycles <= 0:
        raise ValueError("cycles must be positive")
    return ops / (cycles / freq_hz)
