"""Host-cost guard: Python-level calls per request through the fabric.

Counts the ``"call"`` events ``sys.setprofile`` sees while
``Cluster.run`` serves 2,000 pre-generated requests in each of the two
``KVShard`` shapes the serving benchmark runs: a 4-node read-mostly
cluster (95/5 reads of 64 B, mean gap 600 cycles, ~75 % of requests
cross nodes) and a 1-node write-heavy one (50/50 updates of 1 KiB,
mean gap 1,500).  Both autoscale every node's pool from a p99 SLO of
60,000 cycles on 3 cores per node, with a 100,000-client Zipf(0.99)
population over 2,048 keys.  The request list is built before the
window opens; the window holds dispatch, the aio rings, the xcalls,
harvest, SLO evaluation and autoscaling.

The count is deterministic — it does not depend on timing, load or
``PYTHONHASHSEED`` — so the ceiling is the achieved count, taken in a
fresh interpreter.  A change that adds host work per request fails
here; one that removes work should lower the ceiling to match.
"""

import gc
import sys

import pytest

from repro.cluster import Cluster, KVShard, LoadGenerator

REQUESTS = 2_000

#: shape -> (nodes, mix, value bytes, mean gap, achieved calls).  At the
#: fabric that derived a cluster and node clock and looked its latency
#: histograms up by name for every request, the two shapes made 367,114
#: and 298,772 calls.  With those clocks and handles held, but a ring
#: that copied each index block and record through ``bytes`` helpers
#: and a fabric that hashed each key twice, they made 260,500 and
#: 236,772.
SHAPES = {
    "read": (4, {"read": 0.95, "update": 0.05}, 64, 600.0, 198_444),
    "write": (1, {"read": 0.5, "update": 0.5}, 1024, 1_500.0, 175_788),
}
#: Allowance for interpreter differences (3.12 inlines comprehensions,
#: which only lowers the count), over the whole measurement.
SLACK = 1_000


class _Replay:
    """Hands ``Cluster.run`` a request list built outside the window."""

    def __init__(self, requests) -> None:
        self._requests = requests

    def requests(self, n, start_cycle=0):
        assert n == len(self._requests)
        return iter(self._requests)


def _shape(nodes, mix, value_bytes, mean_gap):
    cluster = Cluster(nodes=nodes, cores_per_node=3)
    cluster.serve("kv", KVShard, autoscale=True, slo_p99=60_000)
    load = LoadGenerator(clients=100_000, keys=2_048,
                         mean_interval=mean_gap, theta=0.99, mix=mix,
                         value_bytes=value_bytes, seed=1009)
    requests = list(load.requests(REQUESTS,
                                  start_cycle=cluster.wall_cycles))
    return cluster, _Replay(requests)


def _count_calls(cluster, replay):
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
        stats = cluster.run("kv", replay, REQUESTS)
    finally:
        sys.setprofile(previous)
        gc.enable()
    return calls, stats


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_fabric_request_call_budget(shape):
    nodes, mix, value_bytes, mean_gap, budget = SHAPES[shape]
    cluster, replay = _shape(nodes, mix, value_bytes, mean_gap)
    calls, stats = _count_calls(cluster, replay)
    assert stats.completed == REQUESTS and stats.failed == 0
    assert calls <= budget + SLACK, (
        f"{calls} Python calls for {REQUESTS} {shape} requests, "
        f"budget {budget}")
