"""A pool whose worker is given up trips its breaker, and the run ends.

With every flush killing the worker, a batcher spends its flush retries
and fails what it still holds, and once the supervisor's restart budget
is gone it fails every later request without crossing.  Each such
future is completed with a ``complete_cycle`` stamp, so the fabric
harvests it like any other failed request.  A request that failed with
``XPCPeerDiedError`` is reported against its home's breaker, so after
``breaker_threshold`` of them the fabric stops routing to the dead pool
and fails later requests at the directory instead.
"""

from repro import faults
from repro.cluster import Cluster, KVShard, LoadGenerator, rollup
from repro.faults import FaultPlan
from repro.services.nameserver import BreakerState

REQUESTS = 40
CONTROL_EVERY = 8


def test_given_up_requests_are_harvested_as_failed():
    cluster = Cluster(nodes=1, cores_per_node=2,
                      mem_bytes=16 * 1024 * 1024)
    cluster.serve("kv", KVShard)
    plan = FaultPlan(3).arm("aio.worker_death", probability=1.0,
                            times=None)
    load = LoadGenerator(clients=200, keys=32, mean_interval=400.0,
                         seed=3)
    with faults.active(plan):
        stats = cluster.run("kv", load, REQUESTS,
                            control_every=CONTROL_EVERY)
    assert stats.failed > 0
    assert stats.completed + stats.failed == REQUESTS
    breaker = cluster.naming.breaker("kv", cluster.nodes[0])
    assert breaker.state is BreakerState.OPEN and breaker.trips == 1
    counters = rollup(cluster)["counters"]
    # Only the first control window's requests reached the pool; once
    # they were harvested as failed, the open breaker refused the rest.
    assert counters["cluster.local"] == CONTROL_EVERY
    assert counters["cluster.failed.breaker_open"] == (
        REQUESTS - CONTROL_EVERY)
    # Every request that reached the pool was harvested: none was lost
    # at the end of the run, and each of its failures is a request error.
    assert counters["cluster.request_errors"] == (
        CONTROL_EVERY - stats.completed)
    hist = cluster.registry.get("cluster.req_latency_cycles")
    assert hist.count == CONTROL_EVERY and hist.min >= 0
