"""A request its batcher gives up on is a failed request, not a crash.

With every flush killing the worker, a batcher spends its flush retries
and fails what it still holds, and once the supervisor's restart budget
is gone it fails every later request without crossing.  Each such
future is completed with a ``complete_cycle`` stamp, so the fabric
harvests it like any other failed request and the run finishes.
"""

from repro import faults
from repro.cluster import Cluster, KVShard, LoadGenerator, rollup
from repro.faults import FaultPlan

REQUESTS = 40


def test_given_up_requests_are_harvested_as_failed():
    cluster = Cluster(nodes=1, cores_per_node=2,
                      mem_bytes=16 * 1024 * 1024)
    cluster.serve("kv", KVShard)
    plan = FaultPlan(3).arm("aio.worker_death", probability=1.0,
                            times=None)
    load = LoadGenerator(clients=200, keys=32, mean_interval=400.0,
                         seed=3)
    with faults.active(plan):
        stats = cluster.run("kv", load, REQUESTS, control_every=8)
    assert stats.failed > 0
    assert stats.completed + stats.failed == REQUESTS
    counters = rollup(cluster)["counters"]
    # Every request reached a pool and was harvested: none was lost at
    # the end of the run, and each failure is a request error.
    assert counters["cluster.local"] == REQUESTS
    assert counters["cluster.request_errors"] == stats.failed
    hist = cluster.registry.get("cluster.req_latency_cycles")
    assert hist.count == REQUESTS and hist.min >= 0
