"""Cluster capacity planning: the serving fabric vs node count.

The tentpole question for the multi-node fabric (DESIGN.md §16): given
a synthetic population of 10^5 clients offering a fixed open-loop load,
how do aggregate throughput (req/kcycle) and p99 latency move as the
cluster grows N ∈ {1, 2, 4, 8}?  A single node saturates — its queues
grow and p99 explodes — while the sharded directory spreads the same
stream across more machines at the cost of cross-node RPC for the
requests whose frontend is not their key's home.

Three series, all recorded under the drift guard:

* node sweep — req/kcycle and p99 vs N at a load that saturates N=1;
* Zipf sweep — skew θ 0.6 vs 1.2 on an autoscaled cluster: the hot
  shard's share of requests grows and its SLO engine reacts with
  scale-up events;
* determinism — the same seeded run twice: identical completion
  counts, identical wall cycles, identical trace hash.
"""

from __future__ import annotations

from repro.analysis import render_table
from repro.cluster import Cluster, KVShard, LoadGenerator, hot_shard

CLIENTS = 100_000
KEYS = 2_048
SEED = 1009


def _kv_cluster(nodes: int, cores_per_node: int = 3, **kw) -> Cluster:
    cluster = Cluster(nodes=nodes, cores_per_node=cores_per_node, **kw)
    cluster.serve("kv", KVShard)
    return cluster


def _capacity_point(nodes: int, requests: int,
                    mean_interval: float) -> dict:
    cluster = _kv_cluster(nodes)
    load = LoadGenerator(clients=CLIENTS, keys=KEYS,
                         mean_interval=mean_interval, theta=0.99,
                         seed=SEED)
    stats = cluster.run("kv", load, requests)
    return {
        "nodes": nodes,
        "completed": stats.completed,
        "req_per_kcycle": round(stats.req_per_kcycle, 3),
        "p50_cycles": round(stats.percentile(50), 1),
        "p99_cycles": round(stats.percentile(99), 1),
        "remote_share": round(stats.remote / max(stats.completed, 1), 3),
    }


def _zipf_point(theta: float, requests: int) -> dict:
    cluster = Cluster(nodes=4, cores_per_node=5,
                      slo_window_cycles=20_000)
    cluster.serve("kv", KVShard, autoscale=True, slo_p99=60_000)
    load = LoadGenerator(clients=CLIENTS, keys=KEYS,
                         mean_interval=120.0, theta=theta, seed=SEED)
    stats = cluster.run("kv", load, requests, control_every=32)
    served = {node.name: cluster.registry.get(
                  f"cluster.{node.name}.req_latency_cycles").count
              for node in cluster.live_nodes()}
    total = max(sum(served.values()), 1)
    scale_events = sum(p.scale_events for n in cluster.live_nodes()
                      for p in n.live_pools)
    return {
        "theta": theta,
        "completed": stats.completed,
        "hot_shard": hot_shard(cluster),
        "hot_share": round(max(served.values()) / total, 3),
        "scale_events": scale_events,
        "p99_cycles": round(stats.percentile(99), 1),
    }


def _seeded_run(requests: int = 800):
    cluster = _kv_cluster(2)
    load = LoadGenerator(clients=CLIENTS, keys=KEYS,
                         mean_interval=400.0, seed=SEED)
    stats = cluster.run("kv", load, requests)
    return stats.completed, cluster.wall_cycles, cluster.trace_hash()


def test_cluster_capacity(benchmark, results):
    def run():
        sweep = [_capacity_point(n, requests=2_000, mean_interval=600.0)
                 for n in (1, 2, 4, 8)]
        zipf = [_zipf_point(theta, requests=1_500)
                for theta in (0.6, 1.2)]
        determinism = [_seeded_run(), _seeded_run()]
        return sweep, zipf, determinism

    sweep, zipf, determinism = benchmark.pedantic(run, rounds=1,
                                                  iterations=1)

    print("\n" + render_table(
        f"Cluster capacity, {CLIENTS} clients, open-loop saturating N=1",
        ["nodes", "req/kcycle", "p50 lat", "p99 lat", "remote share"],
        [[p["nodes"], p["req_per_kcycle"], p["p50_cycles"],
          p["p99_cycles"], p["remote_share"]] for p in sweep]))
    print(render_table(
        "Zipf skew on a 4-node autoscaled cluster",
        ["theta", "hot shard", "hot share", "scale events", "p99 lat"],
        [[z["theta"], z["hot_shard"], z["hot_share"],
          z["scale_events"], z["p99_cycles"]] for z in zipf]))

    results.record("cluster_capacity", {
        "node_sweep": {str(p["nodes"]): {
            "req_per_kcycle": p["req_per_kcycle"],
            "p99_cycles": p["p99_cycles"],
            "remote_share": p["remote_share"],
        } for p in sweep},
        "zipf_sweep": {str(z["theta"]): {
            "hot_share": z["hot_share"],
            "scale_events": z["scale_events"],
        } for z in zipf},
        "trace_hash": determinism[0][2],
    })

    by_n = {p["nodes"]: p for p in sweep}
    # Every point completes the full request budget (failures would be
    # capacity lies).
    assert all(p["completed"] == 2_000 for p in sweep)
    # N=1 is saturated: adding a node buys real throughput, and the
    # eight-node fabric digests the stream with far lower p99 than the
    # single queue-bound machine.
    assert by_n[2]["req_per_kcycle"] > by_n[1]["req_per_kcycle"]
    assert by_n[8]["p99_cycles"] < by_n[1]["p99_cycles"]
    # Sharding is real: with more than one node a fraction of requests
    # crosses the wire, and never on a single node.
    assert by_n[1]["remote_share"] == 0.0
    assert by_n[4]["remote_share"] > 0.25
    # Skew concentrates load — the hot shard's share grows with theta —
    # and the SLO engines react with scale-ups.
    assert zipf[1]["hot_share"] > zipf[0]["hot_share"]
    assert all(z["scale_events"] > 0 for z in zipf)
    # Seed determinism: byte-identical trace, cycle-identical clocks.
    assert determinism[0] == determinism[1]
