#!/usr/bin/env python3
"""A four-node serving fabric under a 100k-client synthetic population.

Spin up a cluster of simulated machines (each a full kernel + XPC
stack), shard a YCSB-style KV service across them with consistent
hashing, and drive an open-loop Zipf-skewed request stream through it.
Along the way: kill a node mid-run and watch the shard ring re-home its
keys onto the survivors, then scale the cluster back out and re-run.

Run:  python examples/cluster_serving.py
"""

from repro.cluster import Cluster, KVShard, LoadGenerator, hot_shard, rollup
from repro.verify import check_cluster_invariants


def banner(title: str) -> None:
    print(f"\n=== {title} " + "=" * max(0, 60 - len(title)))


def report(stats, cluster) -> None:
    print(f"  completed {stats.completed}/{stats.requests} "
          f"({stats.failed} failed), "
          f"{stats.remote} remote / {stats.local} local")
    print(f"  throughput {stats.req_per_kcycle:.2f} req/kcycle, "
          f"p50 {stats.percentile(50):.1f} cyc, "
          f"p99 {stats.percentile(99):.1f} cyc")
    print(f"  hot shard: {hot_shard(cluster)}")


def main() -> None:
    banner("boot: 4 nodes, sharded KV, autoscaling pools")
    cluster = Cluster(nodes=4, cores_per_node=4)
    cluster.serve("kv", KVShard, autoscale=True, slo_p99=60_000)
    population = dict(clients=100_000, keys=2_048, theta=0.99)

    banner("steady state: open-loop Zipf stream")
    load = LoadGenerator(mean_interval=200.0, seed=7, **population)
    report(cluster.run("kv", load, 2_000), cluster)

    banner("machine death: node 2 vanishes, ring re-homes its shards")
    cluster.kill_node(2)
    load = LoadGenerator(mean_interval=200.0, seed=8, **population)
    report(cluster.run("kv", load, 2_000), cluster)

    banner("elastic scale-out: a fresh node joins and takes shards")
    node = cluster.add_node()
    print(f"  joined {node.name}; serves kv: {node.serves('kv')}")
    load = LoadGenerator(mean_interval=200.0, seed=9, **population)
    report(cluster.run("kv", load, 2_000), cluster)

    banner("fabric health")
    violations = check_cluster_invariants(cluster)
    print(f"  cluster invariants: "
          f"{'all hold' if not violations else violations}")
    summary = rollup(cluster)
    print(f"  live nodes: {summary['live_nodes']}, "
          f"rpc messages: {summary['rpc_messages']}, "
          f"trace hash: {summary['trace_hash'][:16]}...")
    for row in summary["nodes"]:
        state = "up  " if row["alive"] else "DEAD"
        print(f"    {row['node']} [{state}] "
              f"workers={row['active_workers']} "
              f"served={row['requests'] or 0} "
              f"p99={row.get('p99_cycles', '-')}")
    assert not violations
    assert summary["live_nodes"] == 4


if __name__ == "__main__":
    main()
