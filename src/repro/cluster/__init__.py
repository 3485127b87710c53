"""repro.cluster — the multi-node serving fabric.

Scales the single-machine XPC stack out: N :class:`Node`\\ s (each a
full machine + kernel + worker pools) behind a :class:`Cluster` with a
consistent-hash :class:`ShardedNameServer`, cycle-priced cross-node
RPC, a seeded synthetic-population :class:`LoadGenerator`, and
SLO-driven per-node autoscaling.  See DESIGN.md §16 and
``benchmarks/test_cluster_capacity.py`` for the capacity-planning story
this underwrites.
"""

from repro.cluster.fabric import Cluster, ClusterRunStats, default_encoder
from repro.cluster.hashring import HashRing, stable_hash
from repro.cluster.loadgen import (DiurnalSchedule, LoadGenerator,
                                   OpenLoopArrivals, Request, ZipfSampler)
from repro.cluster.metrics import hot_shard, node_rollup, rollup
from repro.cluster.naming import ShardedNameServer
from repro.cluster.node import Node, NodeDownError
from repro.cluster.rpc import ClusterPartitionedError, RpcLink, remote_submit
from repro.cluster.serving import (KVShard, SqliteShard, StaticShard,
                                   http_encoder, kv_encoder)

__all__ = [
    "Cluster", "ClusterRunStats", "ClusterPartitionedError",
    "DiurnalSchedule", "HashRing", "KVShard", "LoadGenerator", "Node",
    "NodeDownError", "OpenLoopArrivals", "Request", "RpcLink",
    "ShardedNameServer", "SqliteShard", "StaticShard", "ZipfSampler",
    "default_encoder", "hot_shard", "http_encoder", "kv_encoder",
    "node_rollup", "remote_submit", "rollup", "stable_hash",
]
