"""Cluster-wide metric rollups.

The fabric keeps its own always-on :class:`MetricsRegistry` (control
decisions — autoscaling — must be identical whether or not an
observability session is armed).  This module is the read side: a
:func:`rollup` over that registry plus the per-node simulator state,
shaped for the capacity report, and :func:`hot_shard`, the node that
served the most requests.  The latency histograms it reads exist from
the moment the cluster (or the node) does, so an idle node reports
``requests: 0``.
"""

from __future__ import annotations

from typing import Optional


def node_rollup(cluster, node) -> dict:
    """One node's serving view: clock, RPC traffic, pool posture, p99."""
    hist = cluster.registry.get(
        f"cluster.{node.name}.req_latency_cycles")
    out = {
        "node": node.name,
        "alive": node.alive,
        "wall_cycles": node.now,
        "rpc_in": node.rpc_in,
        "rpc_out": node.rpc_out,
        "active_workers": sum(p.active_workers
                              for p in node.live_pools),
        "provisioned_workers": sum(len(p.workers)
                                   for p in node.live_pools),
        "scale_events": sum(p.scale_events for p in node.live_pools),
        "completed": sum(p.completed for p in node.live_pools),
        "requests": hist.count,
    }
    if hist.count:
        out["p50_cycles"] = round(hist.percentile(50), 1)
        out["p99_cycles"] = round(hist.percentile(99), 1)
        out["mean_cycles"] = round(hist.mean, 1)
    return out


def rollup(cluster) -> dict:
    """The whole fabric: per-node rollups + cluster-level aggregates."""
    hist = cluster.registry.get("cluster.req_latency_cycles")
    counters = {
        name: cluster.registry.get(name).value
        for name in cluster.registry.names()
        if cluster.registry.get(name).kind == "counter"
    }
    out = {
        "nodes": [node_rollup(cluster, node)
                  for _, node in sorted(cluster.nodes.items())],
        "live_nodes": len(cluster.live_nodes()),
        "wall_cycles": cluster.wall_cycles,
        "counters": counters,
        "rpc_messages": cluster.link.messages,
        "rpc_bytes": cluster.link.bytes,
        "trace_hash": cluster.trace_hash(),
    }
    if hist.count:
        out["requests"] = hist.count
        out["p50_cycles"] = round(hist.percentile(50), 1)
        out["p99_cycles"] = round(hist.percentile(99), 1)
        out["mean_cycles"] = round(hist.mean, 1)
    return out


def hot_shard(cluster) -> Optional[str]:
    """The node that served the most requests (skew diagnostic)."""
    busiest, count = None, -1
    for node in cluster.nodes.values():
        served = cluster.registry.get(
            f"cluster.{node.name}.req_latency_cycles").count
        if served > count:
            busiest, count = node.name, served
    return busiest
