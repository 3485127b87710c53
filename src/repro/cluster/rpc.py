"""Cross-node RPC: the net-hop cost model between node clocks.

An intra-node request is an ``xcall`` (tens of cycles through the XPC
engine); a cross-node request is a *network hop*, and the gap between
the two is what makes shard locality matter.  The model follows the
existing net-service stack's shape — serialize, NIC, wire, NIC — with
every charge on a real core clock:

* **serialize** — the sending frontend core marshals the request into
  a wire buffer: ``copy_cycles(payload)`` plus the fixed
  ``cluster_rpc_header``, charged on the *sender's* core (it is busy
  for that time), plus the NIC turnaround (``nic_loopback_fixed``).
* **wire** — ``rpc_wire_cycles(nbytes)`` of elapsed time (propagation
  + bytes at link bandwidth).  No core spins on it; it only delays the
  arrival stamp on the receiving node's clock.
* **deliver** — the receiving node pays its NIC turnaround + header
  demarshal on the worker core via the pool's open-loop arrival
  fast-forward, then the request enters the home pool like any local
  one.  The reply retraces the wire (its transit is added to the
  measured latency by the fabric; the caller was asynchronous, so no
  core blocks on it).

Node clocks are independent but causally coupled: a message sent at
sender-cycle *t* cannot arrive before ``t + wire`` on the receiver
(all clocks start from zero together), which the pool enforces by
fast-forwarding an idle worker core to the arrival stamp.

Partitions are modeled here: a severed (src, dst) pair fails the send
with :class:`ClusterPartitionedError` before any wire time elapses —
serialization was already spent, exactly like a real connect timeout —
and the failure feeds the home node's circuit breaker.
"""

from __future__ import annotations

from typing import Optional

import repro.probe as probe
from repro.cluster.node import Node, NodeDownError

__all__ = ["ClusterPartitionedError", "NodeDownError", "RpcLink",
           "remote_submit"]


class ClusterPartitionedError(Exception):
    """The network between two nodes is partitioned."""

    def __init__(self, src: int, dst: int) -> None:
        self.src = src
        self.dst = dst
        super().__init__(f"network partition between n{src} and n{dst}")


class RpcLink:
    """The inter-node link: partition state + cost accounting."""

    def __init__(self, params) -> None:
        self.params = params
        #: severed unordered node-id pairs.
        self._cuts = set()
        self.messages = 0
        self.bytes = 0

    # -- partitions ----------------------------------------------------
    def partition(self, a: int, b: int) -> None:
        self._cuts.add(frozenset((a, b)))

    def heal(self, a: int, b: int) -> None:
        self._cuts.discard(frozenset((a, b)))

    def severed(self, a: int, b: int) -> bool:
        return frozenset((a, b)) in self._cuts

    @property
    def partitions(self):
        return {tuple(sorted(cut)) for cut in self._cuts}

    # -- the hop -------------------------------------------------------
    def send(self, src: Node, dst: Node, nbytes: int) -> int:
        """Charge the sender side and return the arrival stamp on the
        receiver's timeline.  Raises before wire time on a partition or
        a dead receiver (serialization is already paid — that is the
        cost of finding out)."""
        params = self.params
        src.frontend_core.tick(params.copy_cycles(nbytes)
                               + params.cluster_rpc_header
                               + params.nic_loopback_fixed)
        if probe.INJECT:
            action = probe.inject("cluster.partition")
            if action is not None:
                self.partition(src.node_id, dst.node_id)
        if self.severed(src.node_id, dst.node_id):
            raise ClusterPartitionedError(src.node_id, dst.node_id)
        if not dst.alive:
            raise NodeDownError(dst.node_id)
        self.messages += 1
        self.bytes += nbytes
        return src.frontend_core.cycles + params.rpc_wire_cycles(nbytes)

    def reply_transit(self, nbytes: int) -> int:
        """Wire + NIC + demarshal time for the reply leg (added to the
        request's measured latency by the fabric)."""
        return (self.params.rpc_wire_cycles(nbytes)
                + self.params.nic_loopback_fixed
                + self.params.cluster_rpc_header)


def remote_submit(link: RpcLink, src: Node, dst: Node, name: str,
                  meta: tuple, payload: bytes = b"",
                  reply_capacity: int = 0,
                  arrival_cycle: Optional[int] = None):
    """One cross-node request: hop to *dst*, enter its home pool.

    Returns the :class:`~repro.aio.batch.XPCFuture` from the remote
    pool; the arrival stamp it carries is the max of the request's own
    open-loop arrival and the wire-delayed delivery time, plus the
    receiver-side NIC/demarshal charge.
    """
    pool = dst.pool(name)       # breaker-gated; NodeDownError if dead
    delivered = link.send(src, dst, len(payload))
    if arrival_cycle is not None:
        delivered = max(delivered, arrival_cycle)
    delivered += (link.params.nic_loopback_fixed
                  + link.params.cluster_rpc_header)
    src.rpc_out += 1
    dst.rpc_in += 1
    return pool.submit(meta, payload, reply_capacity,
                       arrival_cycle=delivered)
