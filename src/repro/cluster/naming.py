"""The sharded name server: consistent hashing over per-node naming.

One :class:`ShardedNameServer` fronts the cluster's directory: a name
is *sharded* — served by every live node, with each key homed on one
node by the :class:`~repro.cluster.hashring.HashRing` — and resolution
delegates to the home node's local
:class:`~repro.services.nameserver.NameServer`, so the circuit-breaker
health story (OPEN on consecutive failures, HALF_OPEN probes after a
cooldown) applies per ``(name, node)`` exactly as it does on one
machine.

Membership changes rebalance the ring: a join moves ~1/N of the key
space onto the new node, a leave/death moves the dead node's ~1/N onto
the survivors, and everything else stays put (tested in
``tests/cluster/test_naming.py``).  They also rebuild :attr:`live`, the
held list of live nodes the fabric picks frontends from.

A request's home is found once: the fabric calls :meth:`home` (one
hash of the key) and then :meth:`admit` (the breaker gate) on the node
it got; :meth:`resolve` is the two in one call.
"""

from __future__ import annotations

from typing import Dict, List

from repro.cluster.hashring import HashRing
from repro.cluster.node import Node, NodeDownError


class ShardedNameServer:
    """name → (home node for a key, local sid) over a hash ring."""

    def __init__(self, vnodes: int = 64) -> None:
        self.ring = HashRing(vnodes=vnodes)
        self.nodes: Dict[int, Node] = {}
        #: name -> node ids serving it (sharded names live everywhere).
        self._names: Dict[str, set] = {}
        #: The ring's members in id order.  Replaced, never mutated, on
        #: join, leave and death, so a held reference stays consistent.
        self.live: List[Node] = []
        self.rebalances = 0

    # -- membership ----------------------------------------------------
    def node_join(self, node: Node) -> None:
        if node.node_id in self.nodes:
            raise KeyError(f"node {node.node_id} already joined")
        self.nodes[node.node_id] = node
        self.ring.add(node.node_id)
        self.rebalances += 1
        self._relist()

    def node_leave(self, node_id: int) -> None:
        """Graceful departure: the node's shards re-home to survivors."""
        self.nodes.pop(node_id)
        self.ring.remove(node_id)
        for serving in self._names.values():
            serving.discard(node_id)
        self.rebalances += 1
        self._relist()

    def node_death(self, node_id: int) -> None:
        """Ungraceful: same ring math, but the node stays known (dead)
        so in-flight lookups report :class:`NodeDownError` cleanly."""
        node = self.nodes.get(node_id)
        if node is not None:
            node.alive = False
        if node_id in self.ring:
            self.ring.remove(node_id)
            self.rebalances += 1
            self._relist()
        for serving in self._names.values():
            serving.discard(node_id)

    def _relist(self) -> None:
        self.live = [self.nodes[nid] for nid in self.ring.nodes()]

    def live_nodes(self) -> List[Node]:
        return list(self.live)

    # -- publication ---------------------------------------------------
    def publish(self, name: str, node: Node) -> None:
        """Record that *node* serves *name* (its pool must already be
        published in the node-local nameserver)."""
        if not node.serves(name):
            raise KeyError(
                f"{node.name} has no local pool published as {name!r}")
        self._names.setdefault(name, set()).add(node.node_id)

    def unpublish(self, name: str, node: Node) -> None:
        serving = self._names.get(name, set())
        serving.discard(node.node_id)
        if node.serves(name):
            node.retire(name)

    def names(self) -> List[str]:
        return sorted(self._names)

    # -- resolution ----------------------------------------------------
    def home(self, key) -> Node:
        """The live node owning *key*'s shard."""
        node = self.nodes[self.ring.owner(key)]
        if not node.alive:
            raise NodeDownError(node.node_id)
        return node

    def admit(self, name: str, node: Node) -> None:
        """Gate *name* on *node* (a key's :meth:`home`) through the
        node's breaker.

        Raises ``KeyError`` when no node, or not this one, serves
        *name*, and the node's ``ServiceUnavailableError`` while its
        breaker is open.
        """
        serving = self._names.get(name)
        if not serving:
            raise KeyError(f"no node publishes {name!r}")
        if node.node_id not in serving:
            raise KeyError(f"{node.name} does not serve {name!r}")
        node.nameserver.resolve(name)   # breaker gate

    def resolve(self, name: str, key) -> Node:
        """Home node for (name, key), breaker-gated.

        Raises :class:`NodeDownError` for a dead home, then what
        :meth:`admit` raises.
        """
        node = self.home(key)
        self.admit(name, node)
        return node

    # -- health (delegated to the home node's breakers) ----------------
    def report_failure(self, name: str, node: Node) -> None:
        node.nameserver.report_failure(name)

    def report_success(self, name: str, node: Node) -> None:
        node.nameserver.report_success(name)

    def breaker(self, name: str, node: Node):
        return node.nameserver.breaker(name)
