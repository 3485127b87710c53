"""Live-world invariants for chaos testing, rings and clusters.

The model checker (:mod:`repro.verify.model`) proves the protocol
invariants over a *bounded* synthetic world.  The chaos suite needs the
same assertions over the *running* simulation — after every injected
fault and every recovery the full-stack workloads must still satisfy
the paper's security argument.  These checkers walk the real kernel's
processes, threads, and segments and return
:class:`~repro.verify.invariants.InvariantViolation` records
(empty list = healthy).

* :func:`check_recovery_invariants` — the protocol catalogue
  (:func:`repro.verify.invariants.check_protocol`) under the name the
  chaos suite and time-travel debugger use.
* :func:`check_ring_invariants` / :func:`check_cluster_invariants` —
  aio ring and multi-node fabric predicates.
* :func:`check_quiescent` — between top-level operations a client
  thread must be fully unwound: link stack empty and its home
  capability state restored (the LIFO property observed end-to-end).
"""

from __future__ import annotations

from typing import List

from repro.verify.invariants import (InvariantViolation, check_protocol,
                                     single_owner)


#: The chaos suite's name for the protocol catalogue.
check_recovery_invariants = check_protocol


def check_ring_invariants(ring, kernel=None) -> List[InvariantViolation]:
    """Memory-resident invariants of one aio submission/completion ring.

    *ring* is duck-typed (anything with the
    :class:`repro.aio.ring.XPCRing` peek surface) so this layer does not
    import :mod:`repro.aio`.  All reads are uncharged — checking never
    moves the simulated clock.

    * head ≤ tail for both queues, and neither queue holds more than
      ``entries`` records (monotonic indices make both checkable
      straight from the header bytes);
    * no CQE without a matching SQE: every unharvested completion's
      sequence number was allocated (< ``next_seq``), was consumed by
      the worker (< ``sq_head``), and appears at most once;
    * single owner: the backing relay segment obeys the catalogue's
      :func:`~repro.verify.invariants.single_owner` (checked when
      *kernel* is given).
    """
    violations: List[InvariantViolation] = []
    idx = ring.peek_indices()

    for side in ("sq", "cq"):
        head, tail = idx[f"{side}_head"], idx[f"{side}_tail"]
        if head > tail:
            violations.append(InvariantViolation(
                "ring-head-le-tail",
                f"{ring.name}: {side}_head {head} > {side}_tail {tail}"))
        if tail - head > ring.entries:
            violations.append(InvariantViolation(
                "ring-bounded",
                f"{ring.name}: {side} holds {tail - head} records, "
                f"capacity {ring.entries}"))

    seen = set()
    for cqe in ring.peek_cqes():
        if cqe.seq >= idx["next_seq"]:
            violations.append(InvariantViolation(
                "cqe-matches-sqe",
                f"{ring.name}: CQE seq {cqe.seq} was never submitted "
                f"(next_seq {idx['next_seq']})"))
        elif cqe.seq >= idx["sq_head"]:
            violations.append(InvariantViolation(
                "cqe-matches-sqe",
                f"{ring.name}: CQE seq {cqe.seq} completed before its "
                f"SQE was consumed (sq_head {idx['sq_head']})"))
        if cqe.seq in seen:
            violations.append(InvariantViolation(
                "cqe-matches-sqe",
                f"{ring.name}: duplicate CQE for seq {cqe.seq}"))
        seen.add(cqe.seq)

    seg = getattr(ring, "segment", None)
    if seg is not None and kernel is not None:
        holders = [t for t in kernel.threads
                   if t.xpc.seg_reg.length > 0
                   and t.xpc.seg_reg.segment is seg]
        if holders:
            violations += [
                InvariantViolation(v.invariant, f"{ring.name}: {v.message}")
                for v in single_owner(seg, holders)]

    return violations


def check_cluster_invariants(cluster) -> List[InvariantViolation]:
    """Fabric-level predicates over a live multi-node cluster.

    *cluster* is duck-typed (anything with the
    :class:`repro.cluster.fabric.Cluster` read surface) so this layer
    does not import :mod:`repro.cluster`.  All reads are uncharged.

    * ring-membership: the shard ring contains exactly the live nodes —
      a dead node still owning shards would black-hole its keys, a live
      node missing from the ring serves nothing;
    * resolvable-names: every published name resolves on each live node
      claimed to serve it (directory and node-local nameserver agree);
    * clock-sanity: every node's clock is non-negative, and no node ran
      past the cluster wall clock (``wall = max(node.now)``);
    * worker-bounds: each pool's active worker count stays within
      ``[1, provisioned]`` — autoscaling must never park a pool at zero
      or invent cores;
    * partition-symmetry: severed links are unordered pairs of known
      nodes (no half-open cuts to nodes the fabric never met).
    """
    violations: List[InvariantViolation] = []
    naming = cluster.naming
    live_ids = {node.node_id for node in cluster.nodes.values()
                if node.alive}
    ring_ids = set(naming.ring.nodes())

    for node_id in ring_ids - live_ids:
        violations.append(InvariantViolation(
            "cluster-ring-membership",
            f"node {node_id} owns shards on the ring but is not a "
            f"live node"))
    for node_id in live_ids - ring_ids:
        violations.append(InvariantViolation(
            "cluster-ring-membership",
            f"live node {node_id} is missing from the shard ring"))

    for name in naming.names():
        for node_id in sorted(naming._names.get(name, ())):
            node = naming.nodes.get(node_id)
            if node is None or not node.alive:
                violations.append(InvariantViolation(
                    "cluster-resolvable-names",
                    f"{name!r} claims dead/unknown node {node_id} as "
                    f"a server"))
                continue
            if not node.serves(name):
                violations.append(InvariantViolation(
                    "cluster-resolvable-names",
                    f"{name!r} lists {node.name} but its local "
                    f"nameserver has no such binding"))

    wall = cluster.wall_cycles
    for node in cluster.nodes.values():
        if node.now < 0:
            violations.append(InvariantViolation(
                "cluster-clock-sanity",
                f"{node.name} clock is negative ({node.now})"))
        if node.alive and node.now > wall:
            violations.append(InvariantViolation(
                "cluster-clock-sanity",
                f"{node.name} at cycle {node.now} is past the cluster "
                f"wall clock {wall}"))
        for pool in getattr(node, "live_pools", node.pools):
            if not 1 <= pool.active_workers <= len(pool.workers):
                violations.append(InvariantViolation(
                    "cluster-worker-bounds",
                    f"{pool.name}: active_workers "
                    f"{pool.active_workers} outside "
                    f"[1, {len(pool.workers)}]"))

    known_ids = set(cluster.nodes)
    for pair in cluster.link.partitions:
        if len(set(pair)) != 2 or not set(pair) <= known_ids:
            violations.append(InvariantViolation(
                "cluster-partition-symmetry",
                f"partition {pair} does not join two known nodes"))

    return violations


def check_quiescent(kernel, thread) -> List[InvariantViolation]:
    """Between top-level calls *thread* must be fully unwound (LIFO
    restore observed end-to-end)."""
    violations: List[InvariantViolation] = []
    stack = thread.xpc.link_stack
    if stack.depth != 0:
        violations.append(InvariantViolation(
            "link-stack-lifo",
            f"{thread} link stack depth {stack.depth} != 0 between "
            f"top-level calls"))
    if thread.xpc.cap_bitmap is not thread.home_caps:
        violations.append(InvariantViolation(
            "link-stack-lifo",
            f"{thread} capability state not restored to its home "
            f"bitmap between top-level calls"))
    return violations
