"""The cluster: N nodes, one deterministic cross-node event loop.

A :class:`Cluster` hosts N :class:`~repro.cluster.node.Node`\\ s on
independent cycle clocks, a :class:`ShardedNameServer` homing every key
on one node, and an :class:`RpcLink` pricing the cross-node hops.  The
event loop (:meth:`run`) consumes a load generator's request stream in
arrival order; each request enters at a *frontend* node (client
affinity: ``client_id`` mod live nodes) and is served either by an
intra-node ``xcall`` (frontend == home — the shard-local fast path) or
a cross-node RPC (serialize + wire + deliver).  Every ``control_every``
requests the loop hits a *control step*: pools drain, completions are
harvested into the fabric's own always-on
:class:`~repro.obs.registry.MetricsRegistry` (the control plane must
not depend on ``repro.obs`` being armed), SLO engines are consulted and
pools autoscale, and armed fault points may kill a node or cut a link.

Every per-request metric update is stamped with the cycle the event
already carries: a dispatch or a fabric-level failure with the request's
``arrival``, a completion with its future's ``complete_cycle``.  The
dispatch counters (``cluster.remote``, ``cluster.local``) and the
latency histogram ``cluster.req_latency_cycles`` are registered when the
cluster is built; each node's ``cluster.<node>.req_latency_cycles`` and
``cluster.<node>.active_workers`` when it joins.  The fabric updates
them through held handles, so no per-request path derives a cluster or
node clock or formats a metric name.  A request hashes its key once:
:meth:`Cluster.dispatch` finds the home with ``naming.home`` and gates
it with ``naming.admit``.  A request that fails because its pool's
worker died (``XPCPeerDiedError``, including a worker its supervisor
gave up) counts against the home's breaker, as a partition does.

Determinism: the stream is seeded, nodes are visited in id order, and
no wall-clock or hash-order state leaks in — two runs with the same
arguments produce identical per-node cycle counts and an identical
:meth:`trace_hash` (the capacity benchmark asserts this).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import repro.probe as probe
from repro.aio.ring import XPCRingFullError
from repro.analysis.stats import percentile
from repro.cluster.loadgen import LoadGenerator, Request
from repro.cluster.naming import ShardedNameServer
from repro.cluster.node import Node, NodeDownError
from repro.cluster.rpc import ClusterPartitionedError, RpcLink, remote_submit
from repro.obs.registry import Gauge, Histogram, MetricsRegistry
from repro.params import CycleParams, DEFAULT_PARAMS
from repro.prof.slo import SLOEngine
from repro.sel4 import Sel4Kernel
from repro.services.nameserver import ServiceUnavailableError
from repro.xpc.errors import XPCPeerDiedError

#: request -> (meta, payload, reply_capacity): the default app encoding
#: (a tiny KV wire format; real apps install their own via serve()).
def default_encoder(req: Request) -> Tuple[tuple, bytes, int]:
    payload = req.key.encode()
    if req.op != "read":
        payload += b"=" + b"v" * req.value_bytes
    return (req.op, req.seq), payload, max(req.value_bytes, 16)


@dataclass
class _ServiceSpec:
    """How one sharded service is installed on every node."""

    name: str
    factory: Callable[[Node], Callable]     # node -> pool handler
    encoder: Callable[[Request], Tuple[tuple, bytes, int]]
    workers: Optional[int]
    autoscale: bool
    slo_p99: Optional[int]
    pool_kwargs: dict


class _TraceHash:
    """A sha256 accumulator that survives snapshot deepcopies.

    Raw ``_hashlib.HASH`` leaves refuse pickling, which would make a
    whole :class:`Cluster` unsnapshottable; ``.copy()`` clones the
    mid-stream digest state exactly, so a restored fabric extends the
    same trace and fingerprints by its digest-so-far.
    """

    def __init__(self) -> None:
        self._h = hashlib.sha256()

    def update(self, data: bytes) -> None:
        self._h.update(data)

    def hexdigest(self) -> str:
        return self._h.hexdigest()

    def __deepcopy__(self, memo: dict) -> "_TraceHash":
        clone = object.__new__(_TraceHash)
        clone._h = self._h.copy()
        memo[id(self)] = clone
        return clone

    def __snap_fingerprint__(self) -> str:
        return self._h.hexdigest()


@dataclass
class _Inflight:
    """One dispatched request awaiting harvest."""

    name: str
    req: Request
    node_id: int
    remote: bool
    future: object


@dataclass
class ClusterRunStats:
    """What one :meth:`Cluster.run` measured."""

    requests: int = 0
    completed: int = 0
    failed: int = 0
    remote: int = 0
    local: int = 0
    wall_cycles: int = 0
    latencies: List[int] = field(default_factory=list)

    def percentile(self, p: float) -> float:
        """Interpolated percentile of the completed latencies (0 when
        nothing completed)."""
        return percentile(self.latencies, p) if self.latencies else 0

    @property
    def req_per_kcycle(self) -> float:
        if not self.wall_cycles:
            return 0.0
        return 1000.0 * self.completed / self.wall_cycles


class Cluster:
    """N simulated machines behind one sharded serving fabric."""

    def __init__(self, nodes: int = 2, cores_per_node: int = 2,
                 mem_bytes: int = 64 * 1024 * 1024,
                 params: Optional[CycleParams] = None,
                 vnodes: int = 64,
                 kernel_cls=Sel4Kernel,
                 breaker_threshold: int = 3,
                 breaker_cooldown: int = 100_000,
                 slo_window_cycles: int = 25_000) -> None:
        if nodes < 1:
            raise ValueError("a cluster needs at least one node")
        self.params = params or DEFAULT_PARAMS
        self.cores_per_node = cores_per_node
        self.mem_bytes = mem_bytes
        self.kernel_cls = kernel_cls
        self.breaker_threshold = breaker_threshold
        self.breaker_cooldown = breaker_cooldown
        self.slo_window_cycles = slo_window_cycles
        #: The fabric's own metrics: always on, never cycle-charged —
        #: autoscaling decisions must not depend on repro.obs being
        #: armed, or obs-on and obs-off runs would diverge.
        self.registry = MetricsRegistry()
        self._latency = self.registry.histogram(
            "cluster.req_latency_cycles")
        self._remote = self.registry.counter("cluster.remote")
        self._local = self.registry.counter("cluster.local")
        #: node id -> that node's latency histogram and active-worker
        #: gauge, registered at join.
        self._node_latency: Dict[int, Histogram] = {}
        self._node_workers: Dict[int, Gauge] = {}
        self.naming = ShardedNameServer(vnodes=vnodes)
        self.link = RpcLink(self.params)
        self.nodes: Dict[int, Node] = {}
        self._services: Dict[str, _ServiceSpec] = {}
        self._next_node_id = 0
        self._inflight: List[_Inflight] = []
        self._trace = _TraceHash()
        self._trace_records = 0
        self.node_deaths = 0
        for _ in range(nodes):
            self.add_node()

    # -- membership ----------------------------------------------------
    def add_node(self, cores: Optional[int] = None) -> Node:
        """Join a fresh node; already-registered services install onto
        it immediately (elastic scale-out) and the ring rebalances."""
        node = Node(self._next_node_id,
                    cores=cores or self.cores_per_node,
                    mem_bytes=self.mem_bytes, params=self.params,
                    kernel_cls=self.kernel_cls,
                    breaker_threshold=self.breaker_threshold,
                    breaker_cooldown=self.breaker_cooldown)
        self._next_node_id += 1
        self.nodes[node.node_id] = node
        self._node_latency[node.node_id] = self.registry.histogram(
            f"cluster.{node.name}.req_latency_cycles")
        self._node_workers[node.node_id] = self.registry.gauge(
            f"cluster.{node.name}.active_workers")
        self.naming.node_join(node)
        for spec in self._services.values():
            self._install(node, spec)
        return node

    def kill_node(self, node_id: int) -> None:
        """Machine death: ring rebalance, survivors absorb the shards."""
        node = self.nodes[node_id]
        if not node.alive:
            return
        node.kill()
        self.naming.node_death(node_id)
        self.node_deaths += 1
        self.registry.counter("cluster.node_deaths").inc(
            cycle=self.wall_cycles)

    def live_nodes(self) -> List[Node]:
        return self.naming.live_nodes()

    # -- partitions ----------------------------------------------------
    def partition(self, a: int, b: int) -> None:
        self.link.partition(a, b)

    def heal(self, a: int, b: int) -> None:
        self.link.heal(a, b)

    # -- service installation ------------------------------------------
    def serve(self, name: str, factory: Callable[[Node], Callable],
              encoder: Callable = default_encoder,
              workers: Optional[int] = None,
              autoscale: bool = False,
              slo_p99: Optional[int] = None,
              **pool_kwargs) -> None:
        """Install a sharded service on every live node.

        *factory* builds the pool handler per node (each node owns its
        backend state — that is what sharding means here); *encoder*
        maps a :class:`Request` onto the service's wire format.  With
        ``autoscale=True`` each node's pool starts at one active worker
        and grows/shrinks from its own p99 SLO (``slo_p99``, simulated
        cycles) evaluated over the fabric registry.
        """
        if name in self._services:
            raise KeyError(f"service {name!r} already installed")
        if autoscale and slo_p99 is None:
            raise ValueError("autoscale needs an slo_p99 target")
        spec = _ServiceSpec(name=name, factory=factory, encoder=encoder,
                            workers=workers, autoscale=autoscale,
                            slo_p99=slo_p99, pool_kwargs=dict(pool_kwargs))
        self._services[name] = spec
        for node in self.live_nodes():
            self._install(node, spec)

    def _install(self, node: Node, spec: _ServiceSpec) -> None:
        pool = node.serve(spec.name, spec.factory(node),
                          workers=spec.workers, **spec.pool_kwargs)
        self.naming.publish(spec.name, node)
        if spec.autoscale:
            pool.slo = SLOEngine(
                self.registry,
                [f"p99(cluster.{node.name}.req_latency_cycles) "
                 f"< {spec.slo_p99}"],
                window_cycles=self.slo_window_cycles,
                burn_windows=4, alert_burn=0.25)
            pool.scale_to(1)

    # -- dispatch ------------------------------------------------------
    def frontend_for(self, client_id: int) -> Node:
        live = self.naming.live
        if not live:
            raise NodeDownError(-1)
        return live[client_id % len(live)]

    def dispatch(self, name: str, req: Request) -> bool:
        """Route one request; False when it failed at the fabric layer
        (partition, dead home, open breaker, full ring)."""
        spec = self._services[name]
        meta, payload, reply_capacity = spec.encoder(req)
        frontend = self.frontend_for(req.client_id)
        frontend.wait_until(req.arrival)
        for attempt in (0, 1):
            try:
                # Advance the home's idle clock to the arrival stamp
                # before the breaker gate: cooldowns burn on the shared
                # open-loop timeline, not only while the node is busy.
                home = self.naming.home(req.key)
                home.wait_until(req.arrival)
                self.naming.admit(name, home)
            except ServiceUnavailableError:
                self._count_failure("cluster.failed.breaker_open", req)
                return False
            except (NodeDownError, KeyError):
                self._count_failure("cluster.failed.resolve", req)
                return False
            try:
                if home is frontend:
                    future = home.pool(name).submit(
                        meta, payload, reply_capacity,
                        arrival_cycle=req.arrival)
                    remote = False
                else:
                    future = remote_submit(
                        self.link, frontend, home, name, meta, payload,
                        reply_capacity, arrival_cycle=req.arrival)
                    remote = True
            except NodeDownError:
                # The home died under us: rebalance and retry once —
                # the ring now homes the key on a survivor.
                self.naming.node_death(home.node_id)
                if attempt == 0:
                    continue
                self._count_failure("cluster.failed.node_down", req)
                return False
            except ClusterPartitionedError:
                self.naming.report_failure(name, home)
                self._count_failure("cluster.failed.partition", req)
                return False
            except ServiceUnavailableError:
                self._count_failure("cluster.failed.breaker_open", req)
                return False
            except XPCRingFullError:
                self._count_failure("cluster.failed.ring_full", req)
                return False
            self._inflight.append(_Inflight(
                name=name, req=req, node_id=home.node_id, remote=remote,
                future=future))
            (self._remote if remote else self._local).inc(
                cycle=req.arrival)
            self.naming.report_success(name, home)
            return True
        return False

    def _count_failure(self, counter: str, req: Request) -> None:
        self.registry.counter(counter).inc(cycle=req.arrival)

    # -- the control step ----------------------------------------------
    def control_step(self, stats: Optional[ClusterRunStats] = None) -> int:
        """Drain, harvest, autoscale — one beat of the fabric's loop.

        Returns the number of requests harvested.  Armed
        ``cluster.node_death`` faults land here (the deterministic
        point between request batches where a machine can vanish).
        """
        if probe.INJECT:
            action = probe.inject("cluster.node_death")
            if action is not None:
                victims = [n.node_id for n in self.live_nodes()]
                victim = action.get("node", victims[-1] if victims else None)
                if victim is not None and victim in self.nodes:
                    self.kill_node(victim)
        for node in self.live_nodes():
            for pool in node.live_pools:
                pool.drain()
        harvested = self._harvest(stats)
        for node in self.live_nodes():
            # Drained pools hold no backlog, so autoscaling moves no
            # clock: one read stamps the whole node.
            now = node.now
            for pool in node.live_pools:
                if pool.slo is not None:
                    pool.autoscale(now)
            self._node_workers[node.node_id].set(
                sum(p.active_workers for p in node.live_pools), cycle=now)
        return harvested

    def _harvest(self, stats: Optional[ClusterRunStats]) -> int:
        done = 0
        still: List[_Inflight] = []
        for inflight in self._inflight:
            future = inflight.future
            if not future.done:
                still.append(inflight)
                continue
            done += 1
            try:
                _, reply = future.result()
                reply_bytes = len(reply)
                ok = True
            except Exception as exc:
                reply_bytes = 0
                ok = False
                if isinstance(exc, XPCPeerDiedError):
                    # The pool's worker died (or was given up): that is
                    # the home's health, so it feeds the home's breaker.
                    self.naming.report_failure(
                        inflight.name, self.nodes[inflight.node_id])
            latency = future.complete_cycle - inflight.req.arrival
            if inflight.remote:
                latency += self.link.reply_transit(reply_bytes)
            self._record(inflight, latency, ok)
            if stats is not None:
                stats.completed += 1 if ok else 0
                stats.failed += 0 if ok else 1
                stats.remote += 1 if inflight.remote else 0
                stats.local += 0 if inflight.remote else 1
                if ok:
                    stats.latencies.append(latency)
        self._inflight = still
        return done

    def _record(self, inflight: _Inflight, latency: int,
                ok: bool) -> None:
        cycle = inflight.future.complete_cycle
        self._latency.observe(latency, cycle=cycle)
        self._node_latency[inflight.node_id].observe(latency, cycle=cycle)
        if not ok:
            self.registry.counter("cluster.request_errors").inc(
                cycle=cycle)
        self._trace.update(
            f"{inflight.req.seq}:{inflight.req.key}:{inflight.node_id}:"
            f"{int(inflight.remote)}:{latency}:{int(ok)};".encode())
        self._trace_records += 1

    # -- the event loop ------------------------------------------------
    def run(self, name: str, load: LoadGenerator, requests: int,
            control_every: int = 64) -> ClusterRunStats:
        """Drive *requests* synthetic requests through service *name*."""
        stats = ClusterRunStats()
        base_wall = self.wall_cycles
        for req in load.requests(requests, start_cycle=base_wall):
            stats.requests += 1
            if not self.dispatch(name, req):
                stats.failed += 1
            if stats.requests % control_every == 0:
                self.control_step(stats)
        while self._inflight:
            before = len(self._inflight)
            self.control_step(stats)
            if len(self._inflight) == before:
                # Nothing drains any more (dead nodes hold the rest).
                for inflight in self._inflight:
                    stats.failed += 1
                self._inflight.clear()
                break
        stats.wall_cycles = self.wall_cycles - base_wall
        return stats

    # -- introspection -------------------------------------------------
    @property
    def wall_cycles(self) -> int:
        """Cluster wall-clock: the busiest live node's clock (all
        clocks share cycle zero).  A max over every core of every live
        node, so it is read per run and per control decision, never per
        request."""
        live = [n for n in self.nodes.values() if n.alive]
        if not live:
            return 0
        return max(node.now for node in live)

    def trace_hash(self) -> str:
        """Content hash over every harvested request record — two runs
        of the same seeded workload must agree byte-for-byte."""
        return self._trace.hexdigest()

    def stats(self) -> dict:
        return {
            "nodes": {nid: node.stats()
                      for nid, node in sorted(self.nodes.items())},
            "wall_cycles": self.wall_cycles,
            "rpc_messages": self.link.messages,
            "rpc_bytes": self.link.bytes,
            "partitions": sorted(self.link.partitions),
            "node_deaths": self.node_deaths,
            "trace_records": self._trace_records,
            "trace_hash": self.trace_hash(),
        }
