"""One machine of the cluster: kernel + engines + pools + nameserver.

A :class:`Node` owns a full single-machine stack — a
:class:`~repro.hw.machine.Machine` (its own cycle clock), a kernel, and
one :class:`~repro.aio.pool.WorkerPool` per served name — plus the
node-local :class:`~repro.services.nameserver.NameServer` whose circuit
breakers gate resolution, exactly as on a single-machine deployment.
The cluster's sharded directory (:mod:`repro.cluster.naming`) hashes
over these per-node name servers rather than replacing them.

Core 0 is the node's *frontend* core: it runs the RPC client side
(serialization charges for remote sends land there), while cores 1..K
host the pool workers.  Nothing outside :mod:`repro.cluster.node`,
:mod:`repro.cluster.rpc`, and :mod:`repro.cluster.serving` may reach
through a Node into its ``kernel``/``machine`` — that is the cluster
row of the ``encapsulation`` lint rule; remote work goes through the
RPC layer.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.aio.pool import WorkerPool
from repro.hw.machine import Machine
from repro.params import CycleParams
from repro.sel4 import Sel4Kernel
from repro.services.nameserver import NameServer


class NodeDownError(Exception):
    """The target node is dead (machine-level failure)."""

    def __init__(self, node_id) -> None:
        self.node_id = node_id
        super().__init__(f"node {node_id!r} is down")


class _NodeDirectory:
    """The transport-shaped adapter behind the node-local NameServer.

    The per-node name server only needs a cycle source (for breaker
    cooldowns) and a capability-grant hook; pools manage their own
    grants at construction, so the grant hook is a no-op here.
    """

    def __init__(self, node: "Node") -> None:
        self.node = node

    @property
    def core(self):
        return self.node.frontend_core

    def grant_to_thread(self, sid: int, thread) -> None:
        """Pools grant caps at construction; nothing to do here."""


class Node:
    """One simulated machine serving named pools behind a nameserver."""

    def __init__(self, node_id: int, cores: int = 2,
                 mem_bytes: int = 64 * 1024 * 1024,
                 params: Optional[CycleParams] = None,
                 kernel_cls=Sel4Kernel,
                 breaker_threshold: int = 3,
                 breaker_cooldown: int = 100_000) -> None:
        self.node_id = node_id
        self.name = f"n{node_id}"
        self.machine = Machine(cores=cores, mem_bytes=mem_bytes,
                               params=params)
        self.kernel = kernel_cls(self.machine)
        #: Core 0: the RPC client side and the node's idle clock.
        self.frontend_core = self.machine.core0
        self.alive = True
        self.nameserver = NameServer(
            _NodeDirectory(self), breaker_threshold=breaker_threshold,
            breaker_cooldown=breaker_cooldown)
        self.pools: List[WorkerPool] = []
        self._sids: Dict[str, int] = {}
        #: Cross-node traffic counters (the fabric maintains these).
        self.rpc_in = 0
        self.rpc_out = 0

    # -- serving -------------------------------------------------------
    def serve(self, name: str, handler: Callable,
              workers: Optional[int] = None, **pool_kwargs) -> WorkerPool:
        """Start a worker pool for *name* and publish it locally.

        Workers occupy cores 1..workers (core 0 stays the frontend);
        a single-core node runs the worker on core 0.
        """
        if name in self._sids:
            raise KeyError(f"{self.name} already serves {name!r}")
        cores = self.machine.cores[1:] if len(self.machine.cores) > 1 \
            else self.machine.cores
        if workers is not None:
            cores = cores[:workers]
        pool = WorkerPool(self.kernel, handler, cores,
                          name=f"{self.name}.{name}", **pool_kwargs)
        if hasattr(handler, "on_pool"):
            # Shards with onward server->server calls (sqlite -> FS ->
            # blockdev) grant their worker threads the chain caps here.
            handler.on_pool(pool)
        sid = len(self.pools)
        self.pools.append(pool)
        self._sids[name] = sid
        self.nameserver.publish(name, sid)
        return pool

    def pool(self, name: str) -> WorkerPool:
        """Resolve *name* through the local nameserver (breaker-gated)."""
        if not self.alive:
            raise NodeDownError(self.node_id)
        return self.pools[self.nameserver.resolve(name)]

    def serves(self, name: str) -> bool:
        return name in self._sids

    def retire(self, name: str) -> None:
        """Cleanly take *name* out of service: every worker goes down
        through its supervisor's retire path (killed without a restart,
        all charges on the worker's core) and the local binding is
        unpublished — no stale entry left to die by breaker timeout."""
        sid = self._sids.pop(name)
        pool = self.pools[sid]
        for worker in pool.workers:
            worker.supervisor.retire(worker.service_name)
        # Hold the sid slot (other pools' sids must stay stable) but
        # drop the pool itself so control loops skip it.
        self.pools[sid] = None
        self.nameserver.unpublish(name)

    # -- the node clock ------------------------------------------------
    def wait_until(self, cycle: int) -> None:
        """Idle-advance the frontend core to *cycle* (an arrival stamp
        on the shared open-loop timeline).  A node's wall clock keeps
        moving while it waits for traffic — which is what breaker
        cooldowns and SLO windows are measured against; without this, a
        node whose every request is rejected at the directory would
        freeze its own clock and never finish a cooldown."""
        if self.alive and cycle > self.frontend_core.cycles:
            self.frontend_core.tick(cycle - self.frontend_core.cycles)

    @property
    def now(self) -> int:
        """Node wall-clock: the busiest core's cycle count."""
        return max(core.cycles for core in self.machine.cores)

    # -- failure -------------------------------------------------------
    def kill(self) -> None:
        """Machine-level death: every process on the node is gone.

        The fabric removes the node from the shard ring and re-homes
        its keys; in-flight requests surface :class:`NodeDownError`.
        """
        self.alive = False

    @property
    def live_pools(self) -> List[WorkerPool]:
        """The pools still in service (retired slots skipped)."""
        return [pool for pool in self.pools if pool is not None]

    def stats(self) -> dict:
        return {
            "node": self.name,
            "alive": self.alive,
            "wall_cycles": self.now,
            "rpc_in": self.rpc_in,
            "rpc_out": self.rpc_out,
            "pools": {name: {
                "active_workers": self.pools[sid].active_workers,
                "submitted": self.pools[sid].submitted,
                "completed": self.pools[sid].completed,
                "scale_events": self.pools[sid].scale_events,
            } for name, sid in sorted(self._sids.items())},
        }
