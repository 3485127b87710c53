"""Multi-core worker pools draining submission rings.

One :class:`WorkerPool` spreads batched requests over W workers, each
pinned to one core of the existing :class:`~repro.hw.machine.Machine`
multi-core model: worker *i* owns a submitter thread, a ring +
:class:`~repro.aio.batch.Batcher`, and a supervised
:class:`~repro.aio.server.RingService` process.  The migrating-thread
model carries over — a worker's drain runs on the submitting core — so
pool throughput is wall-clocked exactly like the multicore benchmarks:
``max(core.cycles)`` across the pool.

Dispatch policies:

* ``"sharded"`` — round-robin over per-core rings; no coordination
  cost, but a slow request convoys its shard.
* ``"steal"`` — dispatch to the earliest-available core (the classic
  shared-queue/work-stealing bound); a request landing off its home
  shard charges a ``cacheline_transfer`` for bouncing the ring line.

Independently of the dispatch policy, :meth:`migrate_backlog` moves
queued-but-unflushed submissions between rings through the ring API,
charging real copy costs — the explicit steal used when one shard backs
up behind a stall.

Each worker's process runs under a :class:`ServiceSupervisor`; after an
``aio.worker_death`` injection the batcher's entry-id supplier resolves
to the restarted generation and unfinished submissions are re-driven
(drain-and-restart recovery).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import repro.obs as obs
from repro.hw.cpu import Core
from repro.ipc.transport import Handler
from repro.kernel.kernel import BaseKernel
from repro.runtime.supervisor import (ConstRef, EntryRef, RestartPolicy,
                                      ServiceSupervisor)
from repro.runtime.xpclib import ExhaustionPolicy
from repro.aio.backpressure import AdmissionController
from repro.aio.batch import Batcher, XPCFuture
from repro.aio.server import RingService

POLICIES = ("sharded", "steal")


@dataclass
class _Worker:
    index: int
    core: Core
    client_thread: object
    supervisor: ServiceSupervisor
    service_name: str
    batcher: Batcher

    @property
    def backlog(self) -> int:
        return self.batcher.backlog


class _WorkerFactory:
    """The supervised RingService factory for one worker.

    An object, not a closure, so a snapshot's deepcopy re-points it at
    the copied pool (whose config it reads at restart time) instead of
    leaving cells aliasing the pre-snapshot world.
    """

    def __init__(self, pool: "WorkerPool", service_name: str) -> None:
        self.pool = pool
        self.service_name = service_name

    def __call__(self, kernel, core, thread) -> RingService:
        pool = self.pool
        return RingService(
            kernel, core, thread, pool.handler, name=self.service_name,
            max_contexts=pool.max_contexts, policy=pool.exhaustion,
            partial_context=pool.partial_context,
            serve_context=pool.serve_context)


class _PoolCompletion:
    """Per-worker completion callback (class for the same snapshot
    reason as :class:`_WorkerFactory`)."""

    def __init__(self, pool: "WorkerPool", index: int) -> None:
        self.pool = pool
        self.index = index

    def __call__(self, future: XPCFuture) -> None:
        self.pool._completed(self.index, future)


class WorkerPool:
    """W supervised ring-drain workers behind one submit() front door."""

    def __init__(self, kernel: BaseKernel, handler: Handler,
                 cores: Sequence[Core],
                 name: str = "aio",
                 policy: str = "sharded",
                 max_batch: int = 16,
                 max_wait_cycles: Optional[int] = None,
                 entries: int = 128,
                 seg_bytes: int = 512 * 1024,
                 max_contexts: int = 8,
                 partial_context: bool = False,
                 exhaustion: ExhaustionPolicy = ExhaustionPolicy.FAIL,
                 admission: Optional[AdmissionController] = None,
                 restart_policy: Optional[RestartPolicy] = None,
                 serve_context: Optional[Callable] = None,
                 slo=None) -> None:
        if policy not in POLICIES:
            raise ValueError(f"unknown pool policy {policy!r} "
                             f"(choose from {POLICIES})")
        if not cores:
            raise ValueError("worker pool needs at least one core")
        self.kernel = kernel
        self.name = name
        self.policy = policy
        self.admission = admission
        #: Duck-typed SLO signal source (``signal(now_cycles) ->
        #: {"scale_up": ..., "scale_down": ...}``, e.g. a
        #: ``repro.prof.slo.SLOEngine``) consulted by :meth:`autoscale`.
        #: Duck typing keeps the layering pointing prof -> aio.
        self.slo = slo
        self.handler = handler
        self.max_contexts = max_contexts
        self.partial_context = partial_context
        self.exhaustion = exhaustion
        self.serve_context = serve_context
        self.client_process = kernel.create_process(f"{name}-clients")
        self.workers: List[_Worker] = []
        self.submitted = 0
        self.completed = 0
        self.stolen = 0
        self.scale_events = 0
        self._rr = 0
        self.active_workers = len(cores)
        for index, core in enumerate(cores):
            client_thread = kernel.create_thread(self.client_process)
            kernel.run_thread(core, client_thread)
            supervisor = ServiceSupervisor(kernel, core,
                                           policy=restart_policy)
            service_name = f"{name}-w{index}"
            supervisor.supervise(
                service_name, _WorkerFactory(self, service_name),
                grants=[ConstRef(client_thread)])
            batcher = Batcher(
                kernel, core, client_thread,
                entry_id=EntryRef(supervisor, service_name),
                entries=entries, seg_bytes=seg_bytes,
                max_batch=max_batch, max_wait_cycles=max_wait_cycles,
                admission=admission, name=service_name,
                on_complete=_PoolCompletion(self, index))
            self.workers.append(_Worker(
                index=index, core=core, client_thread=client_thread,
                supervisor=supervisor, service_name=service_name,
                batcher=batcher))

    # -- dispatch ------------------------------------------------------
    def _pick(self) -> _Worker:
        active = self.workers[:self.active_workers]
        home = active[self._rr % len(active)]
        self._rr += 1
        if self.policy == "sharded":
            return home
        # "steal": the request goes to the earliest-available core;
        # leaving the home shard bounces the ring's cache line.
        chosen = min(active, key=lambda w: w.core.cycles)
        if chosen is not home:
            self.stolen += 1
            chosen.core.tick(
                self.kernel.params.cacheline_transfer)
        return chosen

    def submit(self, meta: tuple, payload: bytes = b"",
               reply_capacity: int = 0,
               arrival_cycle: Optional[int] = None) -> XPCFuture:
        """Queue one request on a worker chosen by the pool policy.

        In open-loop workloads *arrival_cycle* stamps when the request
        entered the system: an idle worker core fast-forwards to it (a
        core cannot serve a request before it arrives), and latency is
        measured from it."""
        worker = self._pick()
        if (arrival_cycle is not None
                and worker.core.cycles < arrival_cycle):
            worker.core.tick(arrival_cycle - worker.core.cycles)
        self.submitted += 1
        return worker.batcher.submit(meta, payload, reply_capacity,
                                     arrival_cycle=arrival_cycle)

    def drain(self) -> int:
        """Flush every worker's batcher; returns completions."""
        done = 0
        for worker in self.workers:
            done += worker.batcher.flush()
            if obs.ACTIVE is not None:
                obs.ACTIVE.registry.gauge(
                    f"aio.backlog.{worker.service_name}").set(
                        worker.backlog, cycle=worker.core.cycles)
        return done

    def wait_all(self, futures: Sequence[XPCFuture]) -> list:
        self.drain()
        return [f.result() for f in futures]

    # -- explicit stealing ---------------------------------------------
    def migrate_backlog(self, src: int, dst: int,
                        max_n: Optional[int] = None) -> int:
        """Move up to *max_n* queued submissions from worker *src*'s
        ring to worker *dst*'s — through the ring API, with real costs:
        the thief pops the victim's SQEs (the client owns its ring
        between flushes) and re-stages payload bytes into its own arena
        (a genuine copy, unlike the zero-copy fast path)."""
        victim, thief = self.workers[src], self.workers[dst]
        moved = 0
        while ((max_n is None or moved < max_n)
               and victim.batcher.backlog > 0):
            sqe = victim.batcher.ring.pop_sqe(victim.core)
            if sqe is None:
                break
            future = victim.batcher.take_pending(sqe.seq)
            if future is None:
                continue
            thief.core.tick(self.kernel.params.copy_cycles(
                len(future.payload)))
            thief.batcher.adopt(future)
            moved += 1
        self.stolen += moved
        if moved and obs.ACTIVE is not None:
            obs.ACTIVE.registry.counter(
                f"aio.migrated.{self.name}").inc(
                    moved, cycle=thief.core.cycles)
        return moved

    # -- SLO-driven autoscaling ----------------------------------------
    def scale_to(self, n: int) -> int:
        """Set the active worker count to *n* (clamped to the pool).

        Workers past the new watermark stop receiving dispatches;
        their queued-but-unflushed backlog migrates to active workers
        through :meth:`migrate_backlog` (real ring-pop + copy costs),
        so nothing queued is stranded.  Scaling up simply widens the
        dispatch set — the cores were provisioned at construction.
        """
        n = max(1, min(n, len(self.workers)))
        if n == self.active_workers:
            return n
        if n < self.active_workers:
            for idx in range(n, self.active_workers):
                dst = idx % n
                while self.workers[idx].batcher.backlog > 0:
                    if not self.migrate_backlog(idx, dst):
                        break
        self.active_workers = n
        self.scale_events += 1
        if obs.ACTIVE is not None:
            obs.ACTIVE.registry.gauge(
                f"aio.active_workers.{self.name}").set(
                    n, cycle=self.wall_cycles)
        return n

    def autoscale(self, now_cycles: Optional[int] = None) -> int:
        """One autoscaling step driven by the pool's SLO signal.

        Consults ``self.slo.signal(now)`` (duck-typed; see ``slo`` in
        the constructor): a breaching objective adds a worker, a fully
        clean burn window retires one.  Returns the active count.
        """
        if self.slo is None:
            return self.active_workers
        now = self.wall_cycles if now_cycles is None else now_cycles
        signal = self.slo.signal(now)
        if signal.get("scale_up"):
            return self.scale_to(self.active_workers + 1)
        if signal.get("scale_down"):
            return self.scale_to(self.active_workers - 1)
        return self.active_workers

    # -- instrumentation ----------------------------------------------
    def _completed(self, index: int, future: XPCFuture) -> None:
        self.completed += 1
        worker = self.workers[index]
        if obs.ACTIVE is not None:
            obs.ACTIVE.registry.counter(
                f"aio.completed.{worker.service_name}").inc(
                    cycle=worker.core.cycles)
            obs.ACTIVE.pmu.add(worker.core, "aio.completions", 1)

    def stats(self) -> dict:
        """Per-worker drain/backlog snapshot (uncharged)."""
        out = {}
        for worker in self.workers:
            service = worker.supervisor.service(worker.service_name)
            out[worker.service_name] = {
                "core_cycles": worker.core.cycles,
                "backlog": worker.backlog,
                "drained": getattr(service, "drained", 0),
                "failed": getattr(service, "failed", 0),
                "flushes": worker.batcher.flushes,
                "completed": worker.batcher.completed,
                "restarts": worker.supervisor.status(
                    worker.service_name).restarts,
            }
        return out

    @property
    def wall_cycles(self) -> int:
        """Pool wall-clock: the busiest core's cycle count."""
        return max(w.core.cycles for w in self.workers)
