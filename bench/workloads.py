"""The five workloads: seeded inputs, a fresh simulated system, one timed pass.

Every workload has the same shape, so the runner treats them alike:

* ``inputs(seed)`` builds everything the pass consumes (payload bytes,
  the cluster request list, the fuzz programs).  Nothing is generated
  inside the timed loop;
* ``system(inputs)`` builds a fresh simulated system;
* ``run(system, inputs, clock)`` is the timed pass.  It drives the ops,
  checks every output, stamps *clock* at op boundaries and returns a
  :class:`Pass`.

``repro`` is imported inside these methods, never at module level,
because the runner re-imports the simulator for every set-up it times.
Run lengths are constructor arguments; :data:`WORKLOADS` holds the
benchmark's fixed sizes and tests build tiny ones.
"""

from __future__ import annotations

import functools
import random
import time
from dataclasses import dataclass, replace
from types import SimpleNamespace
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: Each pass is split into this many equal op chunks for host rates.
CHUNKS = 20

#: Deterministic counters read from public simulator state after a pass.
COUNTERS = (
    "xpc.xcalls", "xpc.swapsegs", "xpc.seg_bytes_passed", "xpc.exceptions",
    "hw.tlb_hit_rate",
    "aio.flushes", "aio.batch_fill", "aio.stolen", "aio.ring_full",
    "cluster.remote_share", "cluster.rpc_messages", "cluster.rpc_bytes",
    "cluster.failed",
    "proptest.divergences", "proptest.invariant_failures",
)


class ChunkClock:
    """Host-time stamps at :data:`CHUNKS` equal unit boundaries of a pass.

    A workload calls :meth:`mark` before each unit (an op, a request, a
    fuzz program) and once more when the pass ends.  *on_unit* sees
    every unit index; the traced run stamps it on the spans that follow.
    """

    def __init__(self, units: int,
                 on_unit: Optional[Callable[[int], None]] = None) -> None:
        chunks = max(1, min(CHUNKS, units))
        self._bounds = [units * k // chunks for k in range(chunks + 1)]
        self._next = 0
        self._on_unit = on_unit
        #: (host seconds, ops done) at each boundary.
        self.stamps: List[Tuple[float, int]] = []

    def mark(self, units_done: int, ops_done: int) -> None:
        if self._on_unit is not None:
            self._on_unit(units_done)
        if (self._next < len(self._bounds)
                and units_done == self._bounds[self._next]):
            self.stamps.append((time.perf_counter(), ops_done))
            self._next += 1


@dataclass
class Pass:
    """What one timed pass did, on both clocks."""

    ops: int
    failed: int
    #: Simulated cycles per op or request.
    latencies: List[int]
    sim_cycles: int
    counters: Dict[str, float]
    stamps: List[Tuple[float, int]]

    @property
    def host_s(self) -> float:
        return self.stamps[-1][0] - self.stamps[0][0]

    def chunks(self) -> List[Tuple[int, float]]:
        """(ops, host seconds) of each chunk."""
        return [(o1 - o0, t1 - t0) for (t0, o0), (t1, o1)
                in zip(self.stamps, self.stamps[1:])]

    def simulated(self) -> tuple:
        """Everything the simulator decided; host time left out."""
        return (self.ops, self.failed, self.sim_cycles, self.latencies,
                self.counters)


def _core_counts(cores: Iterable, into: Optional[dict] = None) -> dict:
    out = into if into is not None else dict.fromkeys(
        ("xcalls", "swapsegs", "seg_bytes_passed", "exceptions",
         "tlb_hits", "tlb_misses"), 0)
    for core in cores:
        out["tlb_hits"] += core.tlb.stats.hits
        out["tlb_misses"] += core.tlb.stats.misses
        engine = core.xpc_engine
        if engine is not None:
            out["xcalls"] += engine.stats.xcalls
            out["swapsegs"] += engine.stats.swapsegs
            out["seg_bytes_passed"] += engine.stats.seg_bytes_passed
            out["exceptions"] += engine.stats.exceptions
    return out


def _counters(before: dict, after: dict, extra: Optional[dict] = None
              ) -> Dict[str, float]:
    d = {key: after[key] - before[key] for key in after}
    accesses = d["tlb_hits"] + d["tlb_misses"]
    out: Dict[str, float] = dict.fromkeys(COUNTERS, 0)
    out.update({
        "xpc.xcalls": d["xcalls"],
        "xpc.swapsegs": d["swapsegs"],
        "xpc.seg_bytes_passed": d["seg_bytes_passed"],
        "xpc.exceptions": d["exceptions"],
        "hw.tlb_hit_rate": d["tlb_hits"] / accesses if accesses else 0.0,
    })
    out.update(extra or {})
    return out


# ---------------------------------------------------------------------------
# xcall_echo: the fig5 per-call path
# ---------------------------------------------------------------------------

ECHO_SIZES = (16, 64, 256, 64, 1024, 16, 4096, 256, 64, 512)
#: Distinct payloads per size slot; call i sends payload i mod 160.
ECHO_VARIANTS = 16


class EchoHandler:
    """The echo server: reply with the request bytes."""

    def __call__(self, meta, payload):
        data = payload.read(meta[1])
        return ("ok", len(data)), data


class XcallEcho:
    """BaseKernel + XPCTransport echo server on one core."""

    name = "xcall_echo"

    def __init__(self, calls: int = 20_000,
                 handler: Callable[[], Callable] = EchoHandler) -> None:
        self.calls = calls
        self.handler = handler

    def inputs(self, seed: int) -> List[bytes]:
        rng = random.Random(seed)
        return [rng.randbytes(size)
                for _ in range(ECHO_VARIANTS) for size in ECHO_SIZES]

    def units(self, payloads) -> int:
        return self.calls

    def system(self, payloads):
        from repro.hw.machine import Machine
        from repro.ipc.xpc_transport import XPCTransport
        from repro.kernel.kernel import BaseKernel
        machine = Machine(cores=1, mem_bytes=64 * 1024 * 1024)
        kernel = BaseKernel(machine)
        core = machine.core0
        client = kernel.create_thread(kernel.create_process("client"))
        kernel.run_thread(core, client)
        transport = XPCTransport(kernel, core, client, partial_context=True)
        server_proc = kernel.create_process("echo")
        sid = transport.register("echo", self.handler(), server_proc,
                                 kernel.create_thread(server_proc))
        transport.grant_to_thread(sid, client)
        return SimpleNamespace(machine=machine, core=core,
                               transport=transport, sid=sid)

    def run(self, echo, payloads: List[bytes], clock: ChunkClock) -> Pass:
        core, call, sid = echo.core, echo.transport.call, echo.sid
        before = _core_counts(echo.machine.cores)
        start = core.cycles
        latencies, failed = [], 0
        for i in range(self.calls):
            clock.mark(i, i)
            data = payloads[i % len(payloads)]
            c0 = core.cycles
            meta, reply = call(sid, ("echo", len(data)), data,
                               reply_capacity=len(data))
            latencies.append(core.cycles - c0)
            if meta[0] != "ok" or reply != data:
                failed += 1
        clock.mark(self.calls, self.calls)
        return Pass(self.calls, failed, latencies, core.cycles - start,
                    _counters(before, _core_counts(echo.machine.cores)),
                    clock.stamps)


# ---------------------------------------------------------------------------
# fs_net_chain: the fig7 two-server chains
# ---------------------------------------------------------------------------

FS_SIZES = (4096, 512, 8192, 2048)
#: Write slot i of a round lands at offset i * FS_STRIDE, as in fig7.
FS_STRIDE = 512
NET_MAX = 1400
FS_PATH = "/data"


class FsNetChain:
    """seL4-XPC fs write + read-back + net ping-pong rounds on 2 cores."""

    name = "fs_net_chain"

    def __init__(self, rounds: int = 300) -> None:
        self.rounds = rounds

    def inputs(self, seed: int) -> List[bytes]:
        rng = random.Random(seed)
        return [rng.randbytes(size)
                for _ in range(self.rounds) for size in FS_SIZES]

    def units(self, payloads) -> int:
        return 3 * len(payloads)

    def system(self, payloads):
        from repro.snap.scenarios import fig7_world
        world, _ops = fig7_world()
        world.fs.create(FS_PATH)
        return world

    def run(self, world, payloads: List[bytes], clock: ChunkClock) -> Pass:
        core, fs, net = world.core, world.fs, world.net
        before = _core_counts(world.machine.cores)
        start = core.cycles
        shadow = bytearray()
        latencies, failed, op = [], 0, 0
        for k, data in enumerate(payloads):
            off = (k % len(FS_SIZES)) * FS_STRIDE
            end = off + len(data)
            shadow.extend(bytes(max(0, end - len(shadow))))
            shadow[off:end] = data

            clock.mark(op, op)
            c0 = core.cycles
            wrote = fs.write(FS_PATH, data, off)
            latencies.append(core.cycles - c0)

            clock.mark(op + 1, op + 1)
            c0 = core.cycles
            got = fs.read(FS_PATH, off, len(data))
            latencies.append(core.cycles - c0)

            clock.mark(op + 2, op + 2)
            msg = data[:NET_MAX]
            c0 = core.cycles
            sent = net.send(world.cli_sock, msg)
            echoed = net.recv(world.srv_sock, len(msg))
            latencies.append(core.cycles - c0)
            op += 3

            failed += ((wrote != len(data)) + (got != shadow[off:end])
                       + (sent != len(msg) or echoed != msg))
        clock.mark(op, op)
        return Pass(op, failed, latencies, core.cycles - start,
                    _counters(before, _core_counts(world.machine.cores)),
                    clock.stamps)


# ---------------------------------------------------------------------------
# cluster_read / cluster_write: aio rings under the serving fabric
# ---------------------------------------------------------------------------

CLIENTS = 100_000
KEYS = 2_048
ZIPF_THETA = 0.99
CORES_PER_NODE = 3
#: p99 target (simulated cycles) of every node's SLO-autoscaled pool.
SLO_P99 = 60_000


class _Replay:
    """Hands a pre-built request list to ``Cluster.run``, stamping the
    chunk clock as each request enters the fabric.  The list's arrivals
    must already start where the cluster's clock stands."""

    def __init__(self, requests: list, start_cycle: int,
                 clock: ChunkClock) -> None:
        self._requests = requests
        self._start_cycle = start_cycle
        self._clock = clock

    def requests(self, n: int, start_cycle: int = 0):
        if n != len(self._requests) or start_cycle != self._start_cycle:
            raise ValueError("a replay serves its whole list to the "
                             "cluster it was shifted for")
        for i, req in enumerate(self._requests):
            self._clock.mark(i, i)
            yield req


class _NodeShadow:
    """Checks every completion one node's pools deliver.

    An update must be acknowledged with ``b"1"``.  A read must hit with
    the update value once an update of its key has completed on this
    node, and miss before that: a node serves its batches one at a
    time and completes each batch as soon as it is served, so
    completion order is service order.
    """

    def __init__(self, node, requests: list, value_bytes: int) -> None:
        from repro.xpc.errors import XPCError
        self._error = XPCError
        self._requests = requests
        self._value = b"v" * value_bytes
        self._updated = set()
        self.wrong = 0
        for pool in node.live_pools:
            for worker in pool.workers:
                batcher = worker.batcher
                batcher.on_complete = functools.partial(
                    self._observe, batcher.on_complete)

    def _observe(self, inner, future) -> None:
        if inner is not None:
            inner(future)
        try:
            reply_meta, reply = future.result()
        except self._error:
            return      # the fabric counts failed requests itself
        op, seq = future.meta
        key = self._requests[seq].key
        if op == "update":
            ok = reply_meta == ("ok", seq) and reply == b"1"
            self._updated.add(key)
        elif key in self._updated:
            ok = reply_meta == ("ok", seq) and reply == self._value
        else:
            ok = reply_meta == ("miss", seq) and reply == b""
        if not ok:
            self.wrong += 1


class ClusterKV:
    """``KVShard`` behind the cluster fabric, open loop in simulated time."""

    def __init__(self, name: str, nodes: int, requests: int,
                 mix: Dict[str, float], value_bytes: int,
                 mean_gap: float) -> None:
        self.name = name
        self.nodes = nodes
        self.requests = requests
        self.mix = mix
        self.value_bytes = value_bytes
        self.mean_gap = mean_gap

    def inputs(self, seed: int) -> list:
        from repro.cluster import LoadGenerator
        load = LoadGenerator(clients=CLIENTS, keys=KEYS,
                             mean_interval=self.mean_gap, theta=ZIPF_THETA,
                             mix=self.mix, value_bytes=self.value_bytes,
                             seed=seed)
        return list(load.requests(self.requests))

    def units(self, requests) -> int:
        return len(requests)

    def system(self, requests):
        from repro.cluster import Cluster, KVShard
        cluster = Cluster(nodes=self.nodes, cores_per_node=CORES_PER_NODE)
        cluster.serve("kv", KVShard, autoscale=True, slo_p99=SLO_P99)
        shadows = [_NodeShadow(node, requests, self.value_bytes)
                   for node in cluster.live_nodes()]
        # Start the arrivals at the set-up cluster's clock, exactly as
        # LoadGenerator.requests(n, start_cycle) would have stamped them.
        start = cluster.wall_cycles
        shifted = [replace(req, arrival=req.arrival + start)
                   for req in requests]
        return SimpleNamespace(cluster=cluster, shadows=shadows,
                               start=start, requests=shifted)

    def run(self, system, requests: list, clock: ChunkClock) -> Pass:
        cluster = system.cluster
        cores = [core for node in cluster.nodes.values()
                 for core in node.machine.cores]
        before = _core_counts(cores)
        n = len(requests)
        stats = cluster.run(
            "kv", _Replay(system.requests, system.start, clock), n)
        clock.mark(n, n)
        pools = [pool for node in cluster.live_nodes()
                 for pool in node.live_pools]
        batchers = [worker.batcher for pool in pools
                    for worker in pool.workers]
        flushes = sum(b.flushes for b in batchers)
        ring_full = cluster.registry.get("cluster.failed.ring_full")
        lost = n - stats.completed - stats.failed
        wrong = sum(shadow.wrong for shadow in system.shadows)
        return Pass(n, stats.failed + lost + wrong, stats.latencies,
                    stats.wall_cycles,
                    _counters(before, _core_counts(cores), {
                        "aio.flushes": flushes,
                        "aio.batch_fill": (sum(b.completed for b in batchers)
                                           / flushes if flushes else 0.0),
                        "aio.stolen": sum(pool.stolen for pool in pools),
                        "aio.ring_full": (0 if ring_full is None
                                          else ring_full.value),
                        "cluster.remote_share": stats.remote / max(
                            1, stats.remote + stats.local),
                        "cluster.rpc_messages": cluster.link.messages,
                        "cluster.rpc_bytes": cluster.link.bytes,
                        "cluster.failed": stats.failed,
                    }),
                    clock.stamps)


# ---------------------------------------------------------------------------
# fuzz_diff: the 10-executor differential fleet
# ---------------------------------------------------------------------------

#: CI keeps generated programs 0..CLEAN_SEEDS-1 divergence-free.
CLEAN_SEEDS = 200


class _Capture:
    """An executor factory that remembers what it built (for counters)."""

    def __init__(self, factory: Callable, built: list) -> None:
        self._factory = factory
        self._built = built

    def __call__(self):
        executor = self._factory()
        self._built.append(executor)
        return executor


class FuzzDiff:
    """Generated programs through every executor, diffed on the oracle."""

    name = "fuzz_diff"

    def __init__(self, programs: int = 120) -> None:
        if not 0 < programs <= CLEAN_SEEDS:
            raise ValueError(f"programs must be in 1..{CLEAN_SEEDS}")
        self.programs = programs

    def inputs(self, seed: int) -> list:
        """Programs 0..programs-1 in order; the seed does not apply.

        Across 120-program seed windows the pooled per-op p50 jumps by
        40 % and programs differ in host cost per op, so every seed runs
        the same programs and times the same chunks.
        """
        from repro.proptest.gen import generate
        return [generate(i) for i in range(self.programs)]

    def units(self, programs) -> int:
        return len(programs)

    def system(self, programs):
        from repro.proptest.executors import default_executor_factories
        return default_executor_factories()

    def run(self, roster, programs: list, clock: ChunkClock) -> Pass:
        from repro.proptest.harness import run_differential
        built: list = []
        factories = [(name, _Capture(factory, built))
                     for name, factory in roster]
        counts = _core_counts(())
        zero = dict(counts)
        latencies: List[int] = []
        ops = sim_cycles = divergences = invariant_failures = 0
        for i, program in enumerate(programs):
            clock.mark(i, ops)
            result = run_differential(program, factories)
            for report in result.reports:
                ops += len(report.op_cycles)
                latencies.extend(report.op_cycles)
            divergences += len(result.divergences)
            invariant_failures += len(result.invariant_failures)
            sim_cycles += result.sim_cycles
            _core_counts((core for executor in built
                          for core in executor.machine.cores), into=counts)
            built.clear()
        clock.mark(len(programs), ops)
        return Pass(ops, divergences + invariant_failures, latencies,
                    sim_cycles,
                    _counters(zero, counts, {
                        "proptest.divergences": divergences,
                        "proptest.invariant_failures": invariant_failures,
                    }),
                    clock.stamps)


WORKLOADS = {w.name: w for w in (
    XcallEcho(),
    FsNetChain(),
    ClusterKV("cluster_read", nodes=4, requests=16_000,
              mix={"read": 0.95, "update": 0.05}, value_bytes=64,
              mean_gap=600.0),
    ClusterKV("cluster_write", nodes=1, requests=20_000,
              mix={"read": 0.5, "update": 0.5}, value_bytes=1024,
              mean_gap=1_500.0),
    FuzzDiff(),
)}
