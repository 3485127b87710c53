"""Multi-segment relay paths under batching: seg-list + swapseg from a
ring drain, and the §3.3 return-time integrity check against a worker
that swaps (or shrinks) the ring window away."""

import pytest

import repro.obs as obs
from repro.aio import WorkerPool
from repro.obs import ObsSession
from repro.runtime.xpclib import xpc_call
from repro.verify import check_ring_invariants
from repro.xpc.errors import InvalidLinkageError
from repro.xpc.relayseg import NO_MASK
from tests.conftest import TRANSPORT_SPECS, build_transport


def build_xpc(cores=3):
    return build_transport(TRANSPORT_SPECS[2],
                           mem_bytes=256 * 1024 * 1024, cores=cores)


def test_nested_swapseg_calls_from_a_drain():
    """A worker serving a batch calls onward through the swapseg path
    (no window_slice): each request parks the *ring* window in the
    worker's seg-list, stages into a scratch segment, calls, and swaps
    the ring back — §4.4's multi-segment dance, once per request."""
    machine, kernel, transport, _ct = build_xpc()
    inner_sid = None

    def inner(meta, payload):
        return ("in",) + tuple(meta), payload.read()[::-1]

    from tests.conftest import make_server
    inner_proc, inner_thread = make_server(kernel, "inner")
    inner_sid = transport.register("inner", inner, inner_proc,
                                   inner_thread)

    def outer(meta, payload):
        # Onward call staged through a scratch segment: payload bytes,
        # no window handover — forces the swapseg path mid-drain.
        reply_meta, data = transport.call(
            inner_sid, ("fwd", meta[1]), payload.read(),
            reply_capacity=64)
        return (0,) + reply_meta[1:], data

    worker_core = machine.cores[2]
    pool = WorkerPool(kernel, outer, [worker_core], max_batch=64)
    transport.grant_to_thread(
        inner_sid, pool.workers[0].supervisor.thread("aio-w0"))

    engine = worker_core.xpc_engine
    swaps_before = engine.stats.swapsegs
    futures = [pool.submit(("req", i), f"pay{i}".encode(),
                           reply_capacity=64) for i in range(5)]
    results = pool.wait_all(futures)
    assert [meta for meta, _ in results] == [
        (0, "fwd", i) for i in range(5)]
    assert [data for _, data in results] == [
        f"pay{i}".encode()[::-1] for i in range(5)]
    # Two swapsegs per request (park ring / restore ring).
    assert engine.stats.swapsegs - swaps_before >= 10
    assert check_ring_invariants(pool.workers[0].batcher.ring,
                                 kernel) == []


def test_sync_and_batched_traffic_interleave():
    """The client's own relay segment (sync calls) and the batcher's
    ring segment coexist; neither window leaks into the other path."""
    machine, kernel, transport, client_thread = build_xpc()
    from tests.conftest import make_server
    proc, thread = make_server(kernel, "echo")

    def echo(meta, payload):
        return ("ok",) + tuple(meta), payload.read()

    sid = transport.register("echo", echo, proc, thread)
    pool = WorkerPool(kernel, echo, [machine.cores[2]], max_batch=4)
    for round_no in range(3):
        sync_meta, sync_data = transport.call(
            sid, ("s", round_no), b"sync" * 8, reply_capacity=64)
        assert sync_data == b"sync" * 8
        futures = [pool.submit(("b", round_no, i), b"batched",
                               reply_capacity=16) for i in range(4)]
        for (meta, data), i in zip(pool.wait_all(futures), range(4)):
            assert meta == ("ok", "b", round_no, i)
            assert data == b"batched"
    assert check_ring_invariants(pool.workers[0].batcher.ring,
                                 kernel) == []


class TestIntegrityCheck:
    """§3.3: xret validates the callee still holds exactly the window
    it was handed.  A drain worker that swaps the ring window into its
    seg-list (stealing it, or replacing it with a shrunk one) traps at
    xret; the kernel's §4.2 repair restores the client's frame, the
    call surfaces as a peer death, and the batcher harvests whatever
    the worker completed before the trap from the client-owned ring."""

    def _run_theft(self, steal):
        machine, kernel, transport, _ct = build_xpc()
        worker_core = machine.cores[2]

        def thief(meta, payload):
            steal(kernel, worker_core)
            return (0,), None

        pool = WorkerPool(kernel, thief, [worker_core], max_batch=64)
        session = ObsSession()
        with obs.active(session):
            future = pool.submit(("x",))
            pool.drain()
        return machine, kernel, pool, future, session

    def _assert_trapped_and_repaired(self, machine, pool, future,
                                     session):
        engine = machine.cores[2].xpc_engine
        assert engine.stats.exceptions >= 1
        assert session.registry.counter("kernel.repairs").value >= 1
        assert session.registry.counter("xpc.peer_died").value >= 1
        batcher = pool.workers[0].batcher
        # The theft is indistinguishable from a peer crash: no flush
        # "succeeded" (the xcall never returned cleanly), yet the
        # completion the worker pushed before the trap lives in the
        # client-owned ring and is harvested on recovery.
        assert batcher.flushes == 0
        assert future.result() == ((0,), b"")
        # The repair handed the client its window back: the ring
        # segment is active on the client thread again, not parked in
        # the thief's seg-list.
        seg_reg = batcher.client_thread.xpc.seg_reg
        assert seg_reg.segment is batcher.seg
        assert seg_reg.length == batcher.seg.length

    def test_swapped_away_window_traps_on_return(self):
        def steal(kernel, core):
            # Park the ring window in an empty seg-list slot; seg-reg
            # is left invalid — not what the linkage record expects.
            core.xpc_engine.swapseg(7)

        self._assert_trapped_and_repaired(*self._drop_kernel(
            self._run_theft(steal)))

    def test_shrunk_window_traps_on_return(self):
        def steal(kernel, core):
            # Swap the handed-over ring window for a *different*,
            # smaller segment of the worker's own: the seg-reg no
            # longer matches the linkage record at xret.
            thread = core.xpc_engine.current_thread
            _small, slot = kernel.create_relay_seg(
                core, thread.process, 4096)
            core.xpc_engine.swapseg(slot)

        self._assert_trapped_and_repaired(*self._drop_kernel(
            self._run_theft(steal)))

    def test_bare_engine_traps_without_repair(self):
        """The same mismatch with no kernel on the unwind path: the raw
        ``xret`` raises and pushes the record back for the kernel."""
        machine, kernel, transport, _ct = build_xpc()
        core = machine.cores[2]

        def thief(meta, payload):
            core.xpc_engine.swapseg(7)
            return (0,), None

        pool = WorkerPool(kernel, thief, [core], max_batch=64)
        batcher = pool.workers[0].batcher
        pool.submit(("x",))
        kernel.run_thread(batcher.core, batcher.client_thread)
        with pytest.raises(InvalidLinkageError):
            xpc_call(batcher.core, batcher.entry_id(), 1,
                     mask=NO_MASK, kernel=None)
        assert core.xpc_engine.stats.exceptions >= 1

    @staticmethod
    def _drop_kernel(run):
        machine, _kernel, pool, future, session = run
        return machine, pool, future, session
