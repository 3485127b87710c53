"""Client-side batching: futures, deadline flush, crash re-dispatch.

A :class:`Batcher` owns one ring (and the relay segment under it) plus
the client thread that ``xcall``s the drain service.  ``submit`` is
cheap — push one SQE, get an :class:`XPCFuture` — and the boundary is
crossed only on ``flush``: when the batch reaches ``max_batch``, when
the oldest pending request is older than ``max_wait_cycles``, or when
the caller asks (``wait_all``).

Crash story (§4.2 carried into the batched world): if the worker dies
mid-batch the single ``xcall`` raises
:class:`~repro.xpc.errors.XPCPeerDiedError` after kernel repair — but
the ring *persists*, because it lives in the client's relay segment.
Completions the worker pushed before dying are harvested normally;
submissions the dead worker consumed without completing are re-pushed;
untouched SQEs simply remain queued.  With a supervisor-backed entry
supplier (see :class:`~repro.aio.pool.WorkerPool`) the retry lands on
the restarted worker and no request is lost.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, List, Optional, Union

import repro.probe as probe
from repro.hw.cpu import Core
from repro.kernel.kernel import BaseKernel
from repro.kernel.process import Thread
from repro.runtime.supervisor import SupervisorError
from repro.runtime.xpclib import xpc_call
from repro.xpc.errors import (InvalidXEntryError, XPCError,
                              XPCPeerDiedError)
from repro.xpc.relayseg import NO_MASK
from repro.aio.backpressure import AdmissionController
from repro.aio.ring import SQE_OK, XPCRing, XPCRingFullError


class XPCRequestError(XPCError):
    """One request in a batch failed inside the service handler."""

    def __init__(self, reply_meta: tuple) -> None:
        self.reply_meta = reply_meta
        super().__init__(f"request failed: {reply_meta!r}")


class XPCFuture:
    """Completion handle for one submitted request."""

    def __init__(self, meta: tuple, payload: bytes, reply_capacity: int,
                 submit_cycle: int,
                 arrival_cycle: Optional[int] = None) -> None:
        self.meta = meta
        self.payload = payload
        self.reply_capacity = reply_capacity
        self.submit_cycle = submit_cycle
        #: Open-loop workloads stamp the request's *arrival* time here;
        #: latency is then measured from arrival, not from submit.
        self.arrival_cycle = arrival_cycle
        #: The batcher core's clock when the future was resolved or
        #: failed — every path that completes a future stamps it.
        self.complete_cycle: Optional[int] = None
        self.seq: Optional[int] = None
        self.done = False
        self._reply_meta: Optional[tuple] = None
        self._reply: bytes = b""
        self._error: Optional[BaseException] = None

    def result(self):
        """(reply_meta, reply_bytes); raises if failed or pending."""
        if not self.done:
            raise XPCError("future is still pending — flush the batcher")
        if self._error is not None:
            raise self._error
        return self._reply_meta, self._reply

    @property
    def latency_base(self) -> int:
        return (self.arrival_cycle if self.arrival_cycle is not None
                else self.submit_cycle)

    def _resolve(self, reply_meta: tuple, reply: bytes,
                 cycle: int) -> None:
        self._reply_meta, self._reply = reply_meta, reply
        self.complete_cycle = cycle
        self.done = True

    def _fail(self, error: BaseException, cycle: int) -> None:
        self._error = error
        self.complete_cycle = cycle
        self.done = True


class Batcher:
    """Accumulate requests into a ring; cross the boundary once."""

    def __init__(self, kernel: BaseKernel, core: Core,
                 client_thread: Thread,
                 entry_id: Union[int, Callable[[], int]],
                 seg_bytes: int = 256 * 1024,
                 entries: int = 64,
                 max_batch: int = 16,
                 max_wait_cycles: Optional[int] = None,
                 admission: Optional[AdmissionController] = None,
                 name: str = "aio",
                 on_complete: Optional[Callable[[XPCFuture], None]] = None,
                 max_flush_retries: int = 3) -> None:
        self.kernel = kernel
        self.core = core
        self.client_thread = client_thread
        self._entry = entry_id
        self.max_batch = max_batch
        self.max_wait_cycles = max_wait_cycles
        self.admission = admission
        self.name = name
        self.on_complete = on_complete
        self.max_flush_retries = max_flush_retries
        seg, slot = kernel.create_relay_seg(
            core, client_thread.process, seg_bytes)
        client_thread.process.seg_list.drop(slot)
        kernel.install_relay_seg(client_thread, seg)
        self.seg = seg
        self.ring = XPCRing.format(core, kernel.machine.memory, seg,
                                   entries=entries, name=name)
        self._pending: "OrderedDict[int, XPCFuture]" = OrderedDict()
        self._oldest_cycle: Optional[int] = None
        self.flushes = 0
        self.completed = 0

    # -- introspection -------------------------------------------------
    @property
    def backlog(self) -> int:
        return len(self._pending)

    def entry_id(self) -> int:
        return self._entry() if callable(self._entry) else self._entry

    # -- submission ----------------------------------------------------
    def submit(self, meta: tuple, payload: bytes = b"",
               reply_capacity: int = 0,
               arrival_cycle: Optional[int] = None) -> XPCFuture:
        """Queue one request; returns its future.

        Flushes first when the deadline (``max_wait_cycles`` since the
        oldest pending submit) has passed, and after pushing when the
        batch reaches ``max_batch``."""
        core = self.core
        if self.admission is not None:
            self.admission.admit(core, drain_hook=self.flush)
        if (self.max_wait_cycles is not None and self._pending
                and core.cycles - self._oldest_cycle >= self.max_wait_cycles):
            self.flush()
        future = XPCFuture(meta, bytes(payload), reply_capacity,
                           submit_cycle=core.cycles,
                           arrival_cycle=arrival_cycle)
        try:
            self._push(future)
        except XPCRingFullError:
            # One shot at making room: drain what is in flight, retry.
            self.flush()
            try:
                self._push(future)
            except XPCRingFullError:
                if self.admission is not None:
                    self.admission.release(core)
                raise
        if len(self._pending) >= self.max_batch:
            self.flush()
        return future

    def _push(self, future: XPCFuture) -> None:
        seq = self.ring.push_sqe(self.core, future.meta, future.payload,
                                 future.reply_capacity)
        future.seq = seq
        self._pending[seq] = future
        if self._oldest_cycle is None:
            self._oldest_cycle = self.core.cycles

    def take_pending(self, seq: int) -> Optional[XPCFuture]:
        """Remove and return a not-yet-flushed future (steal support);
        its SQE must already have been popped from this ring."""
        future = self._pending.pop(seq, None)
        if not self._pending:
            self._oldest_cycle = None
        return future

    def adopt(self, future: XPCFuture) -> None:
        """Push a future stolen from another batcher into our ring.
        The admission slot follows the request — the victim released
        nothing, so a shared controller's count stays accurate."""
        self._push(future)
        if len(self._pending) >= self.max_batch:
            self.flush()

    # -- the single boundary crossing ----------------------------------
    def flush(self) -> int:
        """Hand the ring over (one ``xcall``), harvest completions.

        Returns the number of requests completed.  Worker death is
        retried up to ``max_flush_retries`` times against the (possibly
        supervisor-refreshed) entry id; requests that still cannot be
        served — retries spent, or the supervisor gave the worker up —
        fail their futures with ``XPCPeerDiedError``."""
        completed = 0
        attempts = 0
        while self._pending:
            try:
                entry = self.entry_id()
            except SupervisorError:
                self._fail_pending(-1)
                break
            self.kernel.run_thread(self.core, self.client_thread)
            try:
                # NO_MASK explicitly: the seg-mask register persists
                # across calls, and the worker must see the whole ring.
                xpc_call(self.core, entry, len(self._pending),
                         mask=NO_MASK, kernel=self.kernel)
            except (XPCPeerDiedError, InvalidXEntryError):
                # Peer died mid-drain, or was already dead when we
                # called (its x-entry invalidated by §4.2 teardown) —
                # either way: harvest what survived, re-resolve the
                # entry id (a supervisor hands back the restarted
                # generation), and retry the remainder.
                completed += self._harvest()
                attempts += 1
                if attempts > self.max_flush_retries:
                    self._fail_pending(entry)
                    break
                self._requeue_consumed()
                continue
            self.flushes += 1
            completed += self._harvest()
            if self._pending:
                # The worker drained fewer than we submitted (bounded
                # max_drain): call again for the remainder.
                attempts += 1
                if attempts > self.max_flush_retries:
                    self._fail_pending(entry)
                    break
        if not self._pending and self.ring.sq_head == self.ring.sq_tail:
            self.ring.reset(self.core)
        return completed

    def wait_all(self, futures: Optional[List[XPCFuture]] = None) -> list:
        """Flush until the given futures (default: all pending ones)
        are done; returns their ``result()`` values in order."""
        futures = list(futures) if futures is not None else list(
            self._pending.values())
        self.flush()
        return [f.result() for f in futures]

    # -- harvest / recovery --------------------------------------------
    def _harvest(self) -> int:
        core = self.core
        n = 0
        while True:
            cqe = self.ring.pop_cqe(core)
            if cqe is None:
                break
            future = self._pending.pop(cqe.seq, None)
            if future is None:
                continue
            reply_meta = self.ring.read_reply_meta(cqe)
            if cqe.status == SQE_OK:
                future._resolve(reply_meta,
                                self.ring.read_bytes(cqe.rdata_off,
                                                     cqe.rdata_len),
                                core.cycles)
            else:
                future._fail(XPCRequestError(reply_meta), core.cycles)
            self.completed += 1
            n += 1
            if self.admission is not None:
                self.admission.release(core)
            if probe.METRIC:
                probe.metric("histogram", "aio.req_latency_cycles",
                             core.cycles - future.latency_base,
                             core.cycles)
            if self.on_complete is not None:
                self.on_complete(future)
        if not self._pending:
            self._oldest_cycle = None
        return n

    def _requeue_consumed(self) -> None:
        """Re-push pending requests whose SQE the dead worker consumed
        without completing; untouched SQEs stay queued as they are."""
        consumed_below = self.ring.sq_head
        lost = [f for f in self._pending.values()
                if f.seq is not None and f.seq < consumed_below]
        for future in lost:
            del self._pending[future.seq]
            try:
                self._push(future)
            except XPCRingFullError as exc:
                future._fail(exc, self.core.cycles)
                if self.admission is not None:
                    self.admission.release(self.core)

    def _fail_pending(self, entry: int) -> None:
        for future in self._pending.values():
            future._fail(XPCPeerDiedError(entry), self.core.cycles)
            if self.admission is not None:
                self.admission.release(self.core)
        self._pending.clear()
        self._oldest_cycle = None

    def close(self) -> None:
        """Tear the ring's segment down (pending futures must be done)."""
        if self._pending:
            raise XPCError(f"{self.name}: close with "
                           f"{len(self._pending)} requests pending")
        self.kernel.deactivate_relay_seg(self.client_thread)
        if self.seg in self.kernel.relay_segments:
            self.kernel.free_relay_seg(self.core, self.seg)
