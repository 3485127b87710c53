"""The worker-side drain service: one ``xcall`` drains a whole ring.

A :class:`RingService` registers a normal x-entry (through
:class:`~repro.runtime.xpclib.XPCService`, so the §4.2 trampoline,
C-stack switch and context accounting all still apply) whose handler
attaches an :class:`~repro.aio.ring.XPCRing` view over the handed-over
window and pops SQEs until the submission queue is empty.  Each request
is presented to the wrapped service handler as a zero-copy
:class:`~repro.ipc.transport.RelayPayload` over its arena slot, so
nested onward calls (FS → blockdev) can keep sliding the same window
down the chain (§4.4).

This is AnyCall's aggregation argument materialized on XPC: the
per-crossing cost (xcall + trampoline + xret) is paid once per *batch*
instead of once per *request*.

Fault points: ``aio.worker_death`` fires between two SQEs — the worker
process is killed mid-batch, completions already pushed survive in the
ring (the client harvests them during §4.2 repair), and the supervisor
restart path re-dispatches the rest.
"""

from __future__ import annotations

from typing import Optional

import repro.probe as probe
from repro.hw.cpu import Core
from repro.ipc.transport import Handler, RelayPayload
from repro.kernel.kernel import BaseKernel
from repro.kernel.process import Thread
from repro.runtime.xpclib import (ExhaustionPolicy, ProcessCrashFault,
                                  XPCService)
from repro.aio.ring import SQE_ERR, SQE_OK, XPCRing


class RingService:
    """Serve a transport-style ``handler(meta, payload)`` from a ring.

    The wrapped handler keeps the exact synchronous contract (reply as
    bytes, as an in-place byte count, or ``None``), so the same service
    code serves both front-ends.
    """

    def __init__(self, kernel: BaseKernel, core: Core,
                 server_thread: Thread, handler: Handler,
                 name: str = "aio",
                 max_contexts: int = 4,
                 policy: ExhaustionPolicy = ExhaustionPolicy.FAIL,
                 partial_context: bool = False,
                 max_drain: Optional[int] = None) -> None:
        self.kernel = kernel
        self.handler = handler
        self.name = name
        self.server_thread = server_thread
        self.max_drain = max_drain
        self.mem = kernel.machine.memory
        self.drained = 0
        self.failed = 0
        self.service = XPCService(
            kernel, core, server_thread, self._drain,
            max_contexts=max_contexts, policy=policy,
            partial_context=partial_context, name=f"aio:{name}",
        )

    @property
    def entry_id(self) -> int:
        return self.service.entry_id

    # -- the batched handler -------------------------------------------
    def _drain(self, call) -> int:
        """Pop SQEs until the submission queue is dry; returns count."""
        core = call.core
        start = core.cycles
        ring = XPCRing.attach(core, self.mem, call.window, name=self.name)
        drained = 0
        while self.max_drain is None or drained < self.max_drain:
            sqe = ring.pop_sqe(core)
            if sqe is None:
                break
            if drained and probe.INJECT:
                act = probe.inject("aio.worker_death")
                if act is not None:
                    # Die between two SQEs: the one just popped is
                    # consumed but never completed; earlier CQEs stay
                    # harvestable in the ring.
                    self._die(act)
            self._serve_one(core, ring, sqe)
            drained += 1
        self.drained += drained
        if probe.METRIC:
            probe.metric("counter", f"aio.drained.{self.name}", drained,
                         core.cycles)
            probe.metric("histogram", f"aio.batch_size.{self.name}",
                         drained, core.cycles)
        if probe.PMU:
            probe.pmu(core, "cycles.aio.drain", core.cycles - start)
        return drained

    def _serve_one(self, core: Core, ring: XPCRing, sqe) -> None:
        meta = ring.read_meta(sqe)
        payload = RelayPayload(self.mem, ring.payload_window(sqe),
                               sqe.data_len, base_offset=sqe.data_off)
        try:
            reply_meta, reply = self.handler(meta, payload)
        except ProcessCrashFault:
            raise
        except Exception as exc:  # noqa: BLE001 - contained per-request
            # A failing request must not poison the rest of the batch:
            # complete it with an error CQE instead of unwinding.
            self.failed += 1
            ring.push_cqe(core, sqe.seq, SQE_ERR,
                          (type(exc).__name__, str(exc)[:120]),
                          sqe.data_off, 0)
            return
        ring.push_cqe(core, sqe.seq, SQE_OK, reply_meta,
                      sqe.data_off, payload.put_reply(reply))

    def _die(self, act: dict) -> None:
        """Injected worker death mid-batch (mirrors the xpclib crash
        injection): kill our process; the migrated caller thread
        unwinds through the kernel's §4.2 repair."""
        self.kernel.kill_process(self.server_thread.process,
                                 lazy=bool(act.get("lazy", True)))
        raise ProcessCrashFault(self.name, self.server_thread.process)
