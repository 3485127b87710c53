"""The user-level XPC library: trampolines, C-stacks, and ``xpc_call``.

Implements the paper's programming model (Listing 1):

* a server registers an x-entry with a handler, a handler thread, and a
  max number of simultaneous XPC contexts;
* the library interposes a *trampoline* in front of every handler that
  picks an idle per-invocation context (C-Stack + local data), switches
  to it, and releases it on return (§4.2 Per-invocation C-Stack);
* a client calls ``xpc_call(entry_id, ...)``, which executes ``xcall``,
  runs the handler *on the caller's thread* (migrating-thread model), and
  returns through ``xret``.

Context exhaustion follows the paper's DoS discussion: a server chooses a
policy — fail, wait, or a credit system (§4.2, §6.1).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import repro.faults as faults
import repro.obs as obs
import repro.probe as probe
from repro.hw.cpu import Core
from repro.kernel.kernel import BaseKernel
from repro.kernel.process import Thread
from repro.xpc.engine import XPCEngine
from repro.xpc.entry import XEntry
from repro.xpc.errors import (InvalidLinkageError, LinkStackOverflowError,
                              LinkStackUnderflowError, XPCError,
                              XPCPeerDiedError)
from repro.xpc.relayseg import NO_MASK, SegMask, SegReg


class XPCBusyError(XPCError):
    """All XPC contexts of an x-entry are in use (DoS backpressure)."""


class XPCTimeoutError(XPCError):
    """The callee exceeded the caller's cycle budget (§6.1).

    "If the callee hangs for a long time, the caller thread may also
    hang.  XPC can offer a timeout mechanism to enforce the control
    flow to return to the caller in this case."  The kernel arms a
    watchdog at xcall time; when the callee's cycles exceed the budget
    the chain is unwound back to the caller with this error.
    """

    def __init__(self, budget: int, used: int):
        self.budget = budget
        self.used = used
        super().__init__(
            f"callee used {used} cycles against a budget of {budget}"
        )


class ExhaustionPolicy(enum.Enum):
    FAIL = "fail"          # return an error immediately
    WAIT = "wait"          # spin until a context frees up
    CREDITS = "credits"    # per-caller credit system (M3/Intel-QP style)


@dataclass
class XPCContext:
    """A per-invocation execution context: C-Stack plus local data."""

    index: int
    stack_va: int
    in_use: bool = False
    local_data: dict = field(default_factory=dict)


class RelayBuffer:
    """Typed view over the active relay-seg window of a thread.

    Reads and writes go through the core (so they are charged and
    translated through seg-reg), touching the same physical bytes for
    every process along the chain — that is the zero-copy property.
    """

    def __init__(self, core: Core, window: SegReg) -> None:
        if not window.valid:
            raise XPCError("no active relay segment window")
        self.core = core
        self.window = window

    def write(self, data: bytes, offset: int = 0) -> None:
        if offset + len(data) > self.window.length:
            raise IndexError("write escapes the relay window")
        self.core.mem_write(self.window.va_base + offset, data)

    def read(self, n: int, offset: int = 0) -> bytes:
        if offset + n > self.window.length:
            raise IndexError("read escapes the relay window")
        return self.core.mem_read(self.window.va_base + offset, n)

    def __len__(self) -> int:
        return self.window.length


@dataclass
class XPCCallContext:
    """What a handler receives: registers + the relay window."""

    core: Core
    engine: XPCEngine
    entry: XEntry
    context: XPCContext
    args: tuple                      # "register" arguments (small)
    window: SegReg                   # the relay window handed over
    caller_id: object                # unforgeable caller identity (t0)

    def relay(self) -> RelayBuffer:
        return RelayBuffer(self.core, self.window)


class XPCService:
    """Server-side helper: registers an x-entry behind a trampoline."""

    def __init__(self, kernel: BaseKernel, core: Core,
                 server_thread: Thread, handler: Callable,
                 max_contexts: int = 4,
                 policy: ExhaustionPolicy = ExhaustionPolicy.FAIL,
                 credits_per_caller: int = 8,
                 partial_context: bool = False,
                 name: str = "") -> None:
        self.kernel = kernel
        self.handler = handler
        self.server_thread = server_thread
        self.policy = policy
        self.partial_context = partial_context
        self.name = name or getattr(handler, "__name__", "xpc-service")
        self.credits_per_caller = credits_per_caller
        self._credits: Dict[object, int] = {}
        # Pre-create the contexts, as the paper's library does (§4.2).
        aspace = server_thread.process.aspace
        self.contexts: List[XPCContext] = [
            XPCContext(i, aspace.mmap(16 * 1024))
            for i in range(max_contexts)
        ]
        self.entry = kernel.register_xentry(
            core, server_thread, self._trampoline, max_contexts
        )
        self.calls = 0
        self.rejected = 0

    @property
    def entry_id(self) -> int:
        return self.entry.entry_id

    # -- trampoline ------------------------------------------------------
    def _acquire_context(self, core: Core, caller_id) -> XPCContext:
        if self.policy is ExhaustionPolicy.CREDITS:
            left = self._credits.setdefault(caller_id,
                                            self.credits_per_caller)
            if left <= 0:
                self.rejected += 1
                if obs.ACTIVE is not None:
                    obs.ACTIVE.registry.counter(
                        f"xpc.busy.{self.name}").inc(cycle=core.cycles)
                raise XPCBusyError(f"{self.name}: caller out of credits")
            self._credits[caller_id] = left - 1
        for ctx in self.contexts:
            if not ctx.in_use:
                ctx.in_use = True
                return ctx
        if self.policy is ExhaustionPolicy.WAIT:
            # Model a bounded wait for an idle context.
            core.tick(self.kernel.params.sched_pick)
            for ctx in self.contexts:
                if not ctx.in_use:
                    ctx.in_use = True
                    return ctx
        self.rejected += 1
        if obs.ACTIVE is not None:
            obs.ACTIVE.registry.counter(
                f"xpc.busy.{self.name}").inc(cycle=core.cycles)
        raise XPCBusyError(f"{self.name}: no idle XPC context")

    def _release_context(self, ctx: XPCContext, caller_id) -> None:
        ctx.in_use = False
        ctx.local_data.clear()
        if self.policy is ExhaustionPolicy.CREDITS:
            self._credits[caller_id] = min(
                self._credits.get(caller_id, 0) + 1,
                self.credits_per_caller,
            )

    def _trampoline(self, core: Core, engine: XPCEngine, entry: XEntry,
                    window: SegReg, args: tuple):
        """Select a context, switch the C-stack, run the handler."""
        params = core.params
        trampoline_cycles = (params.trampoline_partial_ctx
                             if self.partial_context
                             else params.trampoline_full_ctx)
        if probe.PHASE:
            probe.phase(core, (("phase:trampoline", trampoline_cycles),))
        core.tick(trampoline_cycles)
        caller_id = engine.caller_id_reg
        ctx = self._acquire_context(core, caller_id)
        if probe.PHASE:
            probe.phase(core, (("phase:cstack", params.cstack_switch),))
        core.tick(params.cstack_switch)
        if faults.ACTIVE is not None:
            act = faults.fire("kernel.preempt")
            if act is not None:
                self.kernel.preempt(core)
            act = faults.fire("xpc.callee_crash")
            if act is not None:
                self._release_context(ctx, caller_id)
                self._injected_crash(act)
        span = None
        if obs.ACTIVE is not None:
            span = obs.ACTIVE.spans.begin(
                core, f"handler:{self.name}", cat="runtime",
                entry=entry.entry_id)
        try:
            self.calls += 1
            call = XPCCallContext(
                core=core, engine=engine, entry=entry, context=ctx,
                args=args, window=window, caller_id=caller_id,
            )
            result = self.handler(call)
        finally:
            self._release_context(ctx, caller_id)
            if span is not None and obs.ACTIVE is not None:
                obs.ACTIVE.spans.end(core, span)
        if faults.ACTIVE is not None:
            act = faults.fire("xpc.callee_crash_before_xret")
            if act is not None:
                self._injected_crash(act)
        return result

    def _injected_crash(self, act: dict):
        """Kill the server process mid-call (fault injection): the
        migrated caller thread survives; the runtime's unwind path turns
        this into the kernel-repaired return of §4.2."""
        self.kernel.kill_process(self.server_thread.process,
                                 lazy=bool(act.get("lazy", True)))
        raise faults.ProcessCrashFault(self.name,
                                       self.server_thread.process)


def _xcall_with_spill(core: Core, engine: XPCEngine, entry_id: int,
                      kernel: Optional[BaseKernel]):
    """``xcall``, retrying through the §4.1 overflow trap.

    A :class:`LinkStackOverflowError` is a recoverable resource
    condition: the kernel spills the stack bottom to its own memory and
    the xcall retries.  Without a kernel (bare-engine tests) or when
    nothing can be spilled, the overflow propagates.
    """
    while True:
        try:
            return engine.xcall(entry_id)
        except LinkStackOverflowError:
            if kernel is None or engine.current_thread is None:
                raise
            if kernel.handle_link_overflow(core, engine.current_thread) == 0:
                raise


def _unwind(core: Core, engine: XPCEngine,
            kernel: Optional[BaseKernel]) -> bool:
    """``xret`` once, with kernel assistance.

    Returns True when the return path had to be *repaired* because a
    process in the chain died (§4.2) — the caller must then see
    :class:`XPCPeerDiedError` instead of a result.  Underflow into the
    kernel spill area refills and retries transparently.
    """
    while True:
        try:
            engine.xret()
            return False
        except LinkStackUnderflowError:
            if kernel is None or engine.current_thread is None:
                raise
            if kernel.handle_link_underflow(core, engine.current_thread) == 0:
                raise
        except InvalidLinkageError:
            if kernel is None or engine.current_thread is None:
                raise
            restored = kernel.repair_return(core, engine.current_thread)
            if restored is None:
                raise
            return True


def xpc_submit(batcher, meta: tuple, payload: bytes = b"",
               reply_capacity: int = 0,
               arrival_cycle: Optional[int] = None):
    """Asynchronous submission: queue one request on *batcher*.

    Returns a future; the boundary is crossed only when the batcher
    flushes (batch full, deadline, or :func:`xpc_wait_all`).  *batcher*
    is any object with the :class:`repro.aio.Batcher` submit/flush
    surface — duck-typed so the runtime layer stays below
    :mod:`repro.aio` (and a :class:`repro.aio.WorkerPool` works too).
    """
    return batcher.submit(meta, payload, reply_capacity,
                          arrival_cycle=arrival_cycle)


def xpc_wait_all(batcher, futures=None):
    """Flush *batcher* and return ``result()`` for each future.

    With ``futures=None`` every request pending on the batcher is
    awaited.  Results come back as ``(reply_meta, reply_bytes)`` pairs
    in the order the futures were given.
    """
    return batcher.wait_all(futures)


def xpc_call(core: Core, entry_id: int, *args,
             mask: Optional[SegMask] = None,
             kernel: Optional[BaseKernel] = None,
             timeout_cycles: Optional[int] = None):
    """Client side: ``xcall`` → handler → ``xret``; returns its result.

    ``mask`` shrinks the caller's relay window for the callee (§3.3).
    Once the ``xcall`` has pushed a linkage record the call *always*
    unwinds through ``xret`` — even when the handler raises — so the
    link stack stays LIFO-balanced across failures.  If a process in
    the callee chain dies mid-call and *kernel* is provided, the
    kernel's repair path (§4.2) restores the nearest live caller and
    :class:`XPCPeerDiedError` is raised.  ``timeout_cycles`` arms the
    §6.1 watchdog: a callee that burns more than the budget is unwound
    and :class:`XPCTimeoutError` is raised (the paper notes real
    systems usually set this to 0 or infinite; it exists for fault
    isolation).
    """
    session = obs.ACTIVE
    profiler = session.profiler if session is not None else None
    if profiler is None:
        return _xpc_call_body(core, entry_id, args, mask, kernel,
                              timeout_cycles)
    with profiler.frame(core, f"xpclib:call#{entry_id}"):
        return _xpc_call_body(core, entry_id, args, mask, kernel,
                              timeout_cycles)


def _xpc_call_body(core: Core, entry_id: int, args,
                   mask: Optional[SegMask],
                   kernel: Optional[BaseKernel],
                   timeout_cycles: Optional[int]):
    engine = core.xpc_engine
    if engine is None:
        raise XPCError("core has no XPC engine")
    call_start = core.cycles
    if mask is not None:
        engine.write_seg_mask(mask)
    entry, window = _xcall_with_spill(core, engine, entry_id, kernel)
    # From here exactly one linkage record is ours to unwind.
    result = None
    crashed: Optional[BaseException] = None
    failure: Optional[BaseException] = None
    start = core.cycles
    try:
        result = entry.handler(core, engine, entry, window, args)
    except faults.ProcessCrashFault as exc:
        crashed = exc
    except Exception as exc:          # noqa: BLE001 - re-raised below
        failure = exc
    timed_out = None
    if timeout_cycles is not None:
        used = core.cycles - start
        if used > timeout_cycles:
            timed_out = XPCTimeoutError(timeout_cycles, used)
    died = _unwind(core, engine, kernel)
    if obs.ACTIVE is not None:
        registry = obs.ACTIVE.registry
        registry.histogram("xpc.call_cycles").observe(
            core.cycles - call_start, cycle=core.cycles)
        if died or crashed is not None:
            registry.counter("xpc.peer_died").inc(cycle=core.cycles)
        if timed_out is not None:
            registry.counter("xpc.timeouts").inc(cycle=core.cycles)
    if died or crashed is not None:
        err = XPCPeerDiedError(entry_id)
        cause = crashed if crashed is not None else failure
        if cause is not None:
            raise err from cause
        raise err
    if failure is not None:
        raise failure
    if timed_out is not None:
        raise timed_out
    return result
