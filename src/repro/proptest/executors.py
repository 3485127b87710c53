"""Executors: run one program through one real IPC mechanism.

Each executor owns a freshly built machine and interprets the same op
grammar the oracle models, but through the *actual* stack: the XPC
transport (seL4-XPC / Zircon-XPC), the trap-based baselines
(seL4-onecopy / seL4-twocopy / Zircon channels), and the aio
``Batcher``/``RingService`` ring for the async ops.  A faulting wrapper
replays any of them under a seeded :class:`~repro.faults.FaultPlan`
armed only with *recovery-transparent* points, so outcomes must still
match the oracle.

Semantics the executors must earn, not assume:

* On XPC transports, ``denied`` comes from the engine's xcall-cap test
  (grants/revocations go through the kernel's cap bitmap), theft comes
  from a real ``swapseg`` and the §3.3 return-time check, and
  ``peer-died`` comes from invalidated x-entries or §4.2 repair.
* Trap-based baselines have no xcall-caps, no relay segments and no
  return-time check, so the executor enforces the same policy at the
  library level (the paper's point: XPC moves these checks into
  hardware without changing what callers observe).
* Submits defer: they bind to the target's current generation and
  execute at the wait — through a per-generation ring on the batched
  executor, through a second always-granted client on the sync ones
  (the ring's drain entry belongs to the ring client, so sync-cap
  revocation never affects async traffic).

This module deliberately knows nothing about the oracle: the
``layering`` lint rule's forbidden-edge table (repro.verify) forbids
importing it from here, so executor and oracle cannot accidentally
share their semantics code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

import repro.faults as faults
import repro.san as san
from repro.aio.batch import Batcher, XPCRequestError
from repro.aio.server import RingService
from repro.faults import FaultPlan
from repro.hw.machine import Machine
from repro.ipc.transport import RelayPayload
from repro.ipc.xpc_transport import XPCTransport
from repro.kernel.kernel import BaseKernel
from repro.proptest.grammar import (
    CallOp, GrantOp, KillOp, PreemptOp, Program, RegisterOp, RevokeOp,
    SubmitOp, WaitOp, counter_bytes, xform_bytes,
)
from repro.sel4 import Sel4Kernel, Sel4Transport, Sel4XPCTransport
from repro.verify.invariants import check_protocol
from repro.xpc.errors import (InvalidXCallCapError, InvalidXEntryError,
                              XPCPeerDiedError)
from repro.zircon import ZirconKernel, ZirconTransport, ZirconXPCTransport

#: Machines are small: programs are short and payloads tiny.
MEM_BYTES = 32 * 1024 * 1024

#: Exception-name → error kind, for errors a ring drain contained into
#: an SQE_ERR completion (the CQE carries the exception's class name).
_NAME_KINDS = {
    "XPCPeerDiedError": "peer-died",
    "InvalidXEntryError": "peer-died",
    "ProcessCrashFault": "peer-died",
    "InvalidXCallCapError": "denied",
}


def classify_exception(exc: BaseException) -> str:
    """Map a mechanism exception onto the outcome algebra's kinds."""
    if isinstance(exc, XPCRequestError):
        name = exc.reply_meta[0] if exc.reply_meta else ""
        return _NAME_KINDS.get(name, "handler-error")
    if isinstance(exc, (XPCPeerDiedError, InvalidXEntryError)):
        return "peer-died"
    if isinstance(exc, InvalidXCallCapError):
        return "denied"
    return "handler-error"


@dataclass
class ExecutionReport:
    """What one executor observed running one program."""

    executor: str
    outcomes: List[tuple]
    #: Simulated-clock delta of each op (monotonicity is an invariant).
    op_cycles: List[int]
    #: Mechanism-only (``ipc_cycles``) delta of each op, for the
    #: cross-mechanism ordering check — never compared exactly.
    op_ipc_cycles: List[int]
    #: The plan's replayable trace when run under a faulting wrapper.
    fault_trace: Optional[list] = None
    #: XPCSan findings when run under a sanitizing wrapper (must stay
    #: empty — any entry is an ownership/race invariant failure).
    san_issues: Optional[List[str]] = None
    #: Protocol-catalogue violations, ``"<executor>: op <i> <what>"``.
    invariant_failures: List[str] = field(default_factory=list)


@dataclass
class _GenRec:
    """Executor-side state for one generation of one service name."""

    name: str
    kind: str
    process: object
    thread: object
    main_sid: int = -1
    async_sid: int = -1
    batcher: Optional[Batcher] = None
    ring: Optional[RingService] = None
    alive: bool = True
    granted: bool = False
    counter: int = 0
    kv: dict = field(default_factory=dict)


def _run_steps(executor, program: Program,
               name: Optional[str] = None) -> ExecutionReport:
    """The shared program loop: drive *executor* one op at a time.

    Works on anything exposing ``step``/``core``/``kernel``/
    ``_ipc_total`` — the bare executors, the faulting/sanitizing
    wrappers, and (via ``repro.snap``'s worlds) a restored mid-program
    executor resuming from an op-boundary snapshot.  The protocol
    catalogue runs after every op on a real kernel (not the fast
    core's shim) into ``report.invariant_failures``.  *name* (default
    ``executor.name``) labels the report and its failures: a wrapper
    that arms once around its inner executor's loop passes its own.
    """
    if name is None:
        name = executor.name
    kernel = executor.kernel
    checked = isinstance(kernel, BaseKernel)
    outcomes, op_cycles, op_ipc, failures = [], [], [], []
    for i, op in enumerate(program.ops):
        cycles0 = executor.core.cycles
        ipc0 = executor._ipc_total()
        outcomes.append(executor.step(op))
        op_cycles.append(executor.core.cycles - cycles0)
        op_ipc.append(executor._ipc_total() - ipc0)
        if checked:
            failures += [f"{name}: op {i} {v}"
                         for v in check_protocol(kernel)]
    return ExecutionReport(name, outcomes, op_cycles, op_ipc,
                           invariant_failures=failures)


class _ServiceHandler:
    """The per-registration service behaviour as a callable object.

    Deliberately not a closure: snapshots deepcopy the executor graph
    and these attributes follow the copy, where closure cells would
    keep pointing at the pre-snapshot generation record.
    """

    def __init__(self, executor: "_ExecutorBase", rec: "_GenRec") -> None:
        self.executor = executor
        self.rec = rec

    def __call__(self, meta: tuple, payload):
        rec = self.rec
        kind = rec.kind
        if kind == "echo":
            return ("echo",) + meta[1:], payload.read()
        if kind == "xform":
            return ("xf",) + meta[1:], xform_bytes(payload.read())
        if kind == "counter":
            rec.counter += meta[1]
            return (("cnt", rec.counter), counter_bytes(rec.counter))
        if kind == "kv":
            verb, key = meta[0], meta[1]
            if verb == "put":
                data = payload.read()
                rec.kv[key] = data
                return ("put", key, len(data)), None
            value = rec.kv.get(key)
            if value is None:
                raise KeyError(key)
            return ("get", key, len(value)), value
        if kind == "chain":
            return self.executor._chain_hop(meta, payload)
        if kind == "thief":
            return self.executor._thief_action(rec, meta)
        raise ValueError(f"unknown kind {kind!r}")


class _ExecutorBase:
    """Shared program loop, service registry and handler factory."""

    #: True when policy (grants, liveness, theft) is enforced by the
    #: mechanism itself rather than by this library.
    mechanism_enforces = False
    #: Sync executors on distinct mechanisms are comparable in
    #: ``ipc_cycles`` terms (same ops, different mechanism).
    comparable = False

    def __init__(self, name: str) -> None:
        self.name = name
        self.services = {}            # name -> current _GenRec
        self.all_recs = []            # every generation ever registered
        self.pending = []             # [(rec|None, SubmitOp, future|None)]
        self.kernel: BaseKernel = None
        self.core = None
        self._gen_seq = 0             # deterministic registration labels

    # -- the program loop ---------------------------------------------
    def run(self, program: Program) -> ExecutionReport:
        return _run_steps(self, program)

    def step(self, op) -> tuple:
        """Execute one op; mechanism bugs become typed outcomes."""
        try:
            return self._step(op)
        except Exception as exc:     # a mechanism bug escaped its op:
            # surface it as a typed outcome the oracle can never
            # produce, so the diff (and the shrinker) still work.
            return ("crash", type(exc).__name__)

    def _step(self, op) -> tuple:
        if isinstance(op, RegisterOp):
            return self._do_register(op)
        if isinstance(op, GrantOp):
            return self._do_grant(op)
        if isinstance(op, RevokeOp):
            return self._do_revoke(op)
        if isinstance(op, KillOp):
            return self._do_kill(op)
        if isinstance(op, PreemptOp):
            self.kernel.preempt(self.core)
            return ("ok",)
        if isinstance(op, CallOp):
            return self._do_call(op)
        if isinstance(op, SubmitOp):
            rec = self.services.get(op.name)
            future = self._enqueue(rec, op) if rec is not None else None
            self.pending.append((rec, op, future))
            return ("queued",)
        if isinstance(op, WaitOp):
            outcomes = self._complete_pending()
            self.pending = []
            return ("batch", tuple(outcomes))
        raise TypeError(f"unknown op {op!r}")

    # -- control plane --------------------------------------------------
    def _do_register(self, op: RegisterOp) -> tuple:
        process = self.kernel.create_process(f"{op.name}.{op.kind}")
        thread = self.kernel.create_thread(process)
        rec = _GenRec(op.name, op.kind, process, thread)
        self._bind_service(rec)
        self.services[op.name] = rec
        self.all_recs.append(rec)
        self._wire_chains(rec)
        return ("ok",)

    def _do_grant(self, op: GrantOp) -> tuple:
        rec = self.services.get(op.name)
        if rec is None:
            return ("error", "no-service")
        rec.granted = True
        self._apply_grant(rec, True)
        return ("ok",)

    def _do_revoke(self, op: RevokeOp) -> tuple:
        rec = self.services.get(op.name)
        if rec is None:
            return ("error", "no-service")
        rec.granted = False
        self._apply_grant(rec, False)
        return ("ok",)

    def _do_kill(self, op: KillOp) -> tuple:
        rec = self.services.get(op.name)
        if rec is None:
            return ("error", "no-service")
        if rec.alive:
            self.kernel.kill_process(rec.process, lazy=op.lazy,
                                     core=self.core)
            rec.alive = False
        return ("ok",)

    # -- sync calls ------------------------------------------------------
    def _do_call(self, op: CallOp) -> tuple:
        rec = self.services.get(op.name)
        if rec is None:
            return ("error", "no-service")
        if not self.mechanism_enforces:
            denied = self._policy_check(rec)
            if denied is not None:
                return denied
        try:
            meta, data = self._sync_call(rec, op.meta, op.payload,
                                         op.reply_capacity)
        except Exception as exc:     # typed divergence, never a crash
            return ("error", classify_exception(exc))
        return ("ok", meta, data)

    def _policy_check(self, rec: _GenRec) -> Optional[tuple]:
        """Baseline-library policy: what XPC hardware checks for free."""
        if not rec.granted:
            return ("error", "denied")
        if not rec.alive:
            return ("error", "peer-died")
        if rec.kind == "thief":
            # A baseline server that scribbles on the shared buffer
            # protocol is torn down by the kernel; callers see a death.
            return ("error", "peer-died")
        return None

    # -- the service handlers -------------------------------------------
    def _make_handler(self, rec: _GenRec) -> Callable:
        return _ServiceHandler(self, rec)

    def _chain_hop(self, meta: tuple, payload) -> tuple:
        """One onward hop (§4.4): fold the inner outcome into the reply."""
        _fwd, target_name, handover, inner_meta = meta
        rec = self.services.get(target_name)
        if rec is None:
            return ("via-err", "no-service"), None
        if not self.mechanism_enforces:
            if not rec.alive:
                return ("via-err", "peer-died"), None
            if rec.kind == "thief":
                return ("via-err", "peer-died"), None
        data = payload.read()
        try:
            if handover and isinstance(payload, RelayPayload):
                # Slide the live window down the chain: re-mask, no copy.
                inner_reply, inner_bytes = self._inner_call(
                    rec, inner_meta, b"", len(data),
                    payload.window_slice(0, len(data)))
            else:
                inner_reply, inner_bytes = self._inner_call(
                    rec, inner_meta, data, max(len(data), 512), None)
        except Exception as exc:
            return ("via-err", classify_exception(exc)), None
        return ("via",) + inner_reply, inner_bytes

    def _thief_action(self, rec: _GenRec, meta: tuple) -> tuple:
        if not self.mechanism_enforces:
            raise RuntimeError("baseline thieves never execute")
        # A real theft: park the handed-over window in our seg-list and
        # leave a fresh scratch window in seg-reg.  §3.3's return-time
        # check must catch the mismatch at xret.
        core = self.transport.current_core
        _seg, slot = self.kernel.create_relay_seg(core, rec.process, 4096)
        core.xpc_engine.swapseg(slot)
        return ("stolen",) + meta[1:], None

    # -- the mechanism, through ``self.transport`` ---------------------
    def _wire_chains(self, rec: _GenRec) -> None:
        """Cross-grant so chain servers can call every known service.

        Every chain generation *ever* registered can call onward —
        pending submits bound to a superseded chain generation still
        complete at the wait and must reach then-current targets.
        Baseline nested calls reuse the client cap."""
        if not self.mechanism_enforces:
            return
        for other in self.all_recs:
            if other.kind == "chain" and other is not rec:
                self.transport.grant_to_thread(rec.main_sid, other.thread)
        if rec.kind == "chain":
            for other in self.all_recs:
                self.transport.grant_to_thread(other.main_sid, rec.thread)

    def _apply_grant(self, rec: _GenRec, granted: bool) -> None:
        """Propagate a grant/revocation into the mechanism (XPC only)."""
        if not self.mechanism_enforces:
            return
        if granted:
            self.transport.grant_to_thread(rec.main_sid,
                                           self.client_thread)
        else:
            self.transport.revoke_from_thread(rec.main_sid,
                                              self.client_thread)

    def _sync_call(self, rec, meta, payload, reply_capacity):
        return self.transport.call(rec.main_sid, meta, payload,
                                   reply_capacity=reply_capacity)

    def _inner_call(self, rec, meta, payload, reply_capacity,
                    window_slice):
        return self.transport.call(rec.main_sid, meta, payload,
                                   reply_capacity=reply_capacity,
                                   window_slice=window_slice)

    # -- hooks the concrete executors fill in ---------------------------
    def _bind_service(self, rec: _GenRec) -> None:
        raise NotImplementedError

    def _enqueue(self, rec: _GenRec, op: SubmitOp):
        return None

    def _complete_pending(self) -> List[tuple]:
        raise NotImplementedError

    def _ipc_total(self) -> int:
        return 0


class SyncExecutor(_ExecutorBase):
    """Synchronous transport executor: one spec from the Table 7 world.

    Async ops run through a *second* transport instance on a dedicated
    client thread whose capabilities are never revoked — the sync
    analogue of the batcher's ring client — at the wait, in submission
    order (batching defers execution; it does not reorder it).
    """

    comparable = True

    def __init__(self, name: str, kernel_cls, transport_cls,
                 transport_kwargs=None, is_xpc: bool = False,
                 cores: int = 2) -> None:
        super().__init__(name)
        self.is_xpc = is_xpc
        self.mechanism_enforces = is_xpc
        self.machine = Machine(cores=cores, mem_bytes=MEM_BYTES)
        self.kernel = kernel_cls(self.machine)
        self.core = self.machine.core0
        kwargs = dict(transport_kwargs or {})
        client = self.kernel.create_process("fuzz-client")
        self.client_thread = self.kernel.create_thread(client)
        self.kernel.run_thread(self.core, self.client_thread)
        self.transport = transport_cls(self.kernel, self.core,
                                       self.client_thread, **kwargs)
        async_proc = self.kernel.create_process("fuzz-async")
        self.async_thread = self.kernel.create_thread(async_proc)
        self.kernel.run_thread(self.core, self.async_thread)
        self.transport_async = transport_cls(self.kernel, self.core,
                                             self.async_thread, **kwargs)
        self.kernel.run_thread(self.core, self.client_thread)

    # -- wiring ---------------------------------------------------------
    def _bind_service(self, rec: _GenRec) -> None:
        handler = self._make_handler(rec)
        label = f"{rec.name}.g{self._gen_seq}"
        self._gen_seq += 1
        rec.main_sid = self.transport.register(
            label, handler, rec.process, rec.thread)
        rec.async_sid = self.transport_async.register(
            f"{label}.async", handler, rec.process, rec.thread)
        if self.is_xpc:
            # Registration auto-grants the registering client; the
            # oracle's world starts ungranted until an explicit grant.
            self.transport.revoke_from_thread(rec.main_sid,
                                              self.client_thread)
        self.kernel.run_thread(self.core, self.client_thread)

    # -- async ops -------------------------------------------------------
    def _complete_pending(self) -> List[tuple]:
        outcomes = []
        for rec, op, _future in self.pending:
            if rec is None:
                outcomes.append(("error", "no-service"))
                continue
            if not self.is_xpc and not rec.alive:
                outcomes.append(("error", "peer-died"))
                continue
            transport = self.transport_async if self.is_xpc \
                else self.transport
            sid = rec.async_sid if self.is_xpc else rec.main_sid
            try:
                meta, data = transport.call(
                    sid, op.meta, op.payload,
                    reply_capacity=op.reply_capacity)
            except Exception as exc:
                outcomes.append(("error", classify_exception(exc)))
                continue
            outcomes.append(("ok", meta, data))
        return outcomes

    def _ipc_total(self) -> int:
        return self.transport.ipc_cycles + self.transport_async.ipc_cycles


class BatchedExecutor(_ExecutorBase):
    """The aio path: submits go through a per-generation ring.

    Sync ops use a plain :class:`XPCTransport`; each registration also
    stands up a :class:`RingService` drain entry on the server thread
    and a :class:`Batcher` on its own ring-client thread.  A wait
    flushes every involved batcher — one ``xcall`` per ring — and reads
    the futures in submission order.
    """

    mechanism_enforces = True

    def __init__(self, name: str = "XPC-batched") -> None:
        super().__init__(name)
        self.machine = Machine(cores=2, mem_bytes=MEM_BYTES)
        self.kernel = BaseKernel(self.machine)
        self.core = self.machine.core0
        client = self.kernel.create_process("fuzz-client")
        self.client_thread = self.kernel.create_thread(client)
        self.kernel.run_thread(self.core, self.client_thread)
        self.transport = XPCTransport(self.kernel, self.core,
                                      self.client_thread)
        self.ring_client_proc = self.kernel.create_process("fuzz-rings")

    def _bind_service(self, rec: _GenRec) -> None:
        handler = self._make_handler(rec)
        label = f"{rec.name}.g{self._gen_seq}"
        self._gen_seq += 1
        rec.main_sid = self.transport.register(
            label, handler, rec.process, rec.thread)
        self.transport.revoke_from_thread(rec.main_sid, self.client_thread)
        # The batched front door: drain entry on the same server thread,
        # ring on a dedicated client thread (one seg-reg per ring).
        self.kernel.run_thread(self.core, rec.thread)
        rec.ring = RingService(self.kernel, self.core, rec.thread,
                               handler, name=label)
        ring_client = self.kernel.create_thread(self.ring_client_proc)
        self.kernel.grant_xcall_cap(self.core, rec.process, ring_client,
                                    rec.ring.entry_id)
        rec.batcher = Batcher(self.kernel, self.core, ring_client,
                              rec.ring.entry_id, seg_bytes=16 * 1024,
                              entries=32, max_batch=64, name=label)
        self.kernel.run_thread(self.core, self.client_thread)

    def _enqueue(self, rec: _GenRec, op: SubmitOp):
        return rec.batcher.submit(op.meta, op.payload, op.reply_capacity)

    def _complete_pending(self) -> List[tuple]:
        flushed = []
        for rec, _op, _future in self.pending:
            if rec is not None and rec.batcher not in flushed:
                flushed.append(rec.batcher)
        for batcher in flushed:
            batcher.flush()
        outcomes = []
        for rec, _op, future in self.pending:
            if rec is None:
                outcomes.append(("error", "no-service"))
                continue
            try:
                meta, data = future.result()
            except Exception as exc:
                outcomes.append(("error", classify_exception(exc)))
                continue
            outcomes.append(("ok", meta, data))
        return outcomes

    def _ipc_total(self) -> int:
        return self.transport.ipc_cycles


class FaultingExecutor:
    """Run an inner executor with recovery-transparent faults armed.

    Every armed point is *recovery-transparent*: link-stack overflow
    spills, timer preemptions, and stale ring-head re-reads cost cycles
    but change no observable outcome — so the oracle's expectations
    still hold verbatim (the SFP argument: call-flow integrity must
    survive injected faults).  Only points some roster executor reaches
    are armed: no executor enables the engine cache or walks the TLB,
    so the stale-entry points stay in the catalogue but not here.
    """

    TRANSPARENT_POINTS = (
        ("xpc.linkstack.overflow", 0.02),
        ("kernel.preempt", 0.02),
        ("aio.stale_head", 0.05),
    )

    def __init__(self, inner, fault_seed: int = 0) -> None:
        self.inner = inner
        self.name = f"{inner.name}+faults"
        self.plan = FaultPlan(fault_seed)
        for point, probability in self.TRANSPARENT_POINTS:
            self.plan.arm(point, probability=probability, times=None)

    @property
    def machine(self):
        return self.inner.machine

    @property
    def kernel(self):
        return self.inner.kernel

    @property
    def core(self):
        return self.inner.core

    @property
    def comparable(self):
        return False        # fault overhead skews mechanism cycles

    def _ipc_total(self) -> int:
        return self.inner._ipc_total()

    def step(self, op) -> tuple:
        """One op with the plan armed: how ``repro.snap``'s
        ``ExecutorWorld`` drives a wrapper, so a snapshot restored at an
        op boundary resumes mid-plan.  Nothing fires between ops (the
        fire sites all sit inside op machinery), so per-op arming is
        trace-identical to :meth:`run`'s once-per-run arming."""
        with faults.active(self.plan):
            return self.inner.step(op)

    def run(self, program: Program) -> ExecutionReport:
        """The whole program with the plan armed once, around the
        inner executor's loop (the report keeps this wrapper's name)."""
        with faults.active(self.plan):
            report = _run_steps(self.inner, program, name=self.name)
        report.fault_trace = [ev.as_dict() for ev in self.plan.trace]
        return report


class SanExecutor:
    """Run an inner executor with XPCSan armed.

    XPCSan is a pure observer (cycle-neutral, like obs), so outcomes and
    cycle counts match the unwrapped executor exactly; what it *adds* is
    the per-core access log over relay-seg ownership, ring indices, and
    link-stack entries.  Any conflicting unsynchronized access lands in
    ``report.san_issues``, which the harness treats as an invariant
    failure — the runtime analogue of the §3.3 single-owner proof.

    Arming follows :class:`FaultingExecutor`: :meth:`run` arms the
    session once around the inner executor's loop, :meth:`step` arms
    it per op for a world that resumes mid-program.  No access happens
    between ops, so the two record the same log.
    """

    def __init__(self, inner) -> None:
        self.inner = inner
        self.name = f"{inner.name}+xpcsan"
        #: One session for the executor's whole life (executors are
        #: single-use), owned here so snapshots capture its log.
        self.session = san.SanSession()

    @property
    def machine(self):
        return self.inner.machine

    @property
    def kernel(self):
        return self.inner.kernel

    @property
    def core(self):
        return self.inner.core

    @property
    def comparable(self):
        # Cycle-identical to the inner executor, but keep it out of the
        # cross-mechanism ordering set like the other wrappers.
        return False

    def _ipc_total(self) -> int:
        return self.inner._ipc_total()

    def step(self, op) -> tuple:
        with san.active(self.session):
            return self.inner.step(op)

    def run(self, program: Program) -> ExecutionReport:
        with san.active(self.session):
            report = _run_steps(self.inner, program, name=self.name)
        report.san_issues = [issue.describe()
                             for issue in self.session.issues]
        return report


# ---------------------------------------------------------------------------
# The executor roster
# ---------------------------------------------------------------------------

def default_executor_factories():
    """name → zero-arg factory, one per mechanism under differential
    test.  Fresh machines every call: programs never share state."""
    # Deferred import: fastexec reuses this module's program loop.
    from repro.proptest.fastexec import FastCoreExecutor
    return [
        ("seL4-twocopy", lambda: SyncExecutor(
            "seL4-twocopy", Sel4Kernel, Sel4Transport, {"copies": 2})),
        ("seL4-onecopy", lambda: SyncExecutor(
            "seL4-onecopy", Sel4Kernel, Sel4Transport, {"copies": 1})),
        ("Zircon", lambda: SyncExecutor(
            "Zircon", ZirconKernel, ZirconTransport)),
        ("seL4-XPC", lambda: SyncExecutor(
            "seL4-XPC", Sel4Kernel, Sel4XPCTransport, is_xpc=True)),
        ("Zircon-XPC", lambda: SyncExecutor(
            "Zircon-XPC", ZirconKernel, ZirconXPCTransport, is_xpc=True)),
        ("XPC-batched", lambda: BatchedExecutor()),
        ("seL4-XPC+faults", lambda: FaultingExecutor(SyncExecutor(
            "seL4-XPC", Sel4Kernel, Sel4XPCTransport, is_xpc=True),
            fault_seed=17)),
        ("XPC-batched+faults", lambda: FaultingExecutor(
            BatchedExecutor(), fault_seed=23)),
        ("seL4-XPC+xpcsan", lambda: SanExecutor(SyncExecutor(
            "seL4-XPC", Sel4Kernel, Sel4XPCTransport, is_xpc=True))),
        # The table-driven fast core (repro.fastcore): held to identical
        # outcomes AND identical per-op cycles vs the seL4-XPC reference
        # by the harness's equivalence gate.
        ("fastcore", lambda: FastCoreExecutor()),
    ]
