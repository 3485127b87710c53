"""Round-trip goldens: the reference xcall/xret path, pinned by hash.

Scripted round trips through ``XPCTransport.call`` → ``xpc_call`` →
``XPCEngine.xcall`` → trampoline → handler → ``xret`` cover every arm
of the path: masked and identity relay windows, engine-cache hits and
misses, nested ``swapseg`` staging and a ``window_slice`` hand-over,
link-stack overflow spill and underflow refill, a refused cap test, an
invalid seg-mask, relay-seg theft at ``xret`` with its §4.2 repair, a
window revoked mid-call, and dead callees.  After every step the script
records the outcome (or the exception type and message), the core's
clock, the engine's stats, the client's link-stack depth and
high-watermark, its seg-reg/seg-mask values and every fault point
reached in order (each xcall reaches ``xpc.captest.slow``); a
:class:`repro.probe.EventLog` digest closes the transcript.  The digest
was recorded before the round trip's host-cost rework and re-pinned
only when the per-xcall captest point joined the fire-order list
(without that point the transcript hashes as before), so any change in
what the path computes, charges, announces or raises shows up as a
mismatch.

With ``REPRO_OBS=1`` (plus ``REPRO_PROFILE=1``) or ``REPRO_XPCSAN=1``
the script runs under an armed observer and must still match: observers
watch, they never move the clock.
"""

import contextlib
import dataclasses
import hashlib
import json
import os

import pytest

import repro.faults as faults
import repro.obs as obs
import repro.probe as probe
import repro.san as san
from repro.hw.machine import Machine
from repro.ipc.xpc_transport import XPCTransport
from repro.kernel.kernel import BaseKernel
from repro.runtime.xpclib import ProcessCrashFault, xpc_call
from repro.xpc.engine import XPCConfig
from repro.xpc.linkstack import LinkStack
from repro.xpc.relayseg import NO_MASK, SegMask

GOLDEN = "0fe45facb5f1bdbd2f583d09734b40dd7d9fc4d85c5e1e80b3725dc8287633ff"


class _FireOrder(faults.FaultPlan):
    """A fault plan that also remembers every point fired, in order."""

    def __init__(self, seed: int = 0) -> None:
        super().__init__(seed)
        self.order = []

    def fire(self, point: str):
        self.order.append(point)
        return super().fire(point)


def _seg(value):
    if value.segment is None:
        return [None, value.va_base, value.pa_base, value.length,
                int(value.perm)]
    return [value.segment.seg_id, value.va_base, value.pa_base,
            value.length, int(value.perm)]


class _Script:
    """One machine, one client, a transcript of steps."""

    def __init__(self, engine_cache: bool = False) -> None:
        config = XPCConfig(engine_cache=True) if engine_cache else None
        self.machine = Machine(cores=1, mem_bytes=64 * 1024 * 1024,
                               xpc_config=config)
        self.kernel = BaseKernel(self.machine)
        self.core = self.machine.core0
        self.client = self.kernel.create_thread(
            self.kernel.create_process("client"), "client")
        # A tiny link-stack SRAM so a short recursion spills and refills.
        self.client.xpc.link_stack = LinkStack(capacity=4)
        self.kernel.run_thread(self.core, self.client)
        self.transport = XPCTransport(self.kernel, self.core, self.client,
                                      partial_context=True)
        self.lines = []

    def serve(self, name, handler, grant_self=False):
        process = self.kernel.create_process(name)
        thread = self.kernel.create_thread(process)
        sid = self.transport.register(name, handler, process, thread)
        self.transport.grant_to_thread(sid, self.client)
        if grant_self:
            self.transport.grant_to_thread(sid, thread)
        return sid, process, thread

    def step(self, label, fn, plan=None):
        plan = plan or _FireOrder()
        try:
            with faults.active(plan):
                value = fn()
            outcome = ["ok", _plain(value)]
        except Exception as exc:        # noqa: BLE001 - recorded below
            cause = exc.__cause__
            outcome = ["raise", type(exc).__name__, str(exc),
                       type(cause).__name__ if cause is not None else None]
        engine = self.core.xpc_engine
        state = self.client.xpc
        cache = engine.cache
        self.lines.append(json.dumps([
            label, outcome, self.core.cycles,
            dataclasses.asdict(engine.stats),
            [cache.hits, cache.misses] if cache is not None else None,
            state.link_stack.depth, state.link_stack.spilled_depth,
            state.link_stack.high_watermark,
            _seg(state.seg_reg), [state.seg_mask.offset,
                                  state.seg_mask.length],
            self.core.aspace.name, plan.order,
            [[e.point, e.hit] for e in plan.trace],
        ], sort_keys=True))


def _plain(value):
    if isinstance(value, (bytes, bytearray)):
        return ["bytes", len(value), hashlib.sha256(value).hexdigest()]
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    return repr(value)


def _payload(n: int, salt: int = 0) -> bytes:
    return bytes((i * 7 + salt) & 0xFF for i in range(n))


def _main_world(lines):
    s = _Script()
    kernel, core, transport = s.kernel, s.core, s.transport
    call = transport.call

    def echo(meta, payload):
        return ("echo",), payload.read(meta[1])

    echo_sid, _, _ = s.serve("echo", echo)

    def stage(meta, payload):
        data = payload.read(meta[1])
        rmeta, reply = call(echo_sid, ("echo", len(data)), data[::-1],
                            reply_capacity=len(data))
        return ("stage",) + rmeta, reply

    stage_sid, _, stage_thread = s.serve("stage", stage)
    transport.grant_to_thread(echo_sid, stage_thread)

    def slide(meta, payload):
        n = meta[1] // 2
        rmeta, reply = call(echo_sid, ("echo", n), b"",
                            window_slice=payload.window_slice(n, n))
        return ("slide",) + rmeta, reply

    slide_sid, _, slide_thread = s.serve("slide", slide)
    transport.grant_to_thread(echo_sid, slide_thread)

    def recurse(meta, payload):
        depth = meta[1]
        if depth == 0:
            return ("bottom",), payload.read(16)
        rmeta, reply = call(recurse_sid, ("rec", depth - 1), b"",
                            window_slice=payload.window_slice(0, 64))
        return ("rec", depth) + rmeta, reply

    recurse_sid, _, _ = s.serve("recurse", recurse, grant_self=True)

    def thief(meta, payload):
        # Park the caller's window in an empty seg-list slot: seg-reg
        # no longer matches the linkage record at xret.
        core.xpc_engine.swapseg(7)
        return ("stolen",), None

    thief_sid, _, _ = s.serve("thief", thief)

    def revoker(meta, payload):
        kernel.revoke_relay_seg(core.xpc_engine.state.seg_reg.segment)
        return ("revoked",), None

    revoker_sid, _, _ = s.serve("revoker", revoker)

    def crasher(meta, payload):
        kernel.kill_process(crash_proc, lazy=meta[1] == "lazy", core=core)
        raise ProcessCrashFault("crasher", crash_proc)

    crasher_sid, crash_proc, _ = s.serve("crasher", crasher)

    victim_sid, _, _ = s.serve("victim", echo)

    for i, n in enumerate((16, 64, 1000, 4096, 5000)):
        data = _payload(n, i)
        s.step(f"echo-masked-{n}",
               lambda: call(echo_sid, ("echo", n), data, reply_capacity=n))
    big = _payload(64 * 1024, 3)
    s.step("echo-identity-window",
           lambda: call(echo_sid, ("echo", len(big)), big))
    s.step("echo-empty", lambda: call(echo_sid, ("echo", 0)))
    s.step("stage-swapseg",
           lambda: call(stage_sid, ("stage", 300), _payload(300, 9),
                        reply_capacity=300))
    s.step("stage-swapseg-again",
           lambda: call(stage_sid, ("stage", 8000), _payload(8000, 1),
                        reply_capacity=8000))
    s.step("slide-handover",
           lambda: call(slide_sid, ("slide", 512), _payload(512, 5)))
    s.step("recurse-spill-refill",
           lambda: call(recurse_sid, ("rec", 6), _payload(128, 2)))
    s.step("recurse-shallow",
           lambda: call(recurse_sid, ("rec", 2), _payload(128, 4)))

    def denied():
        transport.revoke_from_thread(echo_sid, s.client)
        try:
            return call(echo_sid, ("echo", 8), _payload(8))
        finally:
            transport.grant_to_thread(echo_sid, s.client)

    s.step("invalid-cap", denied)
    s.step("after-regrant",
           lambda: call(echo_sid, ("echo", 8), _payload(8), reply_capacity=8))

    echo_id = transport._xpc_services[echo_sid].entry_id

    def raw(mask):
        kernel.run_thread(core, s.client)
        return xpc_call(core, echo_id, 0, ("echo", 0), mask=mask,
                        kernel=kernel)

    s.step("mask-escapes", lambda: raw(SegMask(0, 1 << 20)))
    s.step("mask-negative-offset", lambda: raw(SegMask(-4, 16)))
    s.step("mask-negative-length", lambda: raw(SegMask(4, -2)))
    s.step("mask-edge", lambda: raw(SegMask(4096, 60 * 1024)))
    s.step("mask-identity", lambda: raw(NO_MASK))

    engine = core.xpc_engine

    def mask_then_reseat():
        # seg-mask written against one window, seg-reg replaced before
        # the xcall: the xcall must mask the window it actually holds.
        kernel.run_thread(core, s.client)
        seg = transport._seg[0]
        engine.write_seg_mask(SegMask(4096, 4096))
        kernel.deactivate_relay_seg(s.client)
        other, slot = kernel.create_relay_seg(core, s.client.process,
                                              3 * 4096)
        s.client.process.seg_list.drop(slot)
        kernel.install_relay_seg(s.client, other)
        try:
            engine.xcall(echo_id)
            passed = _seg(engine.state.seg_reg)
            engine.xret()
        finally:
            kernel.deactivate_relay_seg(s.client)
            kernel.free_relay_seg(core, other)
            kernel.install_relay_seg(s.client, seg)
        return passed

    s.step("mask-then-reseat", mask_then_reseat)

    def mask_then_invalid():
        kernel.run_thread(core, s.client)
        seg = transport._seg[0]
        engine.write_seg_mask(SegMask(0, 4096))
        kernel.deactivate_relay_seg(s.client)
        try:
            engine.xcall(echo_id)
            passed = _seg(engine.state.seg_reg)
            engine.xret()
        finally:
            kernel.install_relay_seg(s.client, seg)
        return passed

    s.step("mask-then-invalid-window", mask_then_invalid)
    s.step("xret-empty-stack", lambda: engine.xret())
    s.step("theft-repair", lambda: call(thief_sid, ("steal", 32),
                                        _payload(32)))
    s.step("after-theft",
           lambda: call(echo_sid, ("echo", 32), _payload(32, 8),
                        reply_capacity=32))
    s.step("revoked-mid-call", lambda: call(revoker_sid, ("revoke", 64),
                                            _payload(64)))
    s.step("after-revoke-heals",
           lambda: call(echo_sid, ("echo", 64), _payload(64, 6),
                        reply_capacity=64))
    s.step("overflow-injected",
           lambda: call(stage_sid, ("stage", 40), _payload(40, 7),
                        reply_capacity=40),
           plan=_FireOrder().arm("xpc.linkstack.overflow", nth=2))
    s.step("dead-callee-lazy", lambda: call(crasher_sid, ("crash", "lazy"),
                                            _payload(16)))
    s.step("dead-entry", lambda: call(crasher_sid, ("crash", "lazy"),
                                      _payload(16)))
    s.step("injected-callee-crash",
           lambda: call(victim_sid, ("echo", 16), _payload(16)),
           plan=_FireOrder().arm("xpc.callee_crash", nth=1, lazy=False))
    s.step("after-crash", lambda: call(victim_sid, ("echo", 16),
                                       _payload(16)))
    s.step("echo-final",
           lambda: call(echo_sid, ("echo", 256), _payload(256, 11),
                        reply_capacity=256))
    lines.extend(s.lines)


def _cache_world(lines):
    s = _Script(engine_cache=True)
    call = s.transport.call

    def echo(meta, payload):
        return ("echo",), payload.read(meta[1])

    echo_sid, _, _ = s.serve("echo", echo)
    other_sid, _, _ = s.serve("other", echo)
    engine = s.core.xpc_engine
    echo_id = s.transport._xpc_services[echo_sid].entry_id

    def send(sid, n=48):
        return lambda: call(sid, ("echo", n), _payload(n, sid),
                            reply_capacity=n)

    s.step("cache-miss", send(echo_sid))
    s.step("prefetch", lambda: engine.xcall(-echo_id))
    s.step("cache-hit", send(echo_sid))
    s.step("cache-hit-again", send(echo_sid, 2048))
    s.step("cache-other-miss", send(other_sid))
    s.step("cache-hit-after-other", send(echo_sid))
    s.step("cache-stale-injected", send(echo_sid),
           plan=_FireOrder().arm("xpc.engine_cache.stale_entry", nth=1))
    s.step("cache-miss-after-stale", send(echo_sid))
    lines.extend(s.lines)


def transcript() -> str:
    lines = []
    with probe.EventLog() as events:
        _main_world(lines)
        _cache_world(lines)
    log = "\n".join(str(event) for event in events.events)
    lines.append(json.dumps(["events", len(events.events), events.dropped,
                             hashlib.sha256(log.encode()).hexdigest()]))
    return "\n".join(lines) + "\n"


@pytest.fixture
def armed_observers():
    """Arm obs (and the profiler) or XPCSan when the environment asks."""
    with contextlib.ExitStack() as stack:
        if os.environ.get("REPRO_OBS") == "1":
            stack.enter_context(obs.active(obs.ObsSession(
                profile=os.environ.get("REPRO_PROFILE") == "1")))
        sanitizer = san.from_env()
        if sanitizer is not None:
            stack.enter_context(san.active(sanitizer))
        yield


def test_roundtrip_transcript_matches_golden(armed_observers):
    text = transcript()
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN, text


if __name__ == "__main__":   # regenerate: python -m tests.xpc.test_roundtrip_goldens
    print(transcript(), end="")
    print(hashlib.sha256(transcript().encode()).hexdigest())
