"""The kernel-neutral XPC transport.

Both microkernel ports in the paper (seL4-XPC and Zircon-XPC, §5.1) end
up with the same data plane: servers register x-entries through the XPC
library, clients hold relay segments and ``xcall`` directly.  What
differs is the surrounding library (Zircon keeps its FIDL-flavoured
wrapper, charged as a small per-call overhead).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import repro.faults as faults
import repro.obs as obs
import repro.probe as probe
from repro.hw.cpu import Core
from repro.ipc.transport import RelayPayload, ServerRegistration, Transport
from repro.kernel.kernel import BaseKernel
from repro.kernel.process import Thread
from repro.runtime.xpclib import XPCService, xpc_call
from repro.xpc.relayseg import NO_MASK, SegMask


class _RelayHandlerBridge:
    """Adapts a registered ``(meta, payload)`` handler to the engine's
    call convention.  An object rather than a closure on purpose:
    snapshots (:mod:`repro.snap`) deepcopy the transport graph, and
    instance attributes follow the copy, where a closure's cells would
    keep aliasing the pre-snapshot machine's memory."""

    def __init__(self, transport: "XPCTransport",
                 reg: ServerRegistration) -> None:
        self.transport = transport
        self.reg = reg

    def __call__(self, call):
        transport = self.transport
        mem = transport.kernel.machine.memory
        used, meta = call.args
        payload = RelayPayload(mem, call.window, used)
        handler_start = call.core.cycles
        reply_meta, reply = self.reg.handler(meta, payload)
        transport._handler_acc += call.core.cycles - handler_start
        if reply is None:
            reply_len = 0
        elif isinstance(reply, int):
            reply_len = reply           # already written in place
        else:
            payload.write(reply, 0)     # reply goes into the segment
            reply_len = len(reply)
        return (reply_meta, reply_len)


class XPCTransport(Transport):
    """xcall/xret + relay-seg request/response on any BaseKernel."""

    name = "XPC"
    #: Per-call user-library overhead beyond the XPC runtime itself
    #: (e.g. Zircon's FIDL-compatible wrapper), in cycles.
    lib_overhead = 0

    __snap_state__ = Transport.__snap_state__ + (
        "kernel", "core", "client_thread", "partial_context",
        "max_contexts", "_xpc_services", "_seg", "_seg_bytes",
        "_handler_acc", "_nested_segs")

    def __init__(self, kernel: BaseKernel, core: Core,
                 client_thread: Thread,
                 default_seg_bytes: int = 64 * 1024,
                 partial_context: bool = False,
                 max_contexts: int = 8) -> None:
        super().__init__()
        self.kernel = kernel
        self.core = core
        self.client_thread = client_thread
        self.partial_context = partial_context
        self.max_contexts = max_contexts
        self._xpc_services: Dict[int, XPCService] = {}
        self._seg = None          # (RelaySegment, seg_list_slot)
        self._seg_bytes = default_seg_bytes
        self._handler_acc = 0     # cycles spent inside user handlers
        #: Per-runtime-context scratch segments for nested onward calls,
        #: keyed by the context's cap bitmap *object* (identity survives
        #: a snapshot's deepcopy; a raw ``id()`` key would not).
        self._nested_segs: Dict[object, tuple] = {}

    # -- server side -------------------------------------------------------
    def _bind(self, reg: ServerRegistration) -> None:
        # Register while running a server thread so the x-entry lands in
        # the server's address space.
        self.kernel.run_thread(self.core, reg.server_thread)
        service = XPCService(
            self.kernel, self.core, reg.server_thread,
            _RelayHandlerBridge(self, reg),
            max_contexts=self.max_contexts,
            partial_context=self.partial_context, name=reg.name,
        )
        self.kernel.grant_xcall_cap(
            self.core, reg.server_process, self.client_thread,
            service.entry_id)
        self._xpc_services[reg.sid] = service
        self.kernel.run_thread(self.core, self.client_thread)

    # -- client side -------------------------------------------------------
    def _ensure_seg(self, nbytes: int) -> None:
        """Grow the client's active relay segment to >= nbytes.

        Also the recovery path for §4.4 revocation: a segment the
        kernel revoked mid-workload is detected here and replaced with
        a fresh one, so the next call after a revocation heals itself.
        """
        needed = max(nbytes, 4096)
        thread = self.client_thread
        if self._seg is not None and self._seg[0].revoked:
            old_seg, _old_slot = self._seg
            self.kernel.deactivate_relay_seg(thread)
            if old_seg in self.kernel.relay_segments:
                self.kernel.free_relay_seg(self.core, old_seg)
            self._seg = None
        if self._seg is not None and self._seg[0].length >= needed:
            return
        if self._seg is not None:
            old_seg, old_slot = self._seg
            self.kernel.deactivate_relay_seg(thread)
            thread.process.seg_list.drop(old_slot)
            self.kernel.free_relay_seg(self.core, old_seg)
        size = max(needed, self._seg_bytes)
        seg, slot = self.kernel.create_relay_seg(
            self.core, thread.process, size)
        # First-time kernel setup: install directly as the seg-reg.
        thread.process.seg_list.drop(slot)
        self.kernel.install_relay_seg(thread, seg)
        self._seg = (seg, slot)

    def grant_to_thread(self, sid: int, thread: Thread) -> None:
        """Grant another server's thread the xcall-cap for *sid* (for
        server→server chains: FS → blockdev, HTTP → AES, ...)."""
        reg = self._reg(sid)
        service = self._xpc_services[sid]
        self.kernel.grant_xcall_cap(
            self.core, reg.server_process, thread, service.entry_id)

    def revoke_from_thread(self, sid: int, thread: Thread) -> None:
        """Clear *thread*'s xcall-cap bit for *sid*: the next call trips
        the engine's cap test (§3.2), not a library-level check."""
        self._reg(sid)
        service = self._xpc_services[sid]
        self.kernel.revoke_xcall_cap(thread, service.entry_id)

    def call(self, sid: int, meta: tuple = (), payload: bytes = b"",
             reply_capacity: int = 0,
             cross_core: bool = False,
             window_slice=None) -> Tuple[tuple, bytes]:
        service = self._xpc_services[sid]
        self.call_count += 1
        self.bytes_moved += len(payload)
        span = None
        obs_core = self.current_core
        if obs.ACTIVE is not None:
            span = obs.ACTIVE.spans.begin(
                obs_core, f"call:{service.name}", cat="transport",
                sid=sid, bytes=len(payload))
            obs.ACTIVE.registry.histogram(
                "transport.payload_bytes").observe(
                    len(payload), cycle=obs_core.cycles)
        try:
            return self._call(service, meta, payload, reply_capacity,
                              window_slice)
        finally:
            if span is not None and obs.ACTIVE is not None:
                obs.ACTIVE.spans.end(obs_core, span)

    def _call(self, service: XPCService, meta: tuple, payload: bytes,
              reply_capacity: int, window_slice) -> Tuple[tuple, bytes]:
        # The core actually executing this call: the home core on the
        # synchronous path, the *worker's* core when a handler invoked
        # from a batched ring drain calls onward — its engine (not the
        # home core's) holds the mid-call state the nested path needs.
        core = self.current_core
        engine = core.xpc_engine
        if self.lib_overhead:
            core.tick(self.lib_overhead)
        nested = (engine is not None and engine.state is not None
                  and engine.state.link_stack.depth > 0)
        start = core.cycles
        handlers_before = self._handler_acc
        if nested:
            # We are *inside* a migrated call (a server calling onward):
            # do not rebind threads or touch the client's segment.
            result = self._nested_call(core, engine, service, meta,
                                       payload, reply_capacity,
                                       window_slice)
            # This nested call's mechanism time: everything except the
            # inner handler.  The *enclosing* call already excludes all
            # of it via its own handler-span measurement, so counting
            # it here is the only place it lands in ipc_cycles.
            self.ipc_cycles += ((core.cycles - start)
                                - (self._handler_acc - handlers_before))
            return result
        mem = self.kernel.machine.memory
        self.kernel.run_thread(core, self.client_thread)
        window_bytes = max(len(payload), reply_capacity)
        self._ensure_seg(window_bytes)
        if (faults.ACTIVE is not None
                and faults.fire("xpc.relayseg.revoke") is not None):
            # Injected §4.4 revocation of the client's active segment:
            # this call fails (the window stops translating); the next
            # call's _ensure_seg builds a replacement.
            self.kernel.revoke_relay_seg(self._seg[0])
        seg = self._seg[0]
        if payload:
            # The client *produces* the message directly in the relay
            # segment (paper Listing 1: "fill relay-seg with argument").
            # Not a copy — but the store stream allocates cache lines.
            mem.write(seg.pa_base, payload)
            if probe.ACCESS:
                probe.access(core, seg, "relay-seg",
                             "ipc.xpc_transport.fill", "write")
            core.tick(int(len(payload)
                          * self.kernel.params.relay_fill_per_byte))
        masked = _round_page(window_bytes)
        mask = (SegMask(0, masked) if window_bytes and masked < seg.length
                else NO_MASK)
        # Migrating-thread model: cross-core calls run the server's code
        # on the client's core, so nothing extra is charged (§5.2).
        reply_meta, reply_len = xpc_call(
            core, service.entry_id, len(payload), meta,
            mask=mask, kernel=self.kernel)
        reply = mem.read(seg.pa_base, reply_len) if reply_len else b""
        self.ipc_cycles += ((core.cycles - start)
                            - (self._handler_acc - handlers_before))
        return reply_meta, reply

    # -- nested (server → server) calls --------------------------------------
    def _nested_call(self, core: Core, engine, service: XPCService,
                     meta: tuple, payload: bytes, reply_capacity: int,
                     window_slice) -> Tuple[tuple, bytes]:
        """Call onward from inside a handler (paper §3.3 Figure 3).

        With ``window_slice`` the current window is simply re-masked and
        handed over (the §4.4 sliding window — zero copies).  Otherwise
        the handler parks the caller's window with ``swapseg``, stages
        the request in its own scratch segment (one copy), calls, and
        swaps back.  *core* is the core whose engine is mid-call.
        """
        mem = self.kernel.machine.memory
        state = engine.state
        if window_slice is not None and state.seg_reg.valid:
            offset, length = window_slice
            base_pa = state.seg_reg.pa_base + offset
            reply_meta, reply_len = xpc_call(
                core, service.entry_id, length, meta,
                mask=SegMask(offset, length), kernel=self.kernel)
            reply = mem.read(base_pa, reply_len) if reply_len else b""
            return reply_meta, reply
        seg, slot = self._nested_seg(core, engine,
                                     max(len(payload), reply_capacity))
        engine.swapseg(slot)  # park the caller's window, load scratch
        try:
            if payload:
                mem.write(seg.pa_base, payload)
                if probe.ACCESS:
                    probe.access(core, seg, "relay-seg",
                                 "ipc.xpc_transport.stage", "write")
                # Staging into the scratch segment is a real copy.
                core.tick(self.kernel.params.copy_cycles(len(payload)))
            window_bytes = max(len(payload), reply_capacity)
            masked = _round_page(max(window_bytes, 1))
            mask = (SegMask(0, masked) if masked < seg.length
                    else NO_MASK)
            reply_meta, reply_len = xpc_call(
                core, service.entry_id, len(payload), meta,
                mask=mask, kernel=self.kernel)
            reply = mem.read(seg.pa_base, reply_len) if reply_len else b""
        finally:
            engine.swapseg(slot)  # restore the caller's window
        return reply_meta, reply

    def _nested_seg(self, core: Core, engine, nbytes: int):
        """Scratch relay segment for the current runtime state."""
        state = engine.state
        key = state.cap_bitmap
        needed = max(_round_page(max(nbytes, 1)), 4096)
        seg_slot = self._nested_segs.get(key)
        if seg_slot is not None and seg_slot[0].length >= needed:
            return seg_slot
        process = self._process_of_seg_list(state.seg_list)
        if seg_slot is not None:
            old_seg, old_slot = seg_slot
            process.seg_list.drop(old_slot)
            self.kernel.free_relay_seg(core, old_seg)
        size = max(needed, 64 * 1024)
        seg, slot = self.kernel.create_relay_seg(core, process, size)
        self._nested_segs[key] = (seg, slot)
        return seg, slot

    def _process_of_seg_list(self, seg_list):
        for process in self.kernel.processes:
            if process.seg_list is seg_list:
                return process
        raise RuntimeError("current seg-list belongs to no known process")


def _round_page(n: int) -> int:
    return (n + 4095) & ~4095
