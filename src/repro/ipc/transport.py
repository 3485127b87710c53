"""The transport interface user-level services are written against.

A service registers a handler::

    def handler(meta: tuple, payload: Payload) -> (tuple, bytes | None)

and clients invoke::

    reply_meta, reply_bytes = transport.call(sid, meta, payload_bytes)

The *mechanism cost* — traps, scheduling, message copies — is charged by
the concrete transport (seL4 fast/slow path, Zircon channels, XPC
xcall/relay-seg).  Payload *contents* always live in simulated physical
memory; with XPC the handler's :class:`RelayPayload` aliases the caller's
bytes (zero-copy), while baseline transports hand over a
:class:`CopiedPayload` produced by real kernel copies.

``meta`` models the register-passed part of a message (method ids, small
scalars); it is free in every system, like the ≤32-byte register fast
path in seL4.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import repro.probe as probe

Handler = Callable[[tuple, "Payload"], Tuple[tuple, Optional[bytes]]]


class Payload(abc.ABC):
    """Read/write view of a request's bulk data inside a handler."""

    @abc.abstractmethod
    def read(self, n: int = -1, offset: int = 0) -> bytes:
        """Read *n* bytes (all remaining if -1) starting at *offset*."""

    @abc.abstractmethod
    def write(self, data: bytes, offset: int = 0) -> None:
        """Write reply bytes in place (XPC) or into the reply copy."""

    @abc.abstractmethod
    def __len__(self) -> int:
        ...


class CopiedPayload(Payload):
    """Baseline payload: the kernel already copied it into our space."""

    def __init__(self, data: bytes, reply_capacity: int = 0) -> None:
        self._data = bytearray(data)
        self._reply_capacity = max(reply_capacity, len(data))

    def read(self, n: int = -1, offset: int = 0) -> bytes:
        if n < 0:
            n = len(self._data) - offset
        return bytes(self._data[offset:offset + n])

    def write(self, data: bytes, offset: int = 0) -> None:
        end = offset + len(data)
        if end > len(self._data):
            self._data.extend(b"\x00" * (end - len(self._data)))
        self._data[offset:end] = data

    def raw(self) -> bytes:
        return bytes(self._data)

    def __len__(self) -> int:
        return len(self._data)


class RelayPayload(Payload):
    """XPC payload: a window straight onto the caller's relay segment.

    Reads and writes hit the same physical bytes the caller filled —
    zero copies, and single ownership is enforced by the engine.
    """

    def __init__(self, mem, window, used: int,
                 base_offset: int = 0) -> None:
        self._mem = mem
        self._window = window
        self._used = used
        #: Where this payload's window starts inside the *thread's
        #: active* relay window.  0 on the synchronous path (the
        #: payload is the window); an aio arena slot sits at its
        #: SQE's data offset within the ring segment.
        self._base_offset = base_offset

    def read(self, n: int = -1, offset: int = 0) -> bytes:
        if n < 0:
            n = self._used - offset
        if offset + n > self._window.length:
            raise IndexError("read escapes the relay window")
        return self._mem.read(self._window.pa_base + offset, n)

    def write(self, data: bytes, offset: int = 0) -> None:
        if offset + len(data) > self._window.length:
            raise IndexError("write escapes the relay window")
        self._mem.write(self._window.pa_base + offset, data)
        self._used = max(self._used, offset + len(data))

    def put_reply(self, reply) -> int:
        """Place a handler's reply and return its byte count: the reply
        contract of :meth:`Transport.call` (``None`` → no reply, an
        ``int`` → already written in place, bytes → written at the
        start of the window).  Inlines :meth:`write` so a bytes reply
        costs the same calls as writing it."""
        if reply is None:
            return 0
        if isinstance(reply, int):
            return reply
        n = len(reply)
        if n > self._window.length:
            raise IndexError("write escapes the relay window")
        self._mem.write(self._window.pa_base, reply)
        self._used = max(self._used, n)
        return n

    def window_slice(self, offset: int, length: int):
        """Translate a payload-relative range into the ``window_slice``
        coordinates of :meth:`Transport.call` — i.e. offsets within the
        thread's *active* relay window.  Handlers that slide their
        payload down the chain (§4.4) must go through this instead of
        passing raw offsets, so they keep working when the payload is a
        sub-window of a larger segment (a batched-ring arena slot)."""
        return (self._base_offset + offset, length)

    def __len__(self) -> int:
        return self._used


def watched_op(core, service: str, dispatch: Callable, meta: tuple,
               payload: Payload):
    """Run ``dispatch(op, meta, payload)`` for ``op = meta[0]`` as one
    server op: a ``<service>:<op>`` span and its cycles fed to the
    ``<service>.op_cycles.<op>`` histogram.  Servers call it only while
    the probe's ``span`` or ``metric`` site is watched."""
    op = meta[0]
    span = (probe.span(core, f"{service}:{op}", "service") if probe.SPAN
            else None)
    start = core.cycles
    try:
        return dispatch(op, meta, payload)
    finally:
        if probe.METRIC:
            probe.metric("histogram", f"{service}.op_cycles.{op}",
                         core.cycles - start, core.cycles)
        if span is not None:
            probe.span_end(core, span)


@dataclass
class ServerRegistration:
    """Bookkeeping for one registered service."""

    sid: int
    name: str
    handler: Handler
    server_process: object
    server_thread: object
    extra: dict = None


class Transport(abc.ABC):
    """One IPC mechanism on one machine."""

    #: Human-readable system name ("seL4", "seL4-XPC", "Zircon", ...).
    name = "abstract"

    #: The snapshot contract (repro.snap): the complete instance state
    #: this class owns.  Subclasses extend the tuple; the snap-discipline
    #: lint rule and the fingerprint walker both enforce totality, so a
    #: restored transport can never silently miss an attribute.
    __snap_state__ = ("_services", "_next_sid", "call_count",
                      "bytes_moved", "ipc_cycles")

    def __init__(self) -> None:
        self._services: Dict[int, ServerRegistration] = {}
        self._next_sid = 1
        self.call_count = 0
        self.bytes_moved = 0
        #: Cycles spent in the IPC *mechanism* (traps, switches, copies)
        #: across all calls — handler time excluded.  This is the
        #: numerator of the paper's Figure 1(a) "CPU time spent on IPC".
        self.ipc_cycles = 0

    # -- execution context -------------------------------------------------
    @property
    def current_core(self):
        """The core currently executing service code through this
        transport.

        The kernel's :attr:`~repro.kernel.kernel.BaseKernel.handler_core`
        inside a handler — the client's core on the synchronous path
        (the migrating thread runs servers on the caller's core), the
        worker's core when an aio worker drains a ring — and the home
        core ``self.core`` outside one.  Handler logic costs and nested
        onward calls must use this, not the home core, so batched
        execution is charged to — and windows resolve against — the
        core actually doing the work.
        """
        core = self.kernel.handler_core
        return self.core if core is None else core

    # -- registration ------------------------------------------------------
    def register(self, name: str, handler: Handler,
                 server_process, server_thread, **extra) -> int:
        sid = self._next_sid
        self._next_sid += 1
        reg = ServerRegistration(sid, name, handler, server_process,
                                 server_thread, extra or {})
        self._services[sid] = reg
        self._bind(reg)
        return sid

    def lookup(self, name: str) -> int:
        """Name-server style resolution (paper Listing 1)."""
        for sid, reg in self._services.items():
            if reg.name == name:
                return sid
        raise KeyError(f"no service named {name!r}")

    def _reg(self, sid: int) -> ServerRegistration:
        try:
            return self._services[sid]
        except KeyError:
            raise KeyError(f"unknown service id {sid}") from None

    def grant_to_thread(self, sid: int, thread) -> None:
        """Allow *thread* (e.g. another server) to call service *sid*.

        Capability plumbing for server→server chains; a no-op on
        transports whose kernels do the check at call time.
        """

    def revoke_from_thread(self, sid: int, thread) -> None:
        """Withdraw *thread*'s right to call service *sid*.

        The inverse of :meth:`grant_to_thread`.  On XPC transports this
        clears the xcall-cap bit so the *engine* denies the next call;
        baseline transports whose kernels keep no per-thread grant state
        leave enforcement to the caller (a no-op here).
        """

    # -- the two hooks concrete transports implement -------------------------
    @abc.abstractmethod
    def _bind(self, reg: ServerRegistration) -> None:
        """Mechanism-specific server setup (endpoint, channel, x-entry)."""

    @abc.abstractmethod
    def call(self, sid: int, meta: tuple = (),
             payload: bytes = b"",
             reply_capacity: int = 0,
             cross_core: bool = False,
             window_slice: Optional[Tuple[int, int]] = None
             ) -> Tuple[tuple, bytes]:
        """Synchronous request/response carrying *payload* bytes.

        Handlers may reply three ways: return reply bytes (the transport
        moves them), return an ``int`` byte count (the reply was already
        written in place through ``payload.write`` — zero-copy), or
        return ``None`` (no reply payload).

        ``window_slice=(offset, length)`` is the relay-seg handover fast
        path (paper §4.4's sliding window): on an XPC transport inside a
        migrated call it passes a *masked view of the current window*
        instead of staging bytes — zero copies down the chain.  Baseline
        transports ignore it and move *payload* the usual way.
        """
