"""The loopback network-device server.

"A loopback device driver, which gets a packet and then sends it to the
server, is used as the network device server" (paper §5.3).  Every
frame the stack transmits crosses the IPC boundary to this server and
comes back as the reply — the per-segment IPC that dominates small-
buffer TCP throughput on Zircon.
"""

from __future__ import annotations

import repro.probe as probe
from repro.ipc.transport import Payload, RelayPayload, Transport

OP_SEND = "xmit"
OP_STATS = "stats"


class LoopbackServer:
    """Echoes frames back to the stack; its faults are the ``net.*``
    points."""

    def __init__(self, transport: Transport, server_process,
                 server_thread, name: str = "netdev") -> None:
        self.transport = transport
        self.params = transport.kernel.params
        self.frames = 0
        self.bytes = 0
        self.dropped = 0
        self.sid = transport.register(
            name, self._handle, server_process, server_thread)

    def _handle(self, meta: tuple, payload: Payload):
        op = meta[0]
        if op == OP_SEND:
            self.transport.current_core.tick(self.params.nic_loopback_fixed)
            self.frames += 1
            frame = payload.read(meta[1])
            self.bytes += len(frame)
            if probe.INJECT:
                if probe.inject("net.drop") is not None:
                    self.dropped += 1
                    return (1,), None      # injected wire loss
                act = probe.inject("net.corrupt")
                if act is not None:
                    # Flip one byte; the IP/TCP checksums catch it and
                    # the stack drops the frame (retransmit recovers).
                    pos = int(act.get("byte", 0)) % max(len(frame), 1)
                    frame = (frame[:pos]
                             + bytes([frame[pos] ^ 0xFF])
                             + frame[pos + 1:])
                    if isinstance(payload, RelayPayload):
                        payload.write(frame, 0)
                        return (0, len(frame)), len(frame)
                    return (0, len(frame)), frame
            if isinstance(payload, RelayPayload):
                # The frame already sits in the relay window: echo it
                # back in place, zero copies.
                return (0, len(frame)), len(frame)
            return (0, len(frame)), frame
        if op == OP_STATS:
            return (self.frames, self.bytes, self.dropped), None
        return (-1,), None
