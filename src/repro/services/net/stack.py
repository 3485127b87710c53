"""The network-stack server's core: sockets over TCP/IP over loopback.

The lwIP substitution: a socket API, TCP/IP (de)multiplexing, and a
transmit pump that pushes every outgoing segment through the loopback
device *server* via IPC and feeds returned frames back into the state
machines.  Like lwIP, the stack batches: one application ``send`` of
any size becomes ``ceil(size / MSS)`` device IPCs, which is why bigger
buffers amortize Zircon's IPC cost (paper §5.3, Figure 7c).
"""

from __future__ import annotations

import itertools
from typing import Dict, Optional, Tuple

from repro.ipc.transport import Transport
from repro.services.net import loopback
from repro.services.net.ip import IPError, build_packet, parse_packet
from repro.services.net.tcp import (
    MSS, Segment, TCB, TCPError, TCPState,
)

LOCAL_IP = 0x7F000001

#: Stack-side per-segment processing (header build/parse, demux) and
#: per-byte checksum cost, charged to whichever core runs the stack.
SEGMENT_CYCLES = 120
CSUM_PER_BYTE = 0.15


class NetStack:
    """The in-server network stack (no IPC surface of its own)."""

    def __init__(self, transport: Transport, netdev_sid: int,
                 delayed_acks: bool = False) -> None:
        self.transport = transport
        self.netdev_sid = netdev_sid
        self.delayed_acks = delayed_acks
        self._sockets: Dict[int, TCB] = {}
        self._listeners: Dict[int, TCB] = {}
        self._conns: Dict[Tuple[int, int], TCB] = {}
        self._ids = itertools.count(1)
        self._ephemeral = itertools.count(49152)
        self._isns = itertools.count(65000, 64000)    # TCP ISNs
        self.segments_tx = 0
        self.segments_rx = 0
        self.frames_rejected = 0

    # ------------------------------------------------------------------
    # Socket API (what the NetServer exposes)
    # ------------------------------------------------------------------
    def socket(self) -> int:
        sock_id = next(self._ids)
        self._sockets[sock_id] = TCB(
            (LOCAL_IP, next(self._ephemeral)), self._isns,
            delayed_ack=self.delayed_acks)
        return sock_id

    def _tcb(self, sock_id: int) -> TCB:
        tcb = self._sockets.get(sock_id)
        if tcb is None:
            raise TCPError(f"bad socket id {sock_id}")
        return tcb

    def listen(self, sock_id: int, port: int) -> None:
        tcb = self._tcb(sock_id)
        tcb.local = (LOCAL_IP, port)
        tcb.listen()
        self._listeners[port] = tcb

    def connect(self, sock_id: int, port: int) -> None:
        tcb = self._tcb(sock_id)
        tcb.connect((LOCAL_IP, port))
        self._conns[(tcb.local[1], port)] = tcb
        self.pump()
        if tcb.state is not TCPState.ESTABLISHED:
            raise TCPError(f"connect failed in state {tcb.state}")

    def accept(self, sock_id: int) -> Optional[int]:
        listener = self._tcb(sock_id)
        self.pump()
        if not listener.accept_queue:
            return None
        child = listener.accept_queue.pop(0)
        child_id = next(self._ids)
        self._sockets[child_id] = child
        self._conns[(child.local[1], child.remote[1])] = child
        return child_id

    def send(self, sock_id: int, data: bytes) -> int:
        tcb = self._tcb(sock_id)
        tcb.send(data)
        self.pump()
        return len(data)

    def recv(self, sock_id: int, n: int = -1) -> bytes:
        tcb = self._tcb(sock_id)
        if not tcb.recv_buffer:
            self.pump()
        return tcb.recv(n)

    def sockname(self, sock_id: int) -> Tuple[int, int]:
        """(local_port, remote_port) of a socket (0 if unconnected)."""
        tcb = self._tcb(sock_id)
        remote = tcb.remote[1] if tcb.remote else 0
        return tcb.local[1], remote

    def close(self, sock_id: int) -> None:
        tcb = self._tcb(sock_id)
        tcb.close()
        self.pump()

    def poll(self) -> int:
        """Coarse retransmission timer: resend whatever is unacked."""
        resent = 0
        for tcb in list(self._sockets.values()):
            resent += tcb.retransmit()
        if resent:
            self.pump()
        return resent

    # ------------------------------------------------------------------
    # The transmit/receive pump
    # ------------------------------------------------------------------
    def _collect_outbox(self):
        for tcb in list(self._sockets.values()):
            while tcb.outbox:
                yield tcb, tcb.outbox.pop(0)

    def pump(self, max_rounds: int = 64) -> None:
        """Push pending segments through the loopback device."""
        core = self.transport.current_core
        params = self.transport.kernel.params
        for _ in range(max_rounds):
            moved = False
            for tcb, seg in list(self._collect_outbox()):
                moved = True
                self.segments_tx += 1
                core.tick(SEGMENT_CYCLES
                          + int(len(seg.payload) * CSUM_PER_BYTE))
                frame = build_packet(LOCAL_IP, LOCAL_IP,
                                     seg.pack(LOCAL_IP, LOCAL_IP))
                meta, returned = self.transport.call(
                    self.netdev_sid, (loopback.OP_SEND, len(frame)),
                    frame, reply_capacity=len(frame))
                if meta[0] != 0:
                    continue  # frame dropped on the wire
                try:
                    self._deliver(returned)
                except (IPError, TCPError):
                    # Checksum failure: the wire corrupted the frame.
                    # Drop it — the retransmission timer recovers.
                    self.frames_rejected += 1
            if not moved:
                # Quiescent: fire the delayed-ACK "timer" once; any
                # coalesced ACKs go out in one more round.
                flushed = any([tcb.flush_ack()
                               for tcb in self._sockets.values()])
                if not flushed:
                    return

    def _deliver(self, frame: bytes) -> None:
        core = self.transport.current_core
        hdr, payload = parse_packet(frame)
        seg = Segment.parse(payload, hdr.src, hdr.dst)
        self.segments_rx += 1
        core.tick(SEGMENT_CYCLES)
        # Demux: exact (local, remote) connection first, then listener.
        tcb = self._conns.get((seg.dst_port, seg.src_port))
        if tcb is None:
            tcb = self._listeners.get(seg.dst_port)
        if tcb is None:
            return  # no socket: drop (a real stack would RST)
        tcb.on_segment(seg)
        if tcb.state is TCPState.LISTEN:
            # Register any half-open children for demux.
            for child in tcb.accept_queue:
                key = (child.local[1], child.remote[1])
                self._conns.setdefault(key, child)
