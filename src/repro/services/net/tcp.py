"""A small but real TCP: handshake, sequencing, acks, retransmission.

Implements what the lwIP substitution needs: segment build/parse with a
pseudo-header checksum, a proper three-way handshake, cumulative acks,
MSS segmentation, a retransmission queue (exercised by the loopback
fault-injection tests), and FIN teardown.  Flow control uses a fixed
advertised window; congestion control is out of scope for a loopback
evaluation.
"""

from __future__ import annotations

import enum
import struct
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterator, List, Optional, Tuple

from repro.services.net.checksum import internet_checksum

TCP_HDR_LEN = 20
MSS = 1460
DEFAULT_WINDOW = 65535

FLAG_FIN = 0x01
FLAG_SYN = 0x02
FLAG_RST = 0x04
FLAG_PSH = 0x08
FLAG_ACK = 0x10


class TCPError(Exception):
    """Protocol violation or bad segment."""


@dataclass
class Segment:
    src_port: int
    dst_port: int
    seq: int
    ack: int
    flags: int
    window: int = DEFAULT_WINDOW
    payload: bytes = b""

    def pack(self, src_ip: int, dst_ip: int) -> bytes:
        hdr = struct.pack(
            ">HHIIBBHHH", self.src_port, self.dst_port,
            self.seq & 0xFFFFFFFF, self.ack & 0xFFFFFFFF,
            (TCP_HDR_LEN // 4) << 4, self.flags, self.window, 0, 0,
        )
        pseudo = struct.pack(">IIBBH", src_ip, dst_ip, 0, 6,
                             TCP_HDR_LEN + len(self.payload))
        csum = internet_checksum(pseudo + hdr + self.payload)
        hdr = hdr[:16] + struct.pack(">H", csum) + hdr[18:]
        return hdr + self.payload

    @classmethod
    def parse(cls, raw: bytes, src_ip: int, dst_ip: int) -> "Segment":
        if len(raw) < TCP_HDR_LEN:
            raise TCPError("truncated TCP segment")
        pseudo = struct.pack(">IIBBH", src_ip, dst_ip, 0, 6, len(raw))
        if internet_checksum(pseudo + raw) != 0:
            raise TCPError("bad TCP checksum")
        (src_port, dst_port, seq, ack, off, flags, window, _,
         _) = struct.unpack(">HHIIBBHHH", raw[:TCP_HDR_LEN])
        data_off = (off >> 4) * 4
        return cls(src_port, dst_port, seq, ack, flags, window,
                   raw[data_off:])

    def __len__(self) -> int:
        return TCP_HDR_LEN + len(self.payload)


class TCPState(enum.Enum):
    CLOSED = "closed"
    LISTEN = "listen"
    SYN_SENT = "syn-sent"
    SYN_RCVD = "syn-rcvd"
    ESTABLISHED = "established"
    FIN_WAIT = "fin-wait"
    CLOSE_WAIT = "close-wait"
    TIME_WAIT = "time-wait"


@dataclass
class _Unacked:
    seq: int
    segment: Segment
    retries: int = 0


class TCB:
    """One connection's transmission control block.

    *isns* is the owning stack's initial-sequence-number counter; a
    listener draws its children's ISNs from it too.
    """

    def __init__(self, local: Tuple[int, int], isns: Iterator[int],
                 remote: Optional[Tuple[int, int]] = None,
                 delayed_ack: bool = False) -> None:
        self.local = local            # (ip, port)
        self.remote = remote
        self.state = TCPState.CLOSED
        self.isns = isns
        self.snd_una = self.snd_nxt = next(isns)
        self.rcv_nxt = 0
        self.recv_buffer = bytearray()
        self.out_of_order: Dict[int, bytes] = {}
        self.unacked: Deque[_Unacked] = deque()
        self.outbox: List[Segment] = []     # segments awaiting the wire
        self.accept_queue: List["TCB"] = []
        self.retransmissions = 0
        #: lwIP-style delayed ACKs: coalesce the ACKs for a burst of
        #: in-order segments into one (cuts device IPCs nearly in half).
        self.delayed_ack = delayed_ack
        self._ack_pending = False

    # -- sender side -------------------------------------------------------
    def _emit(self, flags: int, payload: bytes = b"",
              track: bool = True) -> Segment:
        seg = Segment(self.local[1], self.remote[1], self.snd_nxt,
                      self.rcv_nxt, flags, payload=payload)
        advance = len(payload) + (1 if flags & (FLAG_SYN | FLAG_FIN)
                                  else 0)
        if advance and track:
            self.unacked.append(_Unacked(self.snd_nxt, seg))
        self.snd_nxt += advance
        self.outbox.append(seg)
        return seg

    def connect(self, remote: Tuple[int, int]) -> None:
        if self.state is not TCPState.CLOSED:
            raise TCPError(f"connect in state {self.state}")
        self.remote = remote
        self._emit(FLAG_SYN)
        self.state = TCPState.SYN_SENT

    def listen(self) -> None:
        if self.state is not TCPState.CLOSED:
            raise TCPError(f"listen in state {self.state}")
        self.state = TCPState.LISTEN

    def send(self, data: bytes) -> None:
        if self.state is not TCPState.ESTABLISHED:
            raise TCPError(f"send in state {self.state}")
        view = memoryview(data)
        while view:
            chunk = bytes(view[:MSS])
            self._emit(FLAG_ACK | FLAG_PSH, chunk)
            view = view[len(chunk):]

    def close(self) -> None:
        if self.state is TCPState.ESTABLISHED:
            self._emit(FLAG_FIN | FLAG_ACK)
            self.state = TCPState.FIN_WAIT
        elif self.state is TCPState.CLOSE_WAIT:
            self._emit(FLAG_FIN | FLAG_ACK)
            self.state = TCPState.TIME_WAIT
        else:
            self.state = TCPState.CLOSED

    def retransmit(self) -> int:
        """Re-queue every unacked segment (coarse timer fired)."""
        count = 0
        for pending in self.unacked:
            seg = pending.segment
            resend = Segment(seg.src_port, seg.dst_port, pending.seq,
                             self.rcv_nxt, seg.flags,
                             payload=seg.payload)
            self.outbox.append(resend)
            pending.retries += 1
            self.retransmissions += 1
            count += 1
        return count

    # -- receiver side -------------------------------------------------------
    def on_segment(self, seg: Segment) -> None:
        """The TCP state machine, one segment at a time."""
        if self.state is TCPState.LISTEN:
            if seg.flags & FLAG_SYN:
                child = TCB(self.local, self.isns, (0, seg.src_port),
                            delayed_ack=self.delayed_ack)
                child.rcv_nxt = seg.seq + 1
                child.remote = (0, seg.src_port)
                child._emit(FLAG_SYN | FLAG_ACK)
                child.state = TCPState.SYN_RCVD
                self.accept_queue.append(child)
                # The listener relays the child's handshake segments.
                self.outbox.extend(child.outbox)
                child.outbox.clear()
            return
        if seg.flags & FLAG_ACK:
            self._process_ack(seg.ack)
        if self.state is TCPState.SYN_SENT and seg.flags & FLAG_SYN:
            self.rcv_nxt = seg.seq + 1
            self.state = TCPState.ESTABLISHED
            self._emit(FLAG_ACK, track=False)
            return
        if self.state is TCPState.SYN_RCVD and seg.flags & FLAG_ACK \
                and not seg.flags & FLAG_SYN:
            self.state = TCPState.ESTABLISHED
        if seg.payload:
            self._receive_data(seg)
        if seg.flags & FLAG_FIN and self.state in (
                TCPState.ESTABLISHED, TCPState.FIN_WAIT):
            if seg.seq == self.rcv_nxt - (1 if seg.payload else 0):
                self.rcv_nxt += 1
                self._emit(FLAG_ACK, track=False)
                if self.state is TCPState.ESTABLISHED:
                    self.state = TCPState.CLOSE_WAIT
                else:
                    self.state = TCPState.TIME_WAIT

    def _process_ack(self, ack: int) -> None:
        if ack > self.snd_una:
            self.snd_una = ack
        while self.unacked and self.unacked[0].seq < self.snd_una:
            self.unacked.popleft()

    def _receive_data(self, seg: Segment) -> None:
        if seg.seq == self.rcv_nxt:
            self.recv_buffer += seg.payload
            self.rcv_nxt += len(seg.payload)
            # Drain any out-of-order segments that now fit.
            while self.rcv_nxt in self.out_of_order:
                data = self.out_of_order.pop(self.rcv_nxt)
                self.recv_buffer += data
                self.rcv_nxt += len(data)
            if self.delayed_ack:
                self._ack_pending = True
            else:
                self._emit(FLAG_ACK, track=False)
        elif seg.seq > self.rcv_nxt:
            self.out_of_order[seg.seq] = seg.payload
            self._emit(FLAG_ACK, track=False)  # duplicate ack
        else:
            self._emit(FLAG_ACK, track=False)  # stale; re-ack

    def flush_ack(self) -> bool:
        """Emit the coalesced ACK if one is pending (delayed-ACK timer
        firing).  Returns True if an ACK was queued."""
        if not self._ack_pending:
            return False
        self._ack_pending = False
        self._emit(FLAG_ACK, track=False)
        return True

    def recv(self, n: int = -1) -> bytes:
        if n < 0:
            n = len(self.recv_buffer)
        out = bytes(self.recv_buffer[:n])
        del self.recv_buffer[:n]
        return out
