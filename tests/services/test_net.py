"""Network stack: checksum, IP, TCP state machine."""

import itertools

import pytest
from hypothesis import given, strategies as st

from repro.services.net.checksum import internet_checksum, verify_checksum
from repro.services.net.ip import (
    IPError, IPv4Header, build_packet, parse_packet,
)
from repro.services.net.tcp import (
    FLAG_ACK, FLAG_SYN, MSS, Segment, TCB, TCPError, TCPState,
)


class TestChecksum:
    def test_rfc1071_example(self):
        # Classic example from RFC 1071 §3.
        data = bytes([0x00, 0x01, 0xF2, 0x03, 0xF4, 0xF5, 0xF6, 0xF7])
        assert internet_checksum(data) == 0x220D

    def test_verify_with_embedded_checksum(self):
        data = bytearray(b"\x12\x34\x56\x78\x00\x00")
        csum = internet_checksum(bytes(data))
        data[4:6] = csum.to_bytes(2, "big")
        assert verify_checksum(bytes(data))

    def test_odd_length_padded(self):
        assert internet_checksum(b"\xff") == internet_checksum(b"\xff\x00")

    @given(st.binary(min_size=1, max_size=200))
    def test_corruption_usually_detected(self, data):
        data = bytearray(data) + b"\x00\x00"
        csum = internet_checksum(bytes(data[:-2]))
        data[-2:] = csum.to_bytes(2, "big")
        # Flip one bit: the checksum must catch it.
        data[0] ^= 0x01
        assert not verify_checksum(bytes(data))


class TestIPv4:
    def test_header_roundtrip(self):
        hdr = IPv4Header(src=0x0A000001, dst=0x0A000002, total_len=40)
        parsed = IPv4Header.parse(hdr.pack())
        assert parsed.src == 0x0A000001
        assert parsed.dst == 0x0A000002
        assert parsed.total_len == 40

    def test_packet_roundtrip(self):
        frame = build_packet(1, 2, b"hello ip")
        hdr, payload = parse_packet(frame)
        assert payload == b"hello ip"

    def test_corrupt_header_detected(self):
        frame = bytearray(build_packet(1, 2, b"x"))
        frame[8] ^= 0xFF  # clobber TTL
        with pytest.raises(IPError):
            parse_packet(bytes(frame))

    def test_truncated(self):
        with pytest.raises(IPError):
            IPv4Header.parse(b"\x45\x00")


class TestSegment:
    def test_pack_parse_roundtrip(self):
        seg = Segment(1000, 80, seq=7, ack=9, flags=FLAG_ACK,
                      payload=b"data!")
        parsed = Segment.parse(seg.pack(1, 2), 1, 2)
        assert (parsed.src_port, parsed.dst_port) == (1000, 80)
        assert (parsed.seq, parsed.ack) == (7, 9)
        assert parsed.payload == b"data!"

    def test_checksum_covers_pseudo_header(self):
        seg = Segment(1000, 80, 0, 0, FLAG_ACK)
        raw = seg.pack(1, 2)
        with pytest.raises(TCPError):
            Segment.parse(raw, 1, 3)  # different dst IP

    def test_payload_corruption_detected(self):
        raw = bytearray(Segment(1, 2, 0, 0, 0, payload=b"ok").pack(1, 2))
        raw[-1] ^= 0x40
        with pytest.raises(TCPError):
            Segment.parse(bytes(raw), 1, 2)


def wire(a: TCB, b: TCB, drop_indices=()):
    """Deliver outbox segments between two TCBs until quiescent."""
    sent = 0
    for _ in range(64):
        moved = False
        for src, dst in ((a, b), (b, a)):
            while src.outbox:
                seg = src.outbox.pop(0)
                moved = True
                if sent in drop_indices:
                    sent += 1
                    continue
                sent += 1
                dst.on_segment(seg)
        if not moved:
            return


def handshake():
    isns = itertools.count(65000, 64000)
    server = TCB((0, 80), isns)
    server.listen()
    client = TCB((0, 5000), isns)
    client.connect((0, 80))
    # SYN
    server.on_segment(client.outbox.pop(0))
    child = server.accept_queue[0]
    # SYN-ACK relayed via listener outbox
    client.on_segment(server.outbox.pop(0))
    # final ACK
    child.on_segment(client.outbox.pop(0))
    assert client.state is TCPState.ESTABLISHED
    assert child.state is TCPState.ESTABLISHED
    return client, child


class TestTCB:
    def test_three_way_handshake(self):
        handshake()

    def test_data_transfer(self):
        client, child = handshake()
        client.send(b"request bytes")
        wire(client, child)
        assert child.recv() == b"request bytes"

    def test_bidirectional(self):
        client, child = handshake()
        client.send(b"ping")
        wire(client, child)
        child.send(b"pong")
        wire(child, client)
        assert child.recv() == b"ping"
        assert client.recv() == b"pong"

    def test_mss_segmentation(self):
        client, child = handshake()
        blob = bytes(range(256)) * 20  # 5120 B > 3 segments
        client.send(blob)
        nsegs = len([u for u in client.unacked])
        assert nsegs == (len(blob) + MSS - 1) // MSS
        wire(client, child)
        assert child.recv() == blob

    def test_acks_clear_retransmit_queue(self):
        client, child = handshake()
        client.send(b"x" * 3000)
        wire(client, child)
        assert len(client.unacked) == 0

    def test_lost_segment_recovered_by_retransmit(self):
        client, child = handshake()
        client.send(b"A" * 2000)          # two segments
        # Drop the first data segment on the wire.
        wire(client, child, drop_indices=(0,))
        assert child.recv() != b"A" * 2000  # incomplete so far
        client.retransmit()
        wire(client, child)
        got = child.recv()
        assert b"A" * 2000 in (got, child.recv() + got) or \
            len(got) == 2000
        assert client.retransmissions > 0

    def test_out_of_order_reassembly(self):
        client, child = handshake()
        client.send(b"1" * MSS)
        client.send(b"2" * MSS)
        seg1 = client.outbox.pop(0)
        seg2 = client.outbox.pop(0)
        child.on_segment(seg2)      # arrives first
        assert child.recv() == b""  # held out of order
        child.on_segment(seg1)
        assert child.recv() == b"1" * MSS + b"2" * MSS

    def test_duplicate_segment_ignored(self):
        client, child = handshake()
        client.send(b"once")
        seg = client.outbox.pop(0)
        child.on_segment(seg)
        child.on_segment(seg)      # duplicate delivery
        assert child.recv() == b"once"

    def test_fin_teardown(self):
        client, child = handshake()
        client.close()
        wire(client, child)
        assert child.state is TCPState.CLOSE_WAIT
        child.close()
        wire(client, child)
        assert client.state in (TCPState.TIME_WAIT, TCPState.CLOSED)

    def test_send_before_established_rejected(self):
        tcb = TCB((0, 1), itertools.count(65000, 64000))
        with pytest.raises(TCPError):
            tcb.send(b"too soon")

    def test_connect_twice_rejected(self):
        tcb = TCB((0, 1), itertools.count(65000, 64000))
        tcb.connect((0, 2))
        with pytest.raises(TCPError):
            tcb.connect((0, 2))

    @given(chunks=st.lists(st.binary(min_size=1, max_size=4000),
                           min_size=1, max_size=8))
    def test_stream_integrity_property(self, chunks):
        """Whatever is sent, in whatever chunking, arrives in order."""
        client, child = handshake()
        for chunk in chunks:
            client.send(chunk)
            wire(client, child)
        assert child.recv() == b"".join(chunks)
