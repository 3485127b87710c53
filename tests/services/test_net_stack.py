"""The network stack server over IPC (sockets + loopback chain)."""

import os

import pytest

import repro.faults as faults
from repro.faults import FaultPlan
from repro.services.net import TCPError, build_net_stack
from tests.conftest import TRANSPORT_SPECS, build_transport


@pytest.fixture(params=TRANSPORT_SPECS, ids=[s[0] for s in TRANSPORT_SPECS])
def net_world(request):
    machine, kernel, transport, ct = build_transport(
        request.param, mem_bytes=256 * 1024 * 1024)
    server, net, dev = build_net_stack(transport, kernel)
    return machine, kernel, net, dev, server


def lossy_wire(dev, every):
    """A plan dropping every *every*-th frame the loopback device *dev*
    carries, counted from its first frame (for the next 100 drops)."""
    first = every - dev.frames % every
    plan = FaultPlan()
    for n in range(100):
        plan.arm("net.drop", nth=first + n * every)
    return plan


def connect_pair(net):
    listener = net.socket()
    net.listen(listener, 8080)
    client = net.socket()
    net.connect(client, 8080)
    conn = net.accept(listener)
    return client, conn


class TestSockets:
    def test_connect_accept(self, net_world):
        machine, kernel, net, dev, server = net_world
        client, conn = connect_pair(net)
        assert client != conn

    def test_send_recv(self, net_world):
        machine, kernel, net, dev, server = net_world
        client, conn = connect_pair(net)
        net.send(client, b"hello network")
        assert net.recv(conn, 64) == b"hello network"

    def test_large_transfer_segments(self, net_world):
        machine, kernel, net, dev, server = net_world
        client, conn = connect_pair(net)
        blob = os.urandom(8000)
        net.send(client, blob)
        got = b""
        for _ in range(10):
            got += net.recv(conn, 8000)
            if len(got) == len(blob):
                break
        assert got == blob
        assert server.stack.segments_tx >= 6  # 6 data segments

    def test_bidirectional(self, net_world):
        machine, kernel, net, dev, server = net_world
        client, conn = connect_pair(net)
        net.send(client, b"req")
        assert net.recv(conn, 16) == b"req"
        net.send(conn, b"resp")
        assert net.recv(client, 16) == b"resp"

    def test_connect_to_nobody_fails(self, net_world):
        machine, kernel, net, dev, server = net_world
        sock = net.socket()
        with pytest.raises(TCPError):
            net.connect(sock, 9999)

    def test_every_frame_crosses_the_device(self, net_world):
        machine, kernel, net, dev, server = net_world
        frames_before = dev.frames
        client, conn = connect_pair(net)
        net.send(client, b"x")
        net.recv(conn, 1)
        assert dev.frames > frames_before

    def test_two_connections_are_isolated(self, net_world):
        machine, kernel, net, dev, server = net_world
        c1, s1 = connect_pair(net)
        listener2 = net.socket()
        net.listen(listener2, 9090)
        c2 = net.socket()
        net.connect(c2, 9090)
        s2 = net.accept(listener2)
        net.send(c1, b"one")
        net.send(c2, b"two")
        assert net.recv(s2, 8) == b"two"
        assert net.recv(s1, 8) == b"one"


class TestFaultInjection:
    def test_drops_recovered_by_poll(self):
        machine, kernel, transport, ct = build_transport(
            TRANSPORT_SPECS[2], mem_bytes=256 * 1024 * 1024)
        server, net, dev = build_net_stack(transport, kernel)
        client, conn = connect_pair(net)
        blob = os.urandom(6000)
        with faults.active(lossy_wire(dev, 5)):   # lose every 5th frame
            net.send(client, blob)
            got = net.recv(conn, 8000)
            for _ in range(20):
                if len(got) == len(blob):
                    break
                net.poll()          # retransmission timer
                got += net.recv(conn, 8000)
        assert got == blob
        assert dev.dropped > 0
