"""Zircon channels and handle tables."""

import itertools

import pytest

from repro.kernel.objects import KernelObject, Right
from repro.zircon.channel import (
    ChannelEnd, HandleError, HandleTable, Message, channel_create,
)


def test_write_appears_on_peer():
    a, b = channel_create(itertools.count(1))
    a.write(Message(("hello",), b"data"))
    msg = b.read()
    assert msg.meta == ("hello",)
    assert msg.data == b"data"


def test_read_empty_raises():
    a, b = channel_create(itertools.count(1))
    with pytest.raises(HandleError):
        a.read()


def test_fifo_order():
    a, b = channel_create(itertools.count(1))
    for i in range(5):
        a.write(Message((i,), b""))
    assert [b.read().meta[0] for i in range(5)] == [0, 1, 2, 3, 4]


def test_write_to_closed_peer_raises():
    a, b = channel_create(itertools.count(1))
    b.closed = True
    with pytest.raises(HandleError):
        a.write(Message((), b""))


def test_bidirectional():
    a, b = channel_create(itertools.count(1))
    a.write(Message(("req",), b""))
    b.read()
    b.write(Message(("resp",), b""))
    assert a.read().meta == ("resp",)


class TestHandleTable:
    def test_install_get(self):
        table = HandleTable()
        obj = KernelObject(1, "o")
        handle = table.install(obj, Right.READ)
        assert table.get(handle, Right.READ) is obj

    def test_rights_enforced(self):
        table = HandleTable()
        handle = table.install(KernelObject(1, "o"), Right.READ)
        with pytest.raises(HandleError):
            table.get(handle, Right.WRITE)

    def test_bad_handle(self):
        with pytest.raises(HandleError):
            HandleTable().get(7)

    def test_close_invalidates(self):
        table = HandleTable()
        end, _ = channel_create(itertools.count(1))
        handle = table.install(end)
        table.close(handle)
        assert end.closed
        with pytest.raises(HandleError):
            table.get(handle)
        with pytest.raises(HandleError):
            table.close(handle)

    def test_handles_are_per_table(self):
        t1, t2 = HandleTable(), HandleTable()
        h1 = t1.install(KernelObject(1, "x"))
        with pytest.raises(HandleError):
            t2.get(h1)
