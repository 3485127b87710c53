"""Block-device server: ramdisk, server, client."""

import pytest

import repro.faults as faults
from repro.services.fs.blockdev import (
    BSIZE, BlockClient, BlockDeviceError, BlockServer, RamDisk,
)
from tests.conftest import TRANSPORT_SPECS, build_transport, make_server
from tests.services.test_log_crash import device_crash


def build(spec=TRANSPORT_SPECS[2]):
    machine, kernel, transport, ct = build_transport(spec)
    proc, thread = make_server(kernel, "blockdev")
    disk = RamDisk(64)
    server = BlockServer(transport, disk, proc, thread)
    client = BlockClient(transport, server.sid)
    return machine, kernel, disk, client


class TestRamDisk:
    def test_roundtrip(self):
        disk = RamDisk(8)
        disk.write(3, b"\x07" * BSIZE)
        assert disk.read(3) == b"\x07" * BSIZE

    def test_out_of_range(self):
        disk = RamDisk(8)
        with pytest.raises(BlockDeviceError):
            disk.read(8)
        with pytest.raises(BlockDeviceError):
            disk.write(-1, b"\x00" * BSIZE)

    def test_partial_block_rejected(self):
        disk = RamDisk(8)
        with pytest.raises(BlockDeviceError):
            disk.write(0, b"short")

    def test_crash_drops_writes(self):
        disk = RamDisk(8)
        crash = device_crash(1)
        with faults.active(crash):
            disk.write(0, b"\x01" * BSIZE)   # survives
            disk.write(1, b"\x02" * BSIZE)   # lost (device crashed)
            disk.write(2, b"\x03" * BSIZE)   # lost
        assert disk.read(0) == b"\x01" * BSIZE
        assert disk.read(1) == b"\x00" * BSIZE
        assert [e.hit for e in crash.trace] == [2, 3]

    def test_revive_keeps_contents(self):
        disk = RamDisk(8)
        disk.write(0, b"\x09" * BSIZE)
        with faults.active(device_crash(0)):
            disk.write(1, b"\x01" * BSIZE)
        assert disk.read(1) == b"\x00" * BSIZE
        assert disk.read(0) == b"\x09" * BSIZE
        disk.write(1, b"\x01" * BSIZE)
        assert disk.read(1) == b"\x01" * BSIZE


class TestOverIPC:
    def test_geometry_query(self):
        machine, kernel, disk, client = build()
        assert client.nblocks == 64
        assert client.block_size == BSIZE

    def test_write_read_over_ipc(self):
        machine, kernel, disk, client = build()
        blob = bytes(range(256)) * (BSIZE // 256)
        client.bwrite(5, blob)
        assert client.bread(5) == blob
        assert disk.read(5) == blob

    def test_device_cost_charged(self):
        machine, kernel, disk, client = build()
        before = machine.core0.cycles
        client.bread(0)
        assert (machine.core0.cycles - before
                >= kernel.params.ramdisk_per_block)

    @pytest.mark.parametrize("spec", TRANSPORT_SPECS,
                             ids=[s[0] for s in TRANSPORT_SPECS])
    def test_works_on_every_transport(self, spec):
        machine, kernel, disk, client = build(spec)
        client.bwrite(1, b"\x42" * BSIZE)
        assert client.bread(1) == b"\x42" * BSIZE
