"""Newer substrate features: Zircon handle transfer, seL4 badges,
delayed ACKs, FS rename, DROP TABLE."""

import pytest

import repro.faults as faults
from repro.apps.sqlite.db import Database, DBError
from repro.hw.machine import Machine
from repro.kernel.objects import Right
from repro.sel4.kernel import Sel4Kernel
from repro.services.fs import FSError, build_fs_stack
from repro.services.fs.blockdev import RamDisk
from repro.services.fs.xv6fs import T_DIR, Xv6FS
from repro.services.net import build_net_stack
from repro.zircon.channel import HandleError, Message
from repro.zircon.kernel import ZirconKernel
from tests.conftest import TRANSPORT_SPECS, build_transport
from tests.services.test_log_crash import DirectDisk
from tests.services.test_net_stack import lossy_wire


class TestZirconHandleTransfer:
    def _world(self):
        machine = Machine(cores=1, mem_bytes=64 * 1024 * 1024)
        kernel = ZirconKernel(machine)
        a = kernel.create_process("a")
        b = kernel.create_process("b")
        at = kernel.create_thread(a)
        bt = kernel.create_thread(b)
        ha, hb = kernel.create_channel(a, b)
        kernel.run_thread(machine.core0, at)
        return machine, kernel, (a, at, ha), (b, bt, hb)

    def test_handle_moves_between_processes(self):
        machine, kernel, (a, at, ha), (b, bt, hb) = self._world()
        core = machine.core0
        # A second channel whose far end we send to B.
        hx, hy = kernel.create_channel(a, a, "payload-chan")
        kernel.channel_write(core, at, ha,
                             Message(("take",), b"", handles=(hy,)))
        msg = kernel.channel_read(core, bt, hb)
        (new_handle,) = msg.handles
        # B can now use the transferred endpoint...
        kernel.channel_write(core, bt, new_handle,
                             Message(("hi",), b"via moved handle"))
        got = kernel.channel_read(core, at, hx)
        assert got.data == b"via moved handle"
        # ...and A no longer can (the handle *moved*).
        with pytest.raises(HandleError):
            kernel.channel_write(core, at, hy, Message((), b""))

    def test_bad_handle_in_message_rejected(self):
        machine, kernel, (a, at, ha), (b, bt, hb) = self._world()
        with pytest.raises(HandleError):
            kernel.channel_write(machine.core0, at, ha,
                                 Message((), b"", handles=(999,)))


class TestSel4Badges:
    def test_badge_identifies_the_caller(self):
        machine = Machine(cores=1, mem_bytes=64 * 1024 * 1024)
        kernel = Sel4Kernel(machine)
        server = kernel.create_process("server")
        st = kernel.create_thread(server)
        slot = kernel.create_endpoint(server)
        kernel.bind_endpoint(server, slot, st,
                             lambda m, p: ((0,), None))
        badges = {}
        for badge in (11, 22):
            client = kernel.create_process(f"client{badge}")
            ct = kernel.create_thread(client)
            cslot = kernel.mint_endpoint_cap(server, slot, client,
                                             Right.SEND, badge=badge)
            kernel.run_thread(machine.core0, ct)
            kernel.ipc_call(machine.core0, ct, cslot, (), b"")
            badges[badge] = kernel.last_badge
        assert badges == {11: 11, 22: 22}


class TestDelayedAcks:
    def _tput_world(self, delayed):
        machine, kernel, transport, ct = build_transport(
            TRANSPORT_SPECS[4], mem_bytes=256 * 1024 * 1024)
        server, net, dev = build_net_stack(transport, kernel,
                                           delayed_acks=delayed)
        listener = net.socket()
        net.listen(listener, 80)
        client = net.socket()
        net.connect(client, 80)
        conn = net.accept(listener)
        return machine, net, dev, client, conn

    def test_data_still_arrives_intact(self):
        machine, net, dev, client, conn = self._tput_world(True)
        blob = bytes(range(256)) * 40
        net.send(client, blob)
        assert net.recv(conn, len(blob)) == blob

    def test_fewer_frames_on_the_wire(self):
        frames = {}
        for delayed in (False, True):
            machine, net, dev, client, conn = self._tput_world(delayed)
            before = dev.frames
            net.send(client, b"x" * 8000)   # 6 MSS segments
            net.recv(conn, 8000)
            frames[delayed] = dev.frames - before
        # Delayed ACKs coalesce the per-segment ACK frames.
        assert frames[True] < frames[False]

    def test_retransmission_still_works(self):
        machine, net, dev, client, conn = self._tput_world(True)
        blob = bytes(range(256)) * 30
        with faults.active(lossy_wire(dev, 4)):
            net.send(client, blob)
            got = net.recv(conn, len(blob))
            for _ in range(20):
                if len(got) == len(blob):
                    break
                net.poll()
                got += net.recv(conn, len(blob))
        assert got == blob


class TestRename:
    @pytest.fixture
    def fs(self):
        return Xv6FS.mkfs(DirectDisk(RamDisk(1024)))

    def test_rename_file(self, fs):
        fs.create("/old")
        fs.write("/old", b"contents")
        fs.rename("/old", "/new")
        assert fs.read("/new") == b"contents"
        with pytest.raises(FSError):
            fs.read("/old")

    def test_rename_across_directories(self, fs):
        fs.create("/a", T_DIR)
        fs.create("/b", T_DIR)
        fs.create("/a/f")
        fs.write("/a/f", b"moving")
        fs.rename("/a/f", "/b/g")
        assert fs.read("/b/g") == b"moving"
        assert fs.listdir("/a") == []

    def test_rename_directory_updates_dotdot(self, fs):
        fs.create("/a", T_DIR)
        fs.create("/b", T_DIR)
        fs.create("/a/sub", T_DIR)
        fs.create("/a/sub/f")
        fs.rename("/a/sub", "/b/sub")
        fs.create("/b/sub/g")
        assert sorted(fs.listdir("/b/sub")) == ["f", "g"]

    def test_rename_onto_existing_rejected(self, fs):
        fs.create("/x")
        fs.create("/y")
        with pytest.raises(FSError):
            fs.rename("/x", "/y")

    def test_rename_missing_rejected(self, fs):
        with pytest.raises(FSError):
            fs.rename("/ghost", "/anything")

    def test_rename_dir_into_itself_rejected(self, fs):
        fs.create("/d", T_DIR)
        with pytest.raises(FSError):
            fs.rename("/d", "/d/inner")

    def test_rename_over_ipc(self):
        machine, kernel, transport, ct = build_transport(
            TRANSPORT_SPECS[2], mem_bytes=128 * 1024 * 1024)
        server, fsc, disk = build_fs_stack(transport, kernel,
                                           disk_blocks=1024)
        fsc.create("/before")
        fsc.write("/before", b"ipc rename")
        fsc.rename("/before", "/after")
        assert fsc.read("/after") == b"ipc rename"


class TestDropTable:
    def _db(self):
        machine, kernel, transport, ct = build_transport(
            TRANSPORT_SPECS[2], mem_bytes=256 * 1024 * 1024)
        server, fsc, disk = build_fs_stack(transport, kernel,
                                           disk_blocks=4096)
        return Database(fsc), fsc

    def test_drop_removes_table(self):
        db, fsc = self._db()
        db.create_table("t")
        db.insert("t", b"k", b"v")
        db.drop_table("t")
        assert db.tables() == []
        with pytest.raises(DBError):
            db.get("t", b"k")

    def test_drop_is_durable(self):
        db, fsc = self._db()
        db.create_table("keep")
        db.create_table("drop")
        db.drop_table("drop")
        reopened = Database(fsc)
        assert reopened.tables() == ["keep"]

    def test_drop_missing(self):
        db, fsc = self._db()
        with pytest.raises(DBError):
            db.drop_table("ghost")

    def test_name_reusable_after_drop(self):
        db, fsc = self._db()
        db.create_table("t")
        db.insert("t", b"k", b"old")
        db.drop_table("t")
        db.create_table("t")
        assert db.get("t", b"k") is None
