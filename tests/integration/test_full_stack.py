"""End-to-end integration: database on FS on IPC, on every system."""

import os

import pytest

import repro.faults as faults
from repro.apps.sqlite.db import Database
from repro.apps.ycsb import YCSBDriver
from repro.services.fs import build_fs_stack
from tests.conftest import TRANSPORT_SPECS, build_transport
from tests.services.test_log_crash import device_crash


@pytest.fixture(params=TRANSPORT_SPECS, ids=[s[0] for s in TRANSPORT_SPECS])
def stack(request):
    machine, kernel, transport, ct = build_transport(
        request.param, mem_bytes=256 * 1024 * 1024)
    server, client, disk = build_fs_stack(transport, kernel,
                                          disk_blocks=4096)
    return machine, kernel, transport, client


class TestDatabaseOnEverySystem:
    def test_insert_read_roundtrip(self, stack):
        machine, kernel, transport, fs = stack
        db = Database(fs)
        db.create_table("t")
        db.insert("t", b"key", b"value across the whole stack")
        assert db.get("t", b"key") == b"value across the whole stack"

    def test_durability_through_reopen(self, stack):
        machine, kernel, transport, fs = stack
        db = Database(fs)
        db.create_table("t")
        db.begin()
        for i in range(25):
            db.insert("t", b"k%02d" % i, os.urandom(64))
        db.commit()
        values = {b"k%02d" % i: db.get("t", b"k%02d" % i)
                  for i in range(25)}
        db2 = Database(fs)
        for key, value in values.items():
            assert db2.get("t", key) == value

    def test_ycsb_smoke(self, stack):
        machine, kernel, transport, fs = stack
        db = Database(fs)
        driver = YCSBDriver(db, records=20, fields=1, field_size=40)
        driver.load()
        stats = driver.run("A", ops=10)
        assert stats.ops == 10
        assert stats.missing == 0


class TestIPCAttribution:
    def test_ipc_fraction_is_significant_on_baseline(self):
        """The Figure 1(a) motivation: a meaningful share of DB time
        is IPC mechanism time on seL4."""
        machine, kernel, transport, ct = build_transport(
            TRANSPORT_SPECS[0], mem_bytes=256 * 1024 * 1024)
        server, fs, disk = build_fs_stack(transport, kernel,
                                          disk_blocks=4096)
        db = Database(fs)
        driver = YCSBDriver(db, records=20, fields=1, field_size=40)
        driver.load()
        start_cycles = machine.core0.cycles
        start_ipc = transport.ipc_cycles
        driver.run("A", ops=15)
        total = machine.core0.cycles - start_cycles
        ipc = transport.ipc_cycles - start_ipc
        assert 0 < ipc < total
        assert ipc / total > 0.10   # paper: 18-39%

    def test_xpc_shrinks_the_ipc_fraction(self):
        fractions = {}
        for spec in (TRANSPORT_SPECS[0], TRANSPORT_SPECS[2]):
            machine, kernel, transport, ct = build_transport(
                spec, mem_bytes=256 * 1024 * 1024)
            server, fs, disk = build_fs_stack(transport, kernel,
                                              disk_blocks=4096)
            db = Database(fs)
            driver = YCSBDriver(db, records=20, fields=1, field_size=40)
            driver.load()
            c0, i0 = machine.core0.cycles, transport.ipc_cycles
            driver.run("A", ops=15)
            fractions[spec[0]] = ((transport.ipc_cycles - i0)
                                  / (machine.core0.cycles - c0))
        assert fractions["seL4-XPC"] < fractions["seL4-twocopy"]


class TestFaultInjectionAcrossTheStack:
    def test_killed_server_fails_calls_not_clients(self):
        machine, kernel, transport, ct = build_transport(
            TRANSPORT_SPECS[2], mem_bytes=256 * 1024 * 1024)
        victim = kernel.create_process("victim")
        vthread = kernel.create_thread(victim)
        sid = transport.register("victim", lambda m, p: ((0,), None),
                                 victim, vthread)
        transport.call(sid, (), b"")        # works while alive
        kernel.kill_process(victim, lazy=False)
        with pytest.raises(Exception):
            transport.call(sid, (), b"")
        # The client thread itself is fine and other services work.
        echo_proc = kernel.create_process("echo")
        echo_thread = kernel.create_thread(echo_proc)
        sid2 = transport.register("echo",
                                  lambda m, p: ((0,), p.read()),
                                  echo_proc, echo_thread)
        assert transport.call(sid2, (), b"alive")[1] == b"alive"

    def test_disk_crash_is_contained_by_the_log(self):
        machine, kernel, transport, ct = build_transport(
            TRANSPORT_SPECS[2], mem_bytes=256 * 1024 * 1024)
        server, fs, disk = build_fs_stack(transport, kernel,
                                          disk_blocks=4096)
        fs.create("/a")
        fs.write("/a", b"committed state")
        with faults.active(device_crash(3)):
            try:
                fs.write("/a", b"X" * 40000)
            except Exception:
                pass
        server.cache.invalidate()
        recovered = server.fs.log.recover()
        data = fs.read("/a")
        # Either the old state or a fully applied prefix transaction —
        # never a half-written log install.
        assert data[:9] in (b"committed", b"XXXXXXXXX")
