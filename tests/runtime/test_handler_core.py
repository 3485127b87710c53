"""``BaseKernel.handler_core``: handler dispatch records the core a
handler runs on, so service code charges — and calls onward from — the
core that executed the ``xcall`` with no per-pool or per-handler
wiring."""

import pytest

from repro.aio import WorkerPool
from repro.binder import BinderDriver
from repro.binder.parcel import Parcel
from repro.hw.machine import Machine
from repro.kernel.kernel import BaseKernel
from tests.conftest import TRANSPORT_SPECS, build_transport, make_server


def build_xpc(cores=3):
    return build_transport(TRANSPORT_SPECS[2],
                           mem_bytes=256 * 1024 * 1024, cores=cores)


def test_plain_pool_handler_calls_onward_from_the_worker_core():
    """No pool option: the onward call of a drained handler is a nested
    call on the worker core, staged through swapseg, and the client's
    home core never runs."""
    machine, kernel, transport, _ct = build_xpc()
    proc, thread = make_server(kernel, "inner")
    inner_sid = transport.register(
        "inner", lambda meta, payload: (("in",), payload.read()[::-1]),
        proc, thread)

    def outer(meta, payload):
        _meta, data = transport.call(inner_sid, ("fwd",), payload.read(),
                                     reply_capacity=64)
        return (0,), data

    worker_core = machine.cores[2]
    pool = WorkerPool(kernel, outer, [worker_core])
    transport.grant_to_thread(
        inner_sid, pool.workers[0].supervisor.thread("aio-w0"))
    client_core = transport.core
    client_before = client_core.cycles
    swaps_before = worker_core.xpc_engine.stats.swapsegs
    futures = [pool.submit(("req", i), f"pay{i}".encode(),
                           reply_capacity=64) for i in range(5)]
    results = pool.wait_all(futures)
    assert [data for _, data in results] == [
        f"pay{i}".encode()[::-1] for i in range(5)]
    assert worker_core.xpc_engine.stats.swapsegs - swaps_before >= 10
    assert client_core.cycles == client_before
    assert kernel.handler_core is None


def test_nested_handlers_see_their_core_and_restore_the_outer_one():
    machine, kernel, transport, _ct = build_xpc()
    seen = []

    def inner(meta, payload):
        seen.append(("inner", kernel.handler_core))
        return (0,), None

    proc, thread = make_server(kernel, "inner")
    inner_sid = transport.register("inner", inner, proc, thread)

    def outer(meta, payload):
        seen.append(("outer-before", kernel.handler_core))
        transport.call(inner_sid)
        seen.append(("outer-after", kernel.handler_core))
        return (0,), None

    proc, thread = make_server(kernel, "outer")
    outer_sid = transport.register("outer", outer, proc, thread)
    transport.grant_to_thread(inner_sid, thread)
    assert kernel.handler_core is None
    transport.call(outer_sid)
    core = transport.core
    assert seen == [("outer-before", core), ("inner", core),
                    ("outer-after", core)]
    assert kernel.handler_core is None
    assert transport.current_core is core


def test_a_failing_handler_restores_the_handler_core():
    machine, kernel, transport, _ct = build_xpc()

    def boom(meta, payload):
        raise RuntimeError("handler failed")

    proc, thread = make_server(kernel, "boom")
    sid = transport.register("boom", boom, proc, thread)
    with pytest.raises(RuntimeError):
        transport.call(sid)
    assert kernel.handler_core is None


def test_baseline_binder_dispatch_records_the_transaction_core():
    machine = Machine(cores=2, mem_bytes=64 * 1024 * 1024)
    kernel = BaseKernel(machine, "linux")
    driver = BinderDriver(kernel)
    server_proc, server_thread = make_server(kernel, "server")
    client_proc, client_thread = make_server(kernel, "client")
    seen = []

    def on_transact(code, data):
        seen.append(kernel.handler_core)
        return Parcel()

    handle = driver.register_node(server_proc, server_thread, on_transact)
    core0, core1 = machine.cores
    kernel.run_thread(core0, client_thread)
    driver.transact(core0, client_thread, handle, 1, Parcel())
    driver.transact_oneway(core0, client_thread, handle, 2, Parcel())
    assert driver.deliver_async(core1, handle) == 1
    assert seen == [core0, core1]
    assert kernel.handler_core is None
