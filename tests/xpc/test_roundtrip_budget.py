"""Host-cost guard: Python-level calls per xcall/xret echo round trip.

Counts the ``"call"`` events ``sys.setprofile`` sees while 200 echo
round trips go through ``XPCTransport.call`` → ``xpc_call`` →
``XPCEngine.xcall`` → trampoline → handler → ``xret`` (the
``xcall_echo`` benchmark's path, handler included).  The count is
deterministic — it does not depend on timing or load — so the ceiling
is the achieved count.  Nothing on the path uses a construct whose call
count differs between the supported interpreters (comprehensions, which
3.12 inlines; ``enum.Flag`` arithmetic, which is pure Python), which is
what lets the slack stay at one call.

A change that adds a frame to the round trip fails here; one that
removes frames should lower :data:`CALLS_PER_ROUND_TRIP` to match.
"""

import gc
import sys

from repro.hw.machine import Machine
from repro.ipc.xpc_transport import XPCTransport
from repro.kernel.kernel import BaseKernel

#: Achieved Python-level calls per echo round trip (75 before the
#: round trip's host-cost rework).
CALLS_PER_ROUND_TRIP = 44
#: Allowance for interpreter differences, over the whole measurement.
SLACK = 1
ROUND_TRIPS = 200
SIZES = (16, 64, 256, 64, 1024, 16, 4096, 256, 64, 512)


def _echo(meta, payload):
    data = payload.read(meta[1])
    return ("ok", len(data)), data


def _echo_system():
    machine = Machine(cores=1, mem_bytes=64 * 1024 * 1024)
    kernel = BaseKernel(machine)
    client = kernel.create_thread(kernel.create_process("client"))
    kernel.run_thread(machine.core0, client)
    transport = XPCTransport(kernel, machine.core0, client,
                             partial_context=True)
    server = kernel.create_process("echo")
    sid = transport.register("echo", _echo, server,
                             kernel.create_thread(server))
    transport.grant_to_thread(sid, client)
    return transport, sid


def _count_calls(call, sid, payloads) -> int:
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    # A collection inside the window would count the finalizers it
    # runs (say, a suspended generator in an earlier test's garbage).
    gc.collect()
    previous = sys.getprofile()
    gc.disable()
    sys.setprofile(profiler)
    try:
        for i in range(ROUND_TRIPS):
            data = payloads[i % len(payloads)]
            call(sid, ("echo", len(data)), data, reply_capacity=len(data))
    finally:
        sys.setprofile(previous)
        gc.enable()
    return calls


def test_echo_round_trip_call_budget():
    transport, sid = _echo_system()
    payloads = [bytes([i]) * size for i, size in enumerate(SIZES)]
    # Warm up: first calls build the relay segment and fill caches.
    for data in payloads:
        meta, reply = transport.call(sid, ("echo", len(data)), data,
                                     reply_capacity=len(data))
        assert reply == data
    calls = _count_calls(transport.call, sid, payloads)
    assert calls <= ROUND_TRIPS * CALLS_PER_ROUND_TRIP + SLACK, (
        f"{calls / ROUND_TRIPS:.2f} Python calls per round trip, "
        f"budget {CALLS_PER_ROUND_TRIP}")
