"""Host-cost guard: Python-level calls per x-entry registration.

Counts the ``"call"`` events ``sys.setprofile`` sees while one
``XPCTransport.register`` installs an 8-context service into a fresh
process: the library pre-creates every context's 16 KB C-stack (§4.2)
and the kernel registers the x-entry.  The stacks are mapped with one
page-table call that writes each run of pages under one L2 table as a
single PTE store, so the count no longer grows with the number of
pages.  It is deterministic; nothing on the path uses a comprehension
or ``enum.Flag`` arithmetic, whose call counts differ between the
supported interpreters.
"""

import gc
import sys

from repro.hw.machine import Machine
from repro.ipc.xpc_transport import XPCTransport
from repro.kernel.kernel import BaseKernel

#: Achieved Python-level calls per 8-context registration (361 when
#: every stack page took its own frame allocation and ``map`` call).
CALLS_PER_REGISTRATION = 75
#: Allowance for interpreter differences.
SLACK = 5


def _noop(meta, payload):
    return ("ok",), b""


def _count_register(max_contexts: int) -> int:
    machine = Machine(cores=1, mem_bytes=64 * 1024 * 1024)
    kernel = BaseKernel(machine)
    client = kernel.create_thread(kernel.create_process("client"))
    kernel.run_thread(machine.core0, client)
    transport = XPCTransport(kernel, machine.core0, client,
                             max_contexts=max_contexts)
    server = kernel.create_process("svc")
    thread = kernel.create_thread(server)
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
        sid = transport.register("svc", _noop, server, thread)
    finally:
        sys.setprofile(previous)
        gc.enable()
    service = transport._xpc_services[sid]
    assert len(service.contexts) == max_contexts
    assert server.aspace.page_table.mapped_pages == 4 * max_contexts
    return calls


def test_register_call_budget():
    calls = _count_register(8)
    assert calls <= CALLS_PER_REGISTRATION + SLACK, (
        f"{calls} Python calls per registration, "
        f"budget {CALLS_PER_REGISTRATION}")


def test_more_contexts_cost_one_call_each():
    """Within one L2 table, each extra context costs only its
    ``XPCContext`` construction: its four stack pages join the run."""
    assert _count_register(32) - _count_register(8) == 24
