"""Host-cost guard: Python-level calls per op of the fs/net chains.

Counts the ``"call"`` events ``sys.setprofile`` sees while a
``fig7_world`` (seL4-XPC, fs and net two-server chains) runs 20 rounds
of the ``fs_net_chain`` benchmark's op mix: per round, a write, a
read-back and a net ping-pong for each of 4,096, 512, 8,192 and 2,048
bytes, the writes at offset ``512 * slot``, the pings capped at 1,400
bytes.  That is 240 ops.  The payloads are built before the window
opens.

The count is deterministic — it does not depend on timing, load or
``PYTHONHASHSEED`` — so the ceiling is the achieved count, taken in a
fresh interpreter.  A change that adds host work to the chains fails
here; one that removes work should lower :data:`CALLS_FOR_20_ROUNDS`
to match.
"""

import gc
import random
import sys

from repro.snap.scenarios import fig7_world

SIZES = (4096, 512, 8192, 2048)
STRIDE = 512
NET_MAX = 1400
ROUNDS = 20
#: Achieved Python-level calls for the 240 ops (381.4 per op), plus
#: the one call that runs them.
CALLS_FOR_20_ROUNDS = 91_536
#: Allowance for interpreter differences (3.12 inlines comprehensions,
#: which only lowers the count), over the whole measurement.
SLACK = 500


def _rounds(world, payloads):
    fs, net = world.fs, world.net
    results = []
    for k, data in enumerate(payloads):
        off = (k % len(SIZES)) * STRIDE
        msg = data[:NET_MAX]
        wrote = fs.write("/data", data, off)
        got = fs.read("/data", off, len(data))
        sent = net.send(world.cli_sock, msg)
        echoed = net.recv(world.srv_sock, len(msg))
        results.append((wrote, got, sent, echoed))
    return results


def test_fs_net_chain_call_budget():
    world, _ops = fig7_world()
    world.fs.create("/data")
    rng = random.Random(0)
    payloads = [rng.randbytes(size) for _ in range(ROUNDS)
                for size in SIZES]
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
        results = _rounds(world, payloads)
    finally:
        sys.setprofile(previous)
        gc.enable()
    shadow = bytearray()
    for k, ((wrote, got, sent, echoed), data) in enumerate(
            zip(results, payloads)):
        off = (k % len(SIZES)) * STRIDE
        end = off + len(data)
        shadow.extend(bytes(max(0, end - len(shadow))))
        shadow[off:end] = data
        msg = data[:NET_MAX]
        assert wrote == len(data) and got == shadow[off:end]
        assert sent == len(msg) and echoed == msg
    assert calls <= CALLS_FOR_20_ROUNDS + SLACK, (
        f"{calls} Python calls for {len(payloads) * 3} ops, "
        f"budget {CALLS_FOR_20_ROUNDS}")
