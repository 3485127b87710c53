"""Every allocator belongs to the world it numbers.

Koids come from the kernel, ASIDs from the machine's memory and TCP
initial sequence numbers from the network stack, so a world's numbers
depend on nothing outside it: two worlds built alike are identical, and
a restore replays exactly what the original run did next, whatever ran
in between.
"""

import pytest

from repro.hw.machine import Machine
from repro.hw.memory import PhysicalMemory
from repro.hw.paging import AddressSpace
from repro.kernel.kernel import BaseKernel
from repro.proptest.executors import default_executor_factories
from repro.proptest.gen import generate
from repro.services.net.stack import NetStack
from repro.snap import capture, live_fingerprint, restore
from repro.snap.scenarios import SCENARIOS, fig7_world
from repro.snap.world import ExecutorWorld
from repro.zircon import ZirconKernel


class NewConnection:
    """Listen on a fresh port, connect to it and accept."""

    def __call__(self, world):
        net = world.net
        listener = net.socket()
        net.listen(listener, 8080)
        client = net.socket()
        net.connect(client, 8080)
        return ("accepted", net.accept(listener))


def test_replay_across_a_new_tcp_connection_is_byte_identical():
    world, _ = fig7_world()
    snap = capture(world)
    world.step(NewConnection())
    straight = live_fingerprint(world)

    replayed = restore(snap)
    replayed.step(NewConnection())
    assert replayed.outcomes == world.outcomes
    assert live_fingerprint(replayed) == straight


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_built_twice_fingerprints_alike(name):
    first, ops = SCENARIOS[name]()
    first.run(ops)
    second, _ = SCENARIOS[name]()
    second.run(ops)
    assert live_fingerprint(second) == live_fingerprint(first)


ROSTER = default_executor_factories()


@pytest.mark.parametrize("index", range(len(ROSTER)),
                         ids=[name for name, _ in ROSTER])
def test_executor_world_built_twice_fingerprints_alike(index):
    _, factory = ROSTER[index]
    ops = list(generate((0, 3, 7)[index % 3]).ops)
    first = ExecutorWorld.build(factory)
    first.run(ops)
    second = ExecutorWorld.build(factory)
    second.run(ops)
    assert second.outcomes == first.outcomes
    assert live_fingerprint(second) == live_fingerprint(first)


def test_each_kernel_numbers_its_own_objects():
    for _ in range(2):
        kernel = BaseKernel(Machine(cores=1, mem_bytes=4 * 1024 * 1024))
        process = kernel.create_process("p")
        thread = kernel.create_thread(process)
        assert (process.koid, thread.koid) == (1, 2)
        assert process.aspace.asid == 1


def test_zircon_channel_ends_draw_their_kernels_koids():
    for _ in range(2):
        kernel = ZirconKernel(Machine(cores=1, mem_bytes=4 * 1024 * 1024))
        a = kernel.create_process("a")
        b = kernel.create_process("b")
        ha, hb = kernel.create_channel(a, b)
        ends = (kernel.handle_table(a).get(ha),
                kernel.handle_table(b).get(hb))
        assert [end.koid for end in ends] == [3, 4]


def test_each_memory_numbers_its_own_address_spaces():
    for _ in range(2):
        mem = PhysicalMemory(4 * 1024 * 1024)
        assert [AddressSpace(mem).asid for _ in range(3)] == [1, 2, 3]


def test_each_net_stack_numbers_its_own_connections():
    for _ in range(2):
        stack = NetStack(transport=None, netdev_sid=0)
        socks = [stack.socket() for _ in range(2)]
        assert [stack._tcb(s).snd_nxt for s in socks] == [65000, 129000]
