"""Boundary suite pinning the XPC engine cache's contract.

These tests are the contract of ``repro.xpc.engine_cache``: the exact
hit/miss/evict/flush behavior over a real :class:`XEntryTable`, the
exact counters, and — because the cache's whole purpose is the 12-cycle
x-entry load it saves — the measured xcall cycle charge with and
without it must differ by exactly ``xentry_load``, on both the engine
and the fast-core tables.
"""

import pytest

from repro.fastcore import cycle_table
from repro.hw.memory import PhysicalMemory
from repro.hw.paging import AddressSpace
from repro.params import DEFAULT_PARAMS
from repro.xpc.engine_cache import XPCEngineCache
from repro.xpc.entry import XEntryTable

IMPLS = [XPCEngineCache]     # test ids name the model under test


@pytest.fixture
def table():
    return XEntryTable(16)


@pytest.fixture
def aspace():
    return AddressSpace(PhysicalMemory(16 * 1024 * 1024))


def handler(*args):
    return "handled"


def _counters(cache):
    return (cache.hits, cache.misses)


@pytest.mark.parametrize("cls", IMPLS)
def test_miss_then_prefetch_then_hit(cls, table, aspace):
    entry = table.register(aspace, handler, None)
    cache = cls(table)
    assert cache.lookup(entry.entry_id) is None
    assert _counters(cache) == (0, 1)
    cache.prefetch(entry.entry_id)
    assert cache.lookup(entry.entry_id) is entry
    assert _counters(cache) == (1, 1)


@pytest.mark.parametrize("cls", IMPLS)
def test_conflict_prefetch_replaces_line(cls, table, aspace):
    """With one line, every id maps to it: a second prefetch evicts the
    first, and the displaced id misses again."""
    first = table.register(aspace, handler, None)
    second = table.register(aspace, handler, None)
    cache = cls(table, entries=1)
    cache.prefetch(first.entry_id)
    cache.prefetch(second.entry_id)
    assert cache.lookup(second.entry_id) is second
    assert cache.lookup(first.entry_id) is None
    assert _counters(cache) == (1, 1)


@pytest.mark.parametrize("cls", IMPLS)
def test_evict_is_id_precise(cls, table, aspace):
    """Evicting an id the line does not hold is a no-op — the kernel's
    shootdown after a table update must not collateral-evict whatever
    replaced the target."""
    cached = table.register(aspace, handler, None)
    other = table.register(aspace, handler, None)
    cache = cls(table, entries=1)
    cache.prefetch(cached.entry_id)
    cache.evict(other.entry_id)              # different id: no-op
    assert cache.lookup(cached.entry_id) is cached
    cache.evict(cached.entry_id)             # matching id: drops it
    assert cache.lookup(cached.entry_id) is None


@pytest.mark.parametrize("cls", IMPLS)
def test_invalidated_entry_misses(cls, table, aspace):
    """A cached x-entry whose table slot was removed goes stale: the
    lookup sees ``valid == False`` and counts a miss (the engine then
    falls back to a checked table load, which traps)."""
    entry = table.register(aspace, handler, None)
    cache = cls(table)
    cache.prefetch(entry.entry_id)
    table.remove(entry.entry_id)
    assert cache.lookup(entry.entry_id) is None
    assert _counters(cache) == (0, 1)


@pytest.mark.parametrize("cls", IMPLS)
def test_tagged_lines_are_thread_private(cls, table, aspace):
    """Tagged mode (§6.1): a line prefetched by thread A is invisible
    to thread B — the timing side channel is closed."""
    entry = table.register(aspace, handler, None)
    cache = cls(table, tagged=True)
    thread_a, thread_b = object(), object()
    cache.prefetch(entry.entry_id, thread=thread_a)
    assert cache.lookup(entry.entry_id, thread=thread_b) is None
    assert cache.lookup(entry.entry_id, thread=thread_a) is entry
    assert _counters(cache) == (1, 1)


@pytest.mark.parametrize("cls", IMPLS)
def test_flush_clears_every_line(cls, table, aspace):
    entries = [table.register(aspace, handler, None) for _ in range(3)]
    cache = cls(table, entries=4)
    for entry in entries:
        cache.prefetch(entry.entry_id)
    cache.flush()
    for entry in entries:
        assert cache.lookup(entry.entry_id) is None


def test_trace_equivalence(table, aspace):
    """One interleaved prefetch/lookup/evict/flush trace over a
    two-line cache: every lookup and the final counters are exactly as
    expected.  Consecutive ids alternate lines, so ids[0]/ids[2] and
    ids[1]/ids[3] conflict."""
    entries = [table.register(aspace, handler, None) for _ in range(4)]
    ids = [entry.entry_id for entry in entries]
    cache = XPCEngineCache(table, entries=2)
    trace = [("lookup", ids[0], None),          # cold miss
             ("prefetch", ids[0]),
             ("lookup", ids[0], entries[0]),
             ("prefetch", ids[2]),              # replaces ids[0]
             ("lookup", ids[0], None),
             ("lookup", ids[2], entries[2]),
             ("evict", ids[2]),
             ("lookup", ids[2], None),
             ("prefetch", ids[1]), ("prefetch", ids[3]),
             ("flush",),
             ("lookup", ids[1], None), ("lookup", ids[3], None)]
    for op in trace:
        if op[0] == "lookup":
            assert cache.lookup(op[1]) is op[2], op
        elif op[0] == "prefetch":
            cache.prefetch(op[1])
        elif op[0] == "evict":
            cache.evict(op[1])
        else:
            cache.flush()
    assert _counters(cache) == (2, 5)


def test_hit_saves_exactly_the_xentry_load():
    """The cycle contract, charged and tabulated: enabling the engine
    cache removes exactly ``xentry_load`` cycles from the one-way path
    — measured on a real machine, and mirrored by the fast tables."""
    from repro.hw.machine import Machine
    from repro.kernel.kernel import BaseKernel
    from repro.runtime.xpclib import XPCService, xpc_call
    from repro.xpc.engine import XPCConfig

    def roundtrip(cache: bool) -> int:
        machine = Machine(cores=1, mem_bytes=64 * 1024 * 1024,
                          xpc_config=XPCConfig(engine_cache=cache))
        kernel = BaseKernel(machine)
        core = machine.core0
        server = kernel.create_process("server")
        client = kernel.create_process("client")
        st = kernel.create_thread(server)
        ct = kernel.create_thread(client)
        kernel.run_thread(core, st)
        service = XPCService(kernel, core, st, lambda call: None)
        kernel.grant_xcall_cap(core, server, ct, service.entry_id)
        kernel.run_thread(core, ct)
        if cache:
            machine.engines[0].prefetch(service.entry_id)
        start = core.cycles
        xpc_call(core, service.entry_id)
        return core.cycles - start

    load = DEFAULT_PARAMS.xentry_load - DEFAULT_PARAMS.xentry_cache_hit
    assert roundtrip(False) - roundtrip(True) == load
    assert (cycle_table(cache=False).xentry
            - cycle_table(cache=True).xentry) == load
    assert (cycle_table(cache=False).roundtrip()
            - cycle_table(cache=True).roundtrip()) == load
