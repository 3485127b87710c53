"""Machine set-up goldens: DRAM contents and TLB fault order, by hash.

The hashes were recorded before the set-up path was made cheap (free
frames zeroed at free rather than at allocation, a host-side L2-table
cache in :class:`~repro.hw.paging.PageTable`, lazily created TLB and
cache sets).  Frame physical addresses decide cache sets and so cycles,
so any change in allocation order, in the bytes of an allocated frame,
or in when the TLB's ``hw.tlb.stale_entry`` point fires shows up here
as a hash mismatch.

* ``snap_page_table()`` of the machine's DRAM after the ``snap.scenarios``
  fig5 and fig7 ops, and after generated programs 0-19 on every
  executor of the differential roster whose machine has a ``memory``
  (the fast core has none);
* the :class:`~repro.faults.FaultPlan` trace JSON of a fig5 run with
  ``hw.tlb.stale_entry`` armed both by ``nth`` and by ``probability``,
  plus the core's cycle count and TLB statistics.  fig5's echo calls
  move their payload through relay-segment windows, which bypass the
  TLB (§3.3), so the run puts timed loads and stores to the client's
  own pages between the calls; every call switches address spaces and
  flushes the untagged TLB, so the touches miss, refill and hit.
"""

import hashlib
import json

import pytest

from repro.faults import FaultPlan
from repro.hw.memory import PAGE_SIZE
from repro.proptest.executors import default_executor_factories
from repro.proptest.gen import generate
from repro.snap.scenarios import SCENARIOS


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _page_view(memory) -> list:
    """Sorted ``[frame, sha256(page)]`` of every non-zero frame."""
    return [[frame, hashlib.sha256(page).hexdigest()]
            for frame, page in sorted(memory.snap_page_table().items())]


def memories(world: str) -> list:
    """``[(label, PhysicalMemory)]`` after running one world: the
    scenario's machine, or each roster executor's that has DRAM."""
    if world in SCENARIOS:
        state, ops = SCENARIOS[world]()
        for op in ops:
            state.step(op)
        return [(world, state.machine.memory)]
    program = generate(int(world.split(":")[1]))
    out = []
    for name, factory in default_executor_factories():
        executor = factory()
        executor.run(program)
        memory = getattr(executor.machine, "memory", None)
        if memory is not None:
            out.append((name, memory))
    return out


def page_views(world: str) -> list:
    """``[(label, page view)]`` for one world."""
    return [(label, _page_view(memory))
            for label, memory in memories(world)]


class TouchPages:
    """Timed stores then loads over *pages* client pages, twice."""

    def __init__(self, va: int, pages: int) -> None:
        self.va = va
        self.pages = pages

    def __call__(self, world):
        core = world.core
        for _ in range(2):
            for page in range(self.pages):
                va = self.va + page * PAGE_SIZE + 8 * page
                data = bytes([page % 255 + 1]) * 8
                core.mem_write(va, data)
                assert core.mem_read(va, 8) == data


def stale_tlb_trace() -> str:
    plan = (FaultPlan(seed=5)
            .arm("hw.tlb.stale_entry", nth=7)
            .arm("hw.tlb.stale_entry", probability=0.1, times=None))
    state, ops = SCENARIOS["fig5"]()
    pages = 300                     # more than the TLB's 256 entries
    touch = TouchPages(state.core.aspace.mmap(pages * PAGE_SIZE), pages)
    state.plan = plan
    for op in ops:
        state.step(op)
        state.step(touch)
    tlb = state.core.tlb.stats
    return plan.trace_json() + "\n" + json.dumps(
        [state.core.cycles, tlb.hits, tlb.misses, tlb.flushes])


WORLDS = ["fig5", "fig7"] + [f"program:{seed}" for seed in range(20)]

PAGE_GOLDEN = {
    'fig5': '95a5a1beb68c11d24f4e18af7a39f9bd0a993bbddfd4546d4580c542737a3e8a',
    'fig7': '4c5168a5520f3407f0405f0d047b0fc7607beba1c2d5c4e5c9f6a9b9f2dae1ae',
    'program:0': '630b3eb963a7a6ddff45010f8bb28da9a770d345b9f46526d7a3ce7801a15c7b',
    'program:1': 'fb294523f2ac346cf2941775cc5a6988b47dfe53e2256ec4244fdc219d29adcc',
    'program:2': 'd122dff280e49b25cf3e69cf57c369cc9770da994064a2b6a84e8609b7da3dfb',
    'program:3': 'c57d9985f772207cffecc0228ee6209b90f055c70d40ed67e7a5e4eae70700b3',
    'program:4': '71e173c328c0620a525883042fa3b1b6cda8827d7d94bbadb5f0abca3aa8f6cf',
    'program:5': '4a20fedf570e0aff7798909e3a5c690c6700eca2b366a0b6498bcc0fb631d405',
    'program:6': '1947925a4f5137d692205fe3029df7b30c633ae52f2d365a98e5f3874c1f3a3d',
    'program:7': '458c1f05c20556c08a0852f4721bb87925ec67d4979fe13810f93031bfe7ac88',
    'program:8': '720e24df97746dd5df5b5876d52fee95a457a059ca0f3dd862976a34d3d30d2c',
    'program:9': '63658a3fb5d804b72ab2d55ac049557af5623df454ad9876bed09c0ec0060e17',
    'program:10': '4e398a287d7ff61044aba088884657ef636f80e85bd11078b51aee2fa42369f8',
    'program:11': '01810ba92d213ebe872577396923b0dae2524521e1a5015c6fc0b756dee4601a',
    'program:12': 'b66afbe9e287c748c1427390a1c8ac73b74f45ce968e0ab025ffc51307af47cf',
    'program:13': 'd3fa3c750ac33af686af1d684911835b79c0671bf10e7bd2ba0f76b75d60aaa7',
    'program:14': '1d359f15f05e83c567580998a13cb265cd57738ffae14485740f146aa47d03d7',
    'program:15': 'b5ccfedd7b2351c98beba018e8f17bcf65bc6c3741001e78a498d13a10142129',
    'program:16': '4a239ea5de452860918d451ae6049846d721aa9c2f3bc1fb9c743c24867f339b',
    'program:17': '3d18f975b625021758183657626a1fab5d06c9dabbfe9fab35d183a0af5db234',
    'program:18': '722fab4f1c00f2876e7929bad5030449a62b8537d945f813e5129cb650b3477a',
    'program:19': '65565ba8988de9ab17a89ccec47599557e05ba0bb37c4e820647821e7c9ad24f',
}

TRACE_GOLDEN = '9855a0b26f6aa8f8443611709ec7ded5bbff5084be08263a317ff4d50201bf6a'


@pytest.mark.parametrize("world", WORLDS)
def test_dram_pages_match_golden(world):
    assert _sha(json.dumps(page_views(world))) == PAGE_GOLDEN[world]


def test_stale_tlb_fire_order_matches_golden():
    trace = stale_tlb_trace()
    assert '"point": "hw.tlb.stale_entry"' in trace    # it really fired
    assert _sha(trace) == TRACE_GOLDEN


if __name__ == "__main__":      # regenerate: python -m tests.hw.test_setup_goldens
    print("PAGE_GOLDEN = {")
    for w in WORLDS:
        print(f"    {w!r}: {_sha(json.dumps(page_views(w)))!r},")
    print("}")
    print(f"TRACE_GOLDEN = {_sha(stale_tlb_trace())!r}")
