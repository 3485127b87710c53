"""Boundary suite pinning the TLB's observable contract.

Every step of every trace has an explicit expected result: lookups
return exactly the translation the contract says, and the hit, miss
and flush counters move exactly as it says.  The randomized traces
check against the contract written as the simplest possible model.

The traces target the corners the fuzz tier rarely reaches: tagged vs
untagged flush/shootdown interleavings, capacity-eviction order with
LRU refresh-on-hit, and the untagged mode's ASID-blind shootdowns.
"""

import random

import pytest

from repro.fastcore.tables import PAGE_BYTES
from repro.hw.memory import PAGE_SHIFT
from repro.hw.paging import PagePerm
from repro.hw.tlb import TLB

PAGE = 1 << PAGE_SHIFT
IMPLS = [TLB]     # test ids name the model under test
PERM = PagePerm.RW


def test_page_geometry_agrees():
    """fastcore duplicates the page size by design (layering); it must
    track the hw layer's value."""
    assert PAGE_BYTES == PAGE


def _stats(tlb):
    s = tlb.stats
    return (s.hits, s.misses, s.flushes)


def _run_trace(tlb, ops):
    """Drive one op trace; return every observable (results + stats)."""
    out = []
    for op in ops:
        name, args = op[0], op[1:]
        if name == "lookup":
            out.append(("lookup", args, tlb.lookup(*args)))
        elif name == "insert":
            tlb.insert(*args)
        elif name == "invalidate":
            tlb.invalidate(*args)
        elif name == "flush_all":
            tlb.flush_all()
        elif name == "flush_asid":
            tlb.flush_asid(*args)
        else:
            raise AssertionError(name)
        out.append(("stats", _stats(tlb)))
    return out


def _expected_trace(ops, tagged, entries, ways):
    """The TLB contract as a model: per set, a list of keys in LRU
    order (oldest first); the key ignores the ASID when untagged."""
    sets = [[] for _ in range(entries // ways)]
    values = {}
    hits = misses = flushes = 0
    out = []
    for op in ops:
        name, args = op[0], op[1:]
        if name in ("lookup", "insert", "invalidate"):
            vpn = args[0] >> PAGE_SHIFT
            lru = sets[vpn % len(sets)]
            key = (args[1] if tagged else 0, vpn)
        if name == "lookup":
            if key in lru:
                lru.remove(key)
                lru.append(key)
                hits += 1
                out.append(("lookup", args, values[key]))
            else:
                misses += 1
                out.append(("lookup", args, None))
        elif name == "insert":
            if key in lru:
                lru.remove(key)
            elif len(lru) >= ways:
                lru.pop(0)
            lru.append(key)
            values[key] = (args[2], args[3])
        elif name == "invalidate":
            if key in lru:
                lru.remove(key)
        else:
            asid = args[0] if name == "flush_asid" and tagged else None
            for lru in sets:
                lru[:] = [k for k in lru
                          if asid is not None and k[0] != asid]
            flushes += 1
        out.append(("stats", (hits, misses, flushes)))
    return out


def _lookups(tlb, ops):
    """Drive one op trace; return what each lookup returned."""
    return [entry[2] for entry in _run_trace(tlb, ops)
            if entry[0] == "lookup"]


#: A hand-picked flush/shootdown interleaving and, per mode, what each
#: of its lookups must return.
SHOOTDOWN_OPS = [
    ("insert", 0 * PAGE, 1, 100, PERM),
    ("insert", 1 * PAGE, 1, 101, PERM),
    ("insert", 1 * PAGE, 2, 201, PERM),     # same vpn, other ASID
    ("lookup", 1 * PAGE, 1),
    ("lookup", 1 * PAGE, 2),
    ("invalidate", 1 * PAGE, 2),            # shootdown one ASID
    ("lookup", 1 * PAGE, 1),   # tagged: survives; untagged: gone
    ("lookup", 1 * PAGE, 2),
    ("flush_asid", 1),         # tagged: partial; untagged: full
    ("lookup", 0 * PAGE, 1),
    ("lookup", 1 * PAGE, 2),
    ("insert", 2 * PAGE, 3, 302, PERM),
    ("flush_all",),
    ("lookup", 2 * PAGE, 3),
]
SHOOTDOWN_EXPECTED = {
    # Untagged: the second insert of vpn 1 overwrote the first.
    False: ([(201, PERM), (201, PERM), None, None, None, None, None],
            (2, 5, 2)),
    True: ([(101, PERM), (201, PERM), (101, PERM), None, None, None,
            None], (3, 4, 2)),
}


@pytest.mark.parametrize("tagged", [False, True])
def test_flush_shootdown_interleavings_match(tagged):
    """Hand-picked flush/shootdown interleaving, both modes: every
    lookup and the final counters are exactly as expected."""
    tlb = TLB(entries=16, ways=4, tagged=tagged)
    lookups = _lookups(tlb, SHOOTDOWN_OPS)
    assert (lookups, _stats(tlb)) == SHOOTDOWN_EXPECTED[tagged]


def test_untagged_mode_is_asid_blind():
    """Untagged: inserts and shootdowns ignore the ASID argument."""
    tlb = TLB(tagged=False)
    tlb.insert(4 * PAGE, 7, 40, PERM)
    assert tlb.lookup(4 * PAGE, 9) == (40, PERM)   # other ASID hits
    tlb.invalidate(4 * PAGE, 3)                    # any ASID evicts
    assert tlb.lookup(4 * PAGE, 7) is None
    # flush_asid degenerates to a full flush.
    tlb.insert(5 * PAGE, 1, 50, PERM)
    tlb.flush_asid(2)
    assert tlb.lookup(5 * PAGE, 1) is None
    assert tlb.stats.flushes == 1


def test_tagged_flush_asid_is_selective():
    """Tagged: flush_asid drops exactly that ASID's translations."""
    tlb = TLB(tagged=True)
    tlb.insert(0 * PAGE, 1, 10, PERM)
    tlb.insert(1 * PAGE, 2, 21, PERM)
    tlb.flush_asid(1)
    assert tlb.lookup(0 * PAGE, 1) is None
    assert tlb.lookup(1 * PAGE, 2) == (21, PERM)
    assert tlb.stats.flushes == 1


@pytest.mark.parametrize("cls", IMPLS)
def test_capacity_eviction_is_lru(cls):
    """A full set evicts its oldest way; a hit refreshes recency and
    redirects the eviction to the new oldest entry."""
    tlb = cls(entries=4, ways=2, tagged=False)   # 2 sets of 2 ways
    stride = tlb.sets * PAGE                     # same-set conflicts
    a, b, c = 0 * stride, 1 * stride, 2 * stride
    tlb.insert(a, 0, 1, PERM)
    tlb.insert(b, 0, 2, PERM)
    tlb.insert(c, 0, 3, PERM)                    # evicts a (oldest)
    assert tlb.lookup(a, 0) is None
    assert tlb.lookup(b, 0) == (2, PERM)
    assert tlb.lookup(c, 0) == (3, PERM)
    # The hits above refreshed b then c, so b is now the oldest way.
    d = 3 * stride
    tlb.insert(d, 0, 4, PERM)
    assert tlb.lookup(b, 0) is None
    assert tlb.lookup(c, 0) == (3, PERM)
    # Re-inserting an existing key refreshes it rather than duplicating.
    tlb.insert(c, 0, 5, PERM)
    tlb.insert(a, 0, 1, PERM)                    # evicts d, not c
    assert tlb.lookup(d, 0) is None
    assert tlb.lookup(c, 0) == (5, PERM)


@pytest.mark.parametrize("tagged", [False, True])
def test_randomized_traces_match(tagged):
    """Seeded random op soup over a tiny TLB: every step observes what
    the contract model predicts."""
    rng = random.Random(0xB0D1 + tagged)
    for _ in range(20):
        ops = []
        for _ in range(200):
            va = rng.randrange(8) * PAGE
            asid = rng.randrange(3)
            roll = rng.random()
            if roll < 0.45:
                ops.append(("lookup", va, asid))
            elif roll < 0.80:
                ops.append(("insert", va, asid, rng.randrange(100), PERM))
            elif roll < 0.90:
                ops.append(("invalidate", va, asid))
            elif roll < 0.96:
                ops.append(("flush_asid", asid))
            else:
                ops.append(("flush_all",))
        tlb = TLB(entries=8, ways=2, tagged=tagged)
        assert _run_trace(tlb, ops) == _expected_trace(ops, tagged, 8, 2)


@pytest.mark.parametrize("cls", IMPLS)
def test_stats_surface(cls):
    """The stat surface exposes the derived readings."""
    tlb = cls(entries=8, ways=2)
    assert tlb.stats.hit_rate == 0.0
    tlb.insert(0, 0, 9, PERM)
    tlb.lookup(0, 0)
    tlb.lookup(PAGE, 0)
    assert (tlb.stats.hits, tlb.stats.misses) == (1, 1)
    assert tlb.stats.accesses == 2
    assert tlb.stats.hit_rate == 0.5
