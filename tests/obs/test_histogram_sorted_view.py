"""Histogram percentiles through the incrementally sorted view.

``Histogram.percentile`` keeps a sorted copy of its samples and extends
it with each query's new samples instead of re-sorting everything.  The
answer must stay exactly what :func:`repro.analysis.stats.percentile`
gives over the retained samples — or, for a bucketed histogram whose
ring has evicted, the bucket estimate — under any interleaving of
observations and queries, and snapshots must not see the view.
"""

from hypothesis import given, settings, strategies as st

from repro.analysis.stats import percentile as oracle
from repro.obs.registry import Histogram
from repro.snap import capture, live_fingerprint, restore
from repro.snap.fingerprint import fingerprint
from repro.snap.world import SimWorld

BOUNDS = [10.0, 50.0, 100.0, 500.0]

values = st.one_of(
    st.integers(min_value=-1000, max_value=10 ** 6),
    st.floats(min_value=-1000, max_value=1000, allow_nan=False,
              allow_infinity=False))
percentiles = st.floats(min_value=0, max_value=100, allow_nan=False)

#: ("observe", value) or ("query", p) steps.
scripts = st.lists(
    st.one_of(st.tuples(st.just("observe"), values),
              st.tuples(st.just("query"), percentiles)),
    max_size=80)


def expected(hist: Histogram, p: float) -> float:
    if hist.bucket_bounds is not None and hist.count > len(hist.samples):
        return hist.bucket_percentile(p)
    return oracle(hist.samples, p)


def drive(hist: Histogram, script) -> None:
    for kind, arg in script:
        if kind == "observe":
            hist.observe(arg)
        elif hist.count:
            assert hist.percentile(arg) == expected(hist, arg)


@given(script=scripts, capacity=st.sampled_from([1, 3, 8, 1000]),
       bucketed=st.booleans())
@settings(max_examples=200, deadline=None)
def test_interleavings_match_the_oracle(script, capacity, bucketed):
    hist = Histogram("lat", capacity=capacity,
                     buckets=BOUNDS if bucketed else None)
    drive(hist, script)
    if hist.count:
        for p in (0.0, 50.0, 99.0, 100.0):
            assert hist.percentile(p) == expected(hist, p)


def test_view_is_dropped_once_the_ring_evicts():
    hist = Histogram("lat", capacity=4)
    for v in (5, 1, 4, 2):
        hist.observe(v)
    assert hist.percentile(50) == oracle([5, 1, 4, 2], 50)
    hist.observe(100)                    # evicts the 5
    assert hist.percentile(50) == oracle([100, 1, 4, 2], 50)
    hist.observe(0)                      # evicts the 1
    assert hist.percentile(0) == 0
    assert hist.percentile(100) == 100


def test_equal_int_and_float_samples_keep_oracle_order():
    hist = Histogram("lat")
    for v in (1.0, 1, 2, 1.0):
        hist.observe(v)
        for p in (0, 33.3, 50, 66.7, 100):
            got = hist.percentile(p)
            want = oracle(hist.samples, p)
            assert got == want and type(got) is type(want)


def _observe_all(world, values):
    for v in values:
        world.hist.observe(v)


def test_capture_restore_mid_stream_matches_on_both_lineages():
    # 43 samples before the capture, 49 after: the ring evicts on both
    # lineages after the restore.
    world = SimWorld(hist=Histogram("lat", capacity=45, buckets=BOUNDS))
    _observe_all(world, range(0, 300, 7))
    world.hist.percentile(99)            # the view now exists
    snap = capture(world)
    revived = restore(snap)
    assert live_fingerprint(revived) == snap.fingerprint
    tail = [3, 999, 42, 42, 1, 77]
    for lineage in (world, revived):
        _observe_all(lineage, tail)
    for p in (0, 50, 90, 99, 100):
        assert world.hist.percentile(p) == revived.hist.percentile(p)
    assert live_fingerprint(world) == live_fingerprint(revived)


def test_fingerprint_ignores_which_percentiles_were_read():
    queried, untouched = Histogram("lat"), Histogram("lat")
    for v in (9, 3, 7):
        queried.observe(v)
        untouched.observe(v)
    queried.percentile(50)
    assert fingerprint(queried) == fingerprint(untouched)
