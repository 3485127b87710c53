"""``repro.probe`` subscription: scoped rebuilds, order and replacement,
and the tokens the span and frame sites hand back."""

import repro.obs as obs
import repro.probe as probe


def _tables():
    return {site: getattr(probe, site.upper()) for site in probe.SITES}


def test_subscribe_rebuilds_only_the_named_sites():
    before = _tables()

    def on_trap(core, cause):
        pass

    probe.subscribe("test-scoped", {"trap": on_trap})
    try:
        during = _tables()
        assert during["trap"] == before["trap"] + (on_trap,)
        for site in probe.SITES:
            if site != "trap":
                assert during[site] is before[site], site
    finally:
        probe.unsubscribe("test-scoped")
    after = _tables()
    assert after["trap"] == before["trap"]
    for site in probe.SITES:
        if site != "trap":
            assert after[site] is before[site], site


def test_first_dispatches_ahead_and_replacement_returns_previous():
    def late(point, action):
        pass

    def early(point, action):
        pass

    def replacement(point, action):
        pass

    base = probe.FAULT
    assert probe.subscribe("test-late", {"fault": late}) is None
    try:
        assert probe.subscribe("test-early", {"fault": early},
                               first=True) is None
        try:
            assert probe.FAULT == (early,) + base + (late,)
            prev = probe.subscribe("test-late", {"fault": replacement})
            assert prev == {"fault": late}
            assert probe.FAULT == (early,) + base + (replacement,)
        finally:
            probe.unsubscribe("test-early")
    finally:
        probe.unsubscribe("test-late")
    assert probe.FAULT == base


def test_replacing_a_subscriber_clears_sites_it_no_longer_names():
    def on_trap(core, cause):
        pass

    def on_xcall(core, record):
        pass

    trap, xcall = probe.TRAP, probe.XCALL
    probe.subscribe("test-swap", {"trap": on_trap})
    try:
        probe.subscribe("test-swap", {"xcall": on_xcall})
        assert probe.TRAP == trap
        assert probe.XCALL == xcall + (on_xcall,)
    finally:
        probe.unsubscribe("test-swap")
    assert (probe.TRAP, probe.XCALL) == (trap, xcall)


def test_inject_takes_the_first_action_and_announces_it():
    seen = []
    probe.subscribe("test-decline", {"inject": lambda point: None})
    probe.subscribe("test-act", {"inject": lambda point: {"n": 1}})
    probe.subscribe("test-second", {"inject": lambda point: {"n": 2}})
    probe.subscribe("test-log", {"fault": lambda point, action:
                                 seen.append((point, action))})
    try:
        assert probe.inject("test.point") == {"n": 1}
    finally:
        for key in ("test-decline", "test-act", "test-second", "test-log"):
            probe.unsubscribe(key)
    assert seen == [("test.point", {"n": 1})]
    assert probe.INJECT == ()
    assert probe.inject("test.point") is None


class _Core:
    def __init__(self, core_id=0, cycles=0):
        self.core_id = core_id
        self.cycles = cycles


def test_opening_sites_return_the_first_subscribers_token():
    core = _Core()
    assert probe.SPAN == probe.FRAME == ()
    assert probe.span(core, "s", "test") is None
    assert probe.frame(core, "f") is None
    seen = []
    probe.subscribe("test-quiet", {
        "span": lambda core, name, cat, **args: seen.append(name),
        "frame": lambda core, label: seen.append(label)})
    probe.subscribe("test-first", {"span": lambda *a, **k: "span-1",
                                   "frame": lambda core, label: 1})
    probe.subscribe("test-second", {"span": lambda *a, **k: "span-2",
                                    "frame": lambda core, label: 2})
    try:
        assert probe.span(core, "s", "test", sid=3) == "span-1"
        assert probe.frame(core, "f") == 1
    finally:
        for key in ("test-quiet", "test-first", "test-second"):
            probe.unsubscribe(key)
    assert seen == ["s", "f"]
    assert probe.SPAN == probe.FRAME == ()


def test_span_end_closes_what_its_token_opened_and_truncates_inside():
    core = _Core()
    session = obs.ObsSession(profile=True)
    with obs.active(session):
        outer = probe.span(core, "outer", "test")
        core.cycles = 10
        probe.span(core, "inner", "test")
        core.cycles = 25
        # The §4.2 repair shape: the outer scope ends while a frame
        # nested inside it never closes on its own.
        probe.span_end(core, outer)
    spans = {span.name: span for span in session.spans.spans}
    assert (spans["outer"].start, spans["outer"].end) == (0, 25)
    assert spans["inner"].args.get("truncated") is True
    assert session.spans.open_depth(core) == 0
    assert session.profiler.open_depth(core) == 0


def test_frame_end_closes_what_its_token_opened_and_truncates_inside():
    core = _Core()
    session = obs.ObsSession(profile=True)
    with obs.active(session):
        outer = probe.frame(core, "kernel:repair_return")
        inner = probe.frame(core, "inner")
        assert session.profiler.open_depth(core) == 2
        probe.frame_end(core, inner)
        assert session.profiler.open_depth(core) == 1
        probe.frame(core, "abandoned")
        probe.frame_end(core, outer)
        assert session.profiler.open_depth(core) == 0


def test_frame_sites_are_watched_only_when_profiling():
    with obs.active(obs.ObsSession()):
        assert probe.FRAME == probe.FRAME_END == ()
        assert probe.SPAN and probe.METRIC and probe.PMU
    with obs.active(obs.ObsSession(profile=True)):
        assert probe.FRAME and probe.FRAME_END and probe.TICK


def test_metric_without_a_session_creates_nothing():
    session = obs.ObsSession()
    probe.metric("counter", "test.orphan", 1, 5)
    probe.metric("histogram", "test.orphan_hist", 7, 5)
    assert len(session.registry) == 0
    with obs.active(session):
        probe.metric("counter", "test.orphan", 2, 5)
        probe.metric("gauge", "test.level", 4, 6)
        probe.metric("histogram", "test.orphan_hist", 7, 8)
    probe.metric("counter", "test.orphan", 1, 9)
    metrics = session.registry.as_dict()
    assert metrics["counters"]["test.orphan"]["value"] == 2
    assert metrics["gauges"]["test.level"]["value"] == 4
    assert metrics["histograms"]["test.orphan_hist"]["count"] == 1
    assert probe.METRIC == ()


def test_nested_sessions_restore_the_outer_one():
    outer, inner = obs.ObsSession(), obs.ObsSession()
    with obs.active(outer):
        probe.metric("counter", "test.n", 1, 0)
        with obs.active(inner):
            probe.metric("counter", "test.n", 1, 0)
        probe.metric("counter", "test.n", 1, 0)
    assert outer.registry.counter("test.n").value == 2
    assert inner.registry.counter("test.n").value == 1
    assert probe.METRIC == ()
