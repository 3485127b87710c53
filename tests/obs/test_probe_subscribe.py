"""``repro.probe`` subscription: scoped rebuilds, order and replacement."""

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
