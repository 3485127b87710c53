"""The protocol model checker: exhaustive exploration of the real
``XPCEngine`` against the shadow model, plus seeded-bug detection."""

import pytest

import repro.probe as probe
from repro.verify.model import (
    CounterExample, ModelChecker, ModelConfig, op_str,
)
from repro.xpc.engine import XPCEngine
from repro.xpc.errors import XPCError
from repro.xpc.relayseg import NO_MASK


SMALL = ModelConfig(threads=1, entries=1,
                    initial_grants=((0, 0),),
                    grant_ops=(), revoke_ops=((0, 0),))


def leaky_swapseg_mutator(world):
    """Seed the classic relay-seg double-owner bug: a ``swapseg`` with
    no owner guard that also leaves the parked window in its seg-list
    slot, so a second ``swapseg`` maps the same segment again."""

    def bad_swapseg(self, index):
        state = self._require_state()
        window = state.seg_list.peek(index)
        outgoing = state.seg_reg
        if outgoing.valid:
            outgoing.segment.active_owner = None
            state.seg_list.store(index, outgoing)
        if window is not None:
            window.segment.active_owner = self.current_thread
            state.seg_reg = window
        state.seg_mask = NO_MASK
        if probe.SWAPSEG:
            probe.swapseg(self.core, index)
        self.core.tick(self.params.swapseg)

    for engine in world.machine.engines:
        engine.swapseg = bad_swapseg.__get__(engine, XPCEngine)


def no_pop_mutator(world):
    """Seed a LIFO bug: an ``xret`` that peeks the link stack and
    never pops it."""

    def bad_xret(self):
        state = self._require_state()
        record = state.link_stack.peek()      # peek, never pop!
        if record is None:
            raise XPCError("link stack empty")
        self.core.set_address_space(record.caller_aspace)
        state.cap_bitmap = record.caller_state
        state.seg_reg = record.seg_reg
        state.seg_mask = record.seg_mask
        self.core.tick(self.params.xret_base)
        return record

    for engine in world.machine.engines:
        engine.xret = bad_xret.__get__(engine, XPCEngine)


class TestExhaustiveExploration:
    def test_small_config_is_clean(self):
        result = ModelChecker(SMALL).explore()
        assert result.ok
        assert result.counterexamples == []
        assert result.states > 1
        assert result.transitions > result.states

    def test_default_two_thread_two_entry_config_is_clean(self):
        """The acceptance configuration: 2 threads x 2 x-entries,
        call/ret/swapseg/grant/revoke interleavings, fully exhausted."""
        result = ModelChecker(ModelConfig()).explore()
        assert result.ok, "\n".join(
            ce.report() for ce in result.counterexamples)
        assert result.states >= 100       # genuinely explored, not stuck
        assert result.transitions >= 1000

    def test_exploration_is_deterministic(self):
        a = ModelChecker(SMALL).explore()
        b = ModelChecker(SMALL).explore()
        assert (a.states, a.transitions) == (b.states, b.transitions)

    def test_max_depth_bounds_the_walk(self):
        shallow = ModelChecker(SMALL).explore(max_depth=1)
        full = ModelChecker(SMALL).explore()
        assert shallow.transitions < full.transitions

    def test_max_states_guard_trips(self):
        cfg = ModelConfig(max_states=2)
        with pytest.raises(RuntimeError, match="max_states"):
            ModelChecker(cfg).explore()


class TestReplayDeterminism:
    def test_same_path_same_fingerprint(self):
        checker = ModelChecker(SMALL)
        path = (("swapseg", 0, 0),)
        w1, s1, _ = checker.replay(path)
        w2, s2, _ = checker.replay(path)
        assert (checker.fingerprint(w1, s1)
                == checker.fingerprint(w2, s2))

    def test_replay_with_trace_yields_events(self):
        checker = ModelChecker(SMALL)
        _, _, tracer = checker.replay((("swapseg", 0, 0),), trace=True)
        assert tracer is not None
        assert [e.kind for e in tracer.events].count("swapseg") == 1


class TestSeededBugs:
    def test_double_owner_is_caught(self):
        cfg = ModelConfig(world_mutator=leaky_swapseg_mutator)
        result = ModelChecker(cfg).explore(stop_on_first=True)
        assert not result.ok
        ce = result.counterexamples[0]
        assert any(v.invariant == "single-owner" for v in ce.violations)
        # BFS gives a *minimal* counterexample: two swapsegs suffice.
        assert len(ce.path) == 2
        assert all(op[0] == "swapseg" for op in ce.path)

    def test_counterexample_is_replayable(self):
        cfg = ModelConfig(world_mutator=leaky_swapseg_mutator)
        result = ModelChecker(cfg).explore(stop_on_first=True)
        ce = result.counterexamples[0]
        report = ce.report()
        assert "single-owner" in report
        for i in range(1, len(ce.path) + 1):
            assert f"{i}." in report      # numbered event sequence
        # The replay trace (repro.probe.EventLog) is embedded.
        assert "swapseg" in ce.trace_text

    def test_lifo_bug_is_caught(self):
        """Strip xret's pop and the LIFO invariant must fire."""
        cfg = ModelConfig(world_mutator=no_pop_mutator)
        result = ModelChecker(cfg).explore(stop_on_first=True)
        assert not result.ok
        ce = result.counterexamples[0]
        assert any(v.invariant == "link-stack-lifo"
                   for v in ce.violations)


class TestOpVocabulary:
    def test_enumerate_ops_covers_all_kinds(self):
        ops = ModelChecker(ModelConfig()).enumerate_ops()
        kinds = {op[0] for op in ops}
        assert {"xcall", "xret", "swapseg", "grant", "revoke"} <= kinds

    def test_op_str_is_readable(self):
        assert "t0" in op_str(("xcall", 0, 1))
        assert "swapseg" in op_str(("swapseg", 1, 0))
