"""Each dataflow analysis must catch its seeded bug — with a precise
file:line finding — and stay quiet on the equivalent sound code.

The seeded fixtures are the bug classes ISSUE/DESIGN name explicitly:
the early-return-skips-the-charge path a "tick appears somewhere"
check cannot see, the relay-seg handle escaping into ``repro.services``, and the
broad ``except`` that swallows a typed error and then mutates ring
state.
"""

import textwrap

from repro.verify.flow import (FlowChargeRule, FlowEscapeRule,
                               FlowExceptRule, flow_source)
from repro.verify.lint import parse_module


def flow(source, modname, rule, extra=None):
    return flow_source(textwrap.dedent(source), modname, [rule],
                       path=f"{modname}.py", extra_modules=extra)


def module(source, modname):
    return parse_module(textwrap.dedent(source), f"{modname}.py", modname)


# ----------------------------------------------------------------------
# flow-charge: every path charges or exits free
# ----------------------------------------------------------------------
CHARGE_SKIP = """\
class XPCEngine:
    def xcall(self, core, entry_id):
        if entry_id < 0:
            return -1
        core.tick(10)
        return entry_id
"""


class TestFlowCharge:
    def test_early_return_skipping_the_charge_is_caught(self):
        violations = flow(CHARGE_SKIP, "repro.xpc.engine",
                          FlowChargeRule())
        assert len(violations) == 1
        v = violations[0]
        assert v.rule == "flow-charge"
        assert v.path == "repro.xpc.engine.py"
        assert v.line == 4                      # the `return -1` line
        assert "without charging" in v.message

    def test_void_method_that_never_charges_is_caught(self):
        # No valued return to check, but no path charges either: the
        # forgotten charge is flagged at the def line.
        violations = flow("""\
            class XPCEngine:
                def flush(self, core):
                    self.pending = []
                    if core is None:
                        return
                    self.flushed = True
            """, "repro.xpc.engine", FlowChargeRule())
        assert [v.line for v in violations] == [2]
        assert "XPCEngine.flush" in violations[0].message
        assert "no path" in violations[0].message

    def test_helper_that_always_charges_makes_a_void_method_charge(self):
        violations = flow("""\
            class XPCEngine:
                def flush(self, core):
                    self._charge(core)

                def _charge(self, core):
                    core.tick(5)
            """, "repro.xpc.engine", FlowChargeRule())
        assert violations == []

    def test_bare_guard_return_is_a_free_exit(self):
        violations = flow("""\
            class XPCEngine:
                def xcall(self, core, entry_id):
                    if entry_id < 0:
                        return
                    core.tick(10)
                    return entry_id
            """, "repro.xpc.engine", FlowChargeRule())
        assert violations == []

    def test_raise_path_is_a_free_exit(self):
        violations = flow("""\
            class XPCEngine:
                def xcall(self, core, entry_id):
                    if entry_id < 0:
                        raise ValueError(entry_id)
                    core.tick(10)
                    return entry_id
            """, "repro.xpc.engine", FlowChargeRule())
        assert violations == []

    def test_charge_through_a_helper_counts(self):
        # Interprocedural summaries: _charge always ticks, so calling
        # it charges the path.
        violations = flow("""\
            class XPCEngine:
                def xcall(self, core, entry_id):
                    self._charge(core)
                    return entry_id

                def _charge(self, core):
                    core.tick(5)
            """, "repro.xpc.engine", FlowChargeRule())
        assert violations == []

    def test_conditionally_charging_helper_does_not_count(self):
        violations = flow("""\
            class XPCEngine:
                def xcall(self, core, entry_id):
                    self._maybe_charge(core, entry_id)
                    return entry_id

                def _maybe_charge(self, core, entry_id):
                    if entry_id > 0:
                        core.tick(5)
            """, "repro.xpc.engine", FlowChargeRule())
        assert [v.line for v in violations] == [4]

    def test_cost_provider_return_is_free(self):
        violations = flow("""\
            class XPCEngine:
                def xcall(self, core, entry_id):
                    return self.xcall_cycles(entry_id)
            """, "repro.xpc.engine", FlowChargeRule())
        assert violations == []

    def test_unlisted_class_is_out_of_scope(self):
        violations = flow(CHARGE_SKIP.replace("XPCEngine", "Helper"),
                          "repro.xpc.engine", FlowChargeRule())
        assert violations == []

    def test_pragma_suppresses_the_finding(self):
        violations = flow(CHARGE_SKIP.replace(
            "return -1", "return -1  # verify-ok: flow-charge"),
            "repro.xpc.engine", FlowChargeRule())
        assert violations == []


# ----------------------------------------------------------------------
# flow-escape: handles stay inside the trusted layers
# ----------------------------------------------------------------------
LEAKY_HELPER = """\
def fetch_seg(kernel, core, proc):
    seg, slot = kernel.create_relay_seg(core, proc, 4096)
    return seg
"""


class TestFlowEscape:
    def test_untrusted_code_minting_a_handle_is_caught(self):
        violations = flow("""\
            def steal(kernel, core, proc):
                seg, slot = kernel.create_relay_seg(core, proc, 4096)
                return seg
            """, "repro.services.evil", FlowEscapeRule())
        assert len(violations) == 1
        v = violations[0]
        assert v.rule == "flow-escape"
        assert v.path == "repro.services.evil.py"
        assert v.line == 2                      # the create_relay_seg call
        assert "create_relay_seg" in v.message

    def test_handle_returned_through_a_trusted_helper_is_caught(self):
        # Interprocedural: the helper lives in repro.ipc (trusted, so
        # minting there is fine) but its return taints the untrusted
        # caller.
        violations = flow("""\
            def grab(kernel, core, proc):
                seg = fetch_seg(kernel, core, proc)
                return seg
            """, "repro.services.evil", FlowEscapeRule(),
            extra=[module(LEAKY_HELPER, "repro.ipc.leaky")])
        assert [(v.path, v.line) for v in violations] == \
            [("repro.services.evil.py", 2)]
        assert "fetch_seg" in violations[0].message

    def test_trusted_code_passing_a_handle_down_is_caught(self):
        violations = flow("""\
            def hand_down(kernel, core, proc):
                seg, slot = kernel.create_relay_seg(core, proc, 4096)
                process_seg(seg)
            """, "repro.ipc.pusher", FlowEscapeRule(),
            extra=[module("""\
                def process_seg(seg):
                    return seg.length
                """, "repro.services.sink")])
        assert [(v.path, v.line) for v in violations] == \
            [("repro.ipc.pusher.py", 3)]
        assert "repro.services" in violations[0].message

    def test_trusted_layers_may_hold_handles(self):
        violations = flow(LEAKY_HELPER, "repro.kernel.segs",
                          FlowEscapeRule())
        assert violations == []

    def test_sanctioned_sink_receives_handles_from_anyone(self):
        violations = flow("""\
            def hand_down(kernel, core, proc):
                seg, slot = kernel.create_relay_seg(core, proc, 4096)
                kernel.install_relay_seg(core, proc, seg)
            """, "repro.ipc.pusher", FlowEscapeRule())
        assert violations == []

    def test_untrusted_window_use_is_fine(self):
        # Windows (SegReg views, ring attaches) are the sanctioned
        # currency for untrusted code — only raw handles are not.
        violations = flow("""\
            def serve(core, mem, window):
                ring = XPCRing.attach(core, mem, window)
                return ring.pop_sqe(core)
            """, "repro.services.fsrv", FlowEscapeRule())
        assert violations == []


# ----------------------------------------------------------------------
# flow-except: broad swallows followed by state mutation
# ----------------------------------------------------------------------
SWALLOW = """\
class Server:
    def drain(self, core, ring, sqe):
        try:
            self.handle(sqe)
        except Exception:
            pass
        ring.push_cqe(core, sqe.seq, 0, (), 0, 0)
"""


class TestFlowExcept:
    def test_swallow_then_mutate_is_caught(self):
        violations = flow(SWALLOW, "repro.aio.badserver",
                          FlowExceptRule())
        assert len(violations) == 1
        v = violations[0]
        assert v.rule == "flow-except"
        assert v.path == "repro.aio.badserver.py"
        assert v.line == 5                      # the `except` line
        assert "push_cqe" in v.message

    def test_reraising_handler_is_fine(self):
        violations = flow(SWALLOW.replace("pass", "raise"),
                          "repro.aio.badserver", FlowExceptRule())
        assert violations == []

    def test_handler_that_reads_the_exception_decided(self):
        violations = flow("""\
            class Server:
                def drain(self, core, ring, sqe):
                    try:
                        self.handle(sqe)
                    except Exception as exc:
                        self.log(exc)
                    ring.push_cqe(core, sqe.seq, 0, (), 0, 0)
            """, "repro.aio.badserver", FlowExceptRule())
        assert violations == []

    def test_narrow_handler_is_fine(self):
        violations = flow(SWALLOW.replace("Exception", "KeyError"),
                          "repro.aio.badserver", FlowExceptRule())
        assert violations == []

    def test_swallow_without_reachable_mutation_is_fine(self):
        violations = flow("""\
            class Server:
                def peek(self, sqe):
                    try:
                        return self.decode(sqe)
                    except Exception:
                        return None
            """, "repro.aio.badserver", FlowExceptRule())
        assert violations == []

    def test_units_outside_the_mechanism_layers_are_exempt(self):
        violations = flow(SWALLOW, "repro.services.fsrv",
                          FlowExceptRule())
        assert violations == []
