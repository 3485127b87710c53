"""Each lint rule must fire on a deliberately-broken fixture and stay
quiet on the equivalent well-formed code."""

import textwrap

import pytest

from repro.verify import lint_source
from repro.verify.flow import FlowChargeRule, flow_source
from repro.verify.rules.encapsulation import EncapsulationRule
from repro.verify.rules.errors import ErrorDisciplineRule
from repro.verify.rules.layering import LayeringRule
from repro.verify.rules.state import StateMutationRule


def lint(source, modname, rule):
    return lint_source(textwrap.dedent(source), modname, [rule])


def charge(source, modname):
    return flow_source(textwrap.dedent(source), modname, [FlowChargeRule()])


# ----------------------------------------------------------------------
# layering
# ----------------------------------------------------------------------
#: Every import form that reaches the proptest oracle.
ORACLE_IMPORTS = [
    "import repro.proptest.oracle\n",
    "from repro.proptest import oracle\n",
    "from . import oracle\n",
    "from .oracle import Oracle\n",
]

#: Observer imports the probe surface replaces: (importer, statement,
#: the forbidden target the violation must name).
OBSERVER_IMPORTS = [
    ("repro.hw.cpu", "import repro.obs as obs\n", "repro.obs"),
    ("repro.hw.machine", "from repro.san import SanSession\n",
     "repro.san"),
    ("repro.xpc.engine", "from repro import san\n", "repro.san"),
    ("repro.xpc.engine", "from ..obs import ObsSession\n", "repro.obs"),
    ("repro.xpc.linkstack", "from repro.analysis import render_table\n",
     "repro.analysis"),
    ("repro.kernel.kernel", "import repro.san as san\n", "repro.san"),
    ("repro.ipc.xpc_transport", "from repro.san import SanSession\n",
     "repro.san"),
    ("repro.aio.ring", "from ..san import SanSession\n", "repro.san"),
    ("repro.runtime.xpclib", "import repro.san\n", "repro.san"),
    ("repro.probe", "import repro.obs\n", "repro.obs"),
]

#: Edges the probe surface is built from.
PROBE_IMPORTS = [
    ("repro.hw.cpu", "import repro.probe as probe\n"),
    ("repro.xpc.engine", "import repro.probe as probe\n"),
    ("repro.faults", "import repro.probe as probe\n"),
    ("repro.san", "import repro.probe as probe\n"),
    ("repro.kernel.kernel", "import repro.probe as probe\n"),
]

#: The two ways to reach an ObsSession, checked across the layer map.
OBS_IMPORTS = ["import repro.obs\n", "from repro.obs import ObsSession\n"]


class TestLayeringRule:
    def test_hw_may_not_import_xpc(self):
        violations = lint(
            "from repro.xpc.engine import XPCEngine\n",
            "repro.hw.cpu", LayeringRule())
        assert len(violations) == 1
        assert violations[0].rule == "layering"
        assert "repro.xpc" in violations[0].message

    def test_hw_may_not_import_kernel(self):
        violations = lint(
            "import repro.kernel.kernel\n",
            "repro.hw.machine", LayeringRule())
        assert violations and violations[0].rule == "layering"

    def test_xpc_may_import_hw(self):
        violations = lint(
            "from repro.hw.cpu import Core\n",
            "repro.xpc.engine", LayeringRule())
        assert violations == []

    def test_glue_may_not_reach_hw_internals(self):
        violations = lint(
            "from repro.hw.tlb import TLB\n",
            "repro.binder.driver", LayeringRule())
        assert len(violations) == 1
        assert "internal" in violations[0].message

    def test_glue_may_use_hw_public_surface(self):
        violations = lint(
            "from repro.hw.cpu import Core\n"
            "from repro.hw.machine import Machine\n",
            "repro.sel4.kernel", LayeringRule())
        assert violations == []

    def test_private_cross_package_import(self):
        violations = lint(
            "from repro.hw.cache import _TagArray\n",
            "repro.kernel.kernel", LayeringRule())
        assert len(violations) == 1
        assert "_TagArray" in violations[0].message

    def test_type_checking_imports_exempt(self):
        violations = lint(
            """\
            from typing import TYPE_CHECKING
            if TYPE_CHECKING:
                from repro.xpc.engine import XPCEngine
            """,
            "repro.hw.machine", LayeringRule())
        assert violations == []

    def test_pragma_suppresses(self):
        violations = lint(
            "from repro.xpc.engine import XPCEngine"
            "  # verify-ok: layering\n",
            "repro.hw.machine", LayeringRule())
        assert violations == []

    def test_unknown_unit_is_a_violation(self):
        violations = lint(
            "import os\nfrom repro.mystery import thing\n",
            "repro.kernel.kernel", LayeringRule())
        assert len(violations) == 1          # stdlib is fine, mystery not
        assert "mystery" in violations[0].message

    def test_relative_imports_are_resolved(self):
        violations = lint(
            "from . import tlb\nfrom ..xpc.engine import XPCEngine\n",
            "repro.hw.cpu", LayeringRule())
        assert [v.line for v in violations] == [2]
        assert "repro.xpc" in violations[0].message

    @pytest.mark.parametrize("stmt", ORACLE_IMPORTS)
    @pytest.mark.parametrize("leaf", ["executors", "gen", "fastexec"])
    def test_mechanism_side_may_not_import_the_oracle(self, leaf, stmt):
        violations = lint("import os\n" + stmt,
                          f"repro.proptest.{leaf}", LayeringRule())
        assert [v.line for v in violations] == [2]
        assert "repro.proptest.oracle" in violations[0].message

    @pytest.mark.parametrize("stmt", ORACLE_IMPORTS)
    def test_harness_may_import_the_oracle(self, stmt):
        assert lint(stmt, "repro.proptest.harness", LayeringRule()) == []

    @pytest.mark.parametrize("importer,stmt,target", OBSERVER_IMPORTS)
    def test_observers_are_reached_only_through_the_probe(
            self, importer, stmt, target):
        violations = lint("import os\n" + stmt, importer, LayeringRule())
        assert [v.line for v in violations] == [2]
        assert target in violations[0].message

    @pytest.mark.parametrize("importer,stmt", PROBE_IMPORTS)
    def test_probe_edges_are_allowed(self, importer, stmt):
        assert lint(stmt, importer, LayeringRule()) == []

    @pytest.mark.parametrize("stmt", OBS_IMPORTS)
    @pytest.mark.parametrize("importer", [
        "repro.kernel.kernel", "repro.aio.pool", "repro.services.nameserver",
    ])
    def test_machine_may_not_import_obs(self, importer, stmt):
        violations = lint("import os\n" + stmt, importer, LayeringRule())
        assert [v.line for v in violations] == [2]
        assert "repro.obs" in violations[0].message
        assert "repro.probe only" in violations[0].message

    @pytest.mark.parametrize("stmt", OBS_IMPORTS)
    @pytest.mark.parametrize("importer", [
        "repro.proptest.harness", "repro.snap.world", "repro.prof.sentry",
        "repro.cluster.fabric",
    ])
    def test_drivers_may_import_obs(self, importer, stmt):
        assert lint(stmt, importer, LayeringRule()) == []


# ----------------------------------------------------------------------
# cycle accounting (checked by the flow-charge analysis)
# ----------------------------------------------------------------------
class TestCycleAccountingRule:
    def test_engine_method_must_charge(self):
        violations = charge(
            """\
            class XPCEngine:
                def xcall(self, entry_id):
                    return entry_id
            """,
            "repro.xpc.engine")
        assert len(violations) == 1
        assert "xcall" in violations[0].message

    def test_tick_satisfies_the_rule(self):
        violations = charge(
            """\
            class XPCEngine:
                def xcall(self, entry_id):
                    self.core.tick(10)
                    return entry_id
            """,
            "repro.xpc.engine")
        assert violations == []

    def test_free_listed_methods_exempt(self):
        violations = charge(
            """\
            class XPCEngine:
                def bind(self, thread, state):
                    self.state = state
            """,
            "repro.xpc.engine")
        assert violations == []

    def test_passive_model_must_not_tick(self):
        violations = charge(
            """\
            class TLB:
                def lookup(self, core, va):
                    core.tick(1)
            """,
            "repro.hw.tlb")
        assert len(violations) == 1
        assert "passive" in violations[0].message


# ----------------------------------------------------------------------
# error discipline
# ----------------------------------------------------------------------
class TestErrorDisciplineRule:
    def test_bare_exception_forbidden_in_xpc(self):
        violations = lint(
            """\
            def xcall(entry_id):
                raise RuntimeError("nope")
            """,
            "repro.xpc.engine", ErrorDisciplineRule())
        assert len(violations) == 1
        assert "RuntimeError" in violations[0].message

    def test_xpc_error_subclass_allowed(self):
        violations = lint(
            """\
            from repro.xpc.errors import XPCError

            def xcall(entry_id):
                raise XPCError("bad entry")
            """,
            "repro.xpc.engine", ErrorDisciplineRule())
        assert violations == []

    def test_local_subclass_allowed(self):
        violations = lint(
            """\
            from repro.xpc.errors import XPCError

            class WeirdError(XPCError):
                pass

            def f():
                raise WeirdError()
            """,
            "repro.xpc.relayseg", ErrorDisciplineRule())
        assert violations == []

    def test_rule_scoped_to_xpc_package(self):
        violations = lint(
            "def f():\n    raise RuntimeError('fine here')\n",
            "repro.kernel.kernel", ErrorDisciplineRule())
        assert violations == []


# ----------------------------------------------------------------------
# state mutation
# ----------------------------------------------------------------------
class TestStateMutationRule:
    def test_glue_may_not_write_seg_reg(self):
        violations = lint(
            """\
            def hijack(thread, window):
                thread.xpc.seg_reg = window
            """,
            "repro.binder.xpcglue", StateMutationRule())
        assert len(violations) == 1
        assert "seg_reg" in violations[0].message

    def test_glue_may_not_write_active_owner(self):
        violations = lint(
            "def f(seg, thread):\n    seg.active_owner = thread\n",
            "repro.ipc.xpc_transport", StateMutationRule())
        assert len(violations) == 1

    def test_kernel_may_write(self):
        violations = lint(
            """\
            def install(thread, window):
                thread.xpc.seg_reg = window
            """,
            "repro.kernel.kernel", StateMutationRule())
        assert violations == []

    def test_engine_may_write(self):
        violations = lint(
            "def f(state, w):\n    state.seg_reg = w\n",
            "repro.xpc.engine", StateMutationRule())
        assert violations == []

    def test_self_attributes_exempt(self):
        violations = lint(
            """\
            class SegReg:
                def __init__(self):
                    self.seg_reg = None
            """,
            "repro.services.fs", StateMutationRule())
        assert violations == []

    @pytest.mark.parametrize("stmt", [
        "t.link_stack[0][1] = 1",
        "a, *t.seg_reg = data",
        "for t.seg_reg in data: pass",
        "with data as t.seg_reg: pass",
        "del t.seg_reg",
    ])
    def test_every_write_form_flagged(self, stmt):
        violations = lint(f"def f(t, data):\n    {stmt}\n",
                          "repro.ipc.xpc_transport", StateMutationRule())
        assert [v.line for v in violations] == [2]


# ----------------------------------------------------------------------
# encapsulation: the obs row
# ----------------------------------------------------------------------
class TestObsDisciplineRule:
    def test_direct_counter_value_write_forbidden(self):
        violations = lint(
            """\
            import repro.obs as obs

            def f():
                obs.ACTIVE.registry.counter("x").value += 1
            """,
            "repro.kernel.kernel", EncapsulationRule())
        assert len(violations) == 1
        assert violations[0].rule == "encapsulation"
        assert "value" in violations[0].message

    def test_write_through_alias_forbidden(self):
        violations = lint(
            """\
            import repro.obs as obs

            def f():
                registry = obs.ACTIVE.registry
                registry.counter("x").value = 5
            """,
            "repro.runtime.xpclib", EncapsulationRule())
        assert len(violations) == 1

    def test_container_rebind_forbidden(self):
        violations = lint(
            "def f(session):\n    session.banks = {}\n",
            "repro.services.fs.server", EncapsulationRule())
        assert len(violations) == 1
        assert "container" in violations[0].message

    def test_tuple_unpacking_target_caught(self):
        violations = lint(
            """\
            import repro.obs as obs

            def f():
                a, obs.ACTIVE.pmu.thing = 1, 2
            """,
            "repro.ipc.xpc_transport", EncapsulationRule())
        assert len(violations) == 1

    @pytest.mark.parametrize("stmt", [
        "reg.counters['a']['b'] = 1",
        "a, *reg.counters = data",
        "for reg.counters in data: pass",
        "with data as reg.counters: pass",
        "del reg.counters",
    ])
    def test_every_write_form_flagged(self, stmt):
        violations = lint(f"def f(reg, data):\n    {stmt}\n",
                          "repro.kernel.kernel", EncapsulationRule())
        assert [v.line for v in violations] == [2]

    def test_reading_and_api_calls_allowed(self):
        violations = lint(
            """\
            import repro.obs as obs

            def f(core):
                if obs.ACTIVE is not None:
                    registry = obs.ACTIVE.registry
                    registry.counter("x").inc(cycle=core.cycles)
                    obs.ACTIVE.pmu.add(core, "cycles.xcall.captest", 6)
                    depth = obs.ACTIVE.spans.open_depth(0)
            """,
            "repro.kernel.kernel", EncapsulationRule())
        assert violations == []

    def test_repro_obs_itself_exempt(self):
        violations = lint(
            "def f(self):\n    self.banks = {}\n",
            "repro.obs.pmu", EncapsulationRule())
        assert violations == []

    def test_pragma_suppresses(self):
        violations = lint(
            """\
            import repro.obs as obs

            def f():
                obs.ACTIVE.registry.counter("x").value = 0  # verify-ok: encapsulation
            """,
            "repro.tools.bench", EncapsulationRule())
        assert violations == []


# ----------------------------------------------------------------------
# encapsulation: the aio row
# ----------------------------------------------------------------------
class TestAioDisciplineRule:
    def test_private_ring_method_call_flagged(self):
        violations = lint(
            """\
            def f(ring, core, data):
                ring._store(0, data)
            """,
            "repro.services.fs.server", EncapsulationRule())
        assert len(violations) == 1
        assert violations[0].rule == "encapsulation"
        assert "_store" in violations[0].message

    def test_index_attribute_write_flagged(self):
        violations = lint(
            "def f(ring):\n    ring.sq_head = 7\n",
            "repro.runtime.xpclib", EncapsulationRule())
        assert len(violations) == 1
        assert "sq_head" in violations[0].message

    def test_chained_write_through_ring_reference_flagged(self):
        violations = lint(
            """\
            def f(self):
                self.ring.header.entries = 0
            """,
            "repro.kernel.kernel", EncapsulationRule())
        assert len(violations) == 1
        assert "entries" in violations[0].message

    def test_augmented_index_write_flagged(self):
        violations = lint(
            "def f(worker):\n    worker.batcher.ring.cq_tail += 1\n",
            "repro.services.net.server", EncapsulationRule())
        assert len(violations) == 1

    def test_repro_aio_itself_exempt(self):
        violations = lint(
            "def f(self):\n    self.sq_head = 0\n    self._store(0, b'')\n",
            "repro.aio.ring", EncapsulationRule())
        assert violations == []

    def test_holding_a_ring_reference_is_legal(self):
        violations = lint(
            """\
            def f(self, core, ring):
                self.ring = ring
                seq = ring.push_sqe(core, ("m",), b"")
                cqe = ring.pop_cqe(core)
                depth = ring.sq_tail - ring.sq_head
            """,
            "repro.services.fs.server", EncapsulationRule())
        assert violations == []

    def test_generic_entries_attribute_not_claimed(self):
        violations = lint(
            "def f(self):\n    self.entries = []\n",
            "repro.kernel.kernel", EncapsulationRule())
        assert violations == []

    def test_pragma_suppresses(self):
        violations = lint(
            """\
            def f(ring):
                ring.sq_head = 0  # verify-ok: encapsulation
            """,
            "repro.tools.bench", EncapsulationRule())
        assert violations == []

    @pytest.mark.parametrize("stmt", [
        "x.ring.slots[0][1] = 1",
        "a, *x.ring.entries = data",
        "for x.ring.entries in data: pass",
        "with data as x.ring.entries: pass",
        "del x.ring.entries",
        "y = [0 for x.ring.entries in data]",
    ])
    def test_every_write_form_flagged(self, stmt):
        violations = lint(f"def f(x, data):\n    {stmt}\n",
                          "repro.kernel.kernel", EncapsulationRule())
        assert [v.line for v in violations] == [2]
