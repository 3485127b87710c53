"""The layering rule's fastcore edges: the two cores never meet.

The fast/reference diff is only evidence while the implementations are
independent; this suite proves the forbidden-edge table fires on both
edges (reference → fastcore and fastcore → anything-but-params) and
stays quiet on the sanctioned consumer.
"""

import pathlib
import textwrap

from repro.verify import lint_source
from repro.verify.rules.layering import LayeringRule


def lint(source, modname):
    return lint_source(textwrap.dedent(source), modname,
                       [LayeringRule()])


#: The tempting shortcut: the engine "reuses" a precomputed sum, and
#: the op-by-op cycle diff silently becomes a tautology.
REFERENCE_BUG = """\
    from repro.fastcore import cycle_table

    def xcall_cost(self):
        return cycle_table().xcall
"""

#: The reverse rot: the "flat re-implementation" delegates to the
#: engine it is supposed to be diffed against.
FASTCORE_BUG = """\
    from repro.xpc.engine import XPCEngine

    def xcall(self, entry_id):
        return XPCEngine.invoke(self, entry_id)
"""


class TestFastcoreDisciplineRule:
    def test_reference_importing_fastcore_is_flagged(self):
        for unit in ("xpc.engine", "hw.cpu", "kernel.kernel",
                     "runtime.xpclib", "ipc.xpc_transport"):
            violations = lint(REFERENCE_BUG, f"repro.{unit}")
            assert len(violations) == 1, unit
            assert violations[0].rule == "layering"
            assert "fastcore" in violations[0].message

    def test_fastcore_importing_the_engine_is_flagged(self):
        violations = lint(FASTCORE_BUG, "repro.fastcore.tables")
        assert len(violations) == 1
        assert "repro.xpc" in violations[0].message

    def test_plain_import_form_is_flagged_too(self):
        violations = lint("import repro.kernel.kernel\n",
                          "repro.fastcore.structs")
        assert len(violations) == 1

    def test_fastcore_may_import_params_and_itself(self):
        assert lint("from repro.params import DEFAULT_PARAMS\n"
                    "from repro.fastcore.tables import CycleTable\n",
                    "repro.fastcore.structs") == []

    def test_sanctioned_consumers_are_not_in_scope(self):
        assert lint(REFERENCE_BUG, "repro.proptest.fastexec") == []

    def test_units_without_a_fastcore_edge_are_flagged(self):
        for unit in ("aio.pool", "cluster.loadgen"):
            violations = lint(REFERENCE_BUG, f"repro.{unit}")
            assert [v.line for v in violations] == [1], unit

    def test_type_checking_imports_are_exempt(self):
        assert lint(
            "from typing import TYPE_CHECKING\n"
            "if TYPE_CHECKING:\n"
            "    from repro.fastcore import CycleTable\n",
            "repro.xpc.engine") == []

    def test_pragma_suppresses(self):
        assert lint(
            "from repro.fastcore import cycle_table"
            "  # verify-ok: layering\n",
            "repro.xpc.engine") == []

    def test_real_fastcore_modules_pass(self):
        base = pathlib.Path("src/repro/fastcore")
        for path in sorted(base.glob("*.py")):
            modname = f"repro.fastcore.{path.stem}".replace(
                ".__init__", "")
            assert lint_source(path.read_text(), modname,
                               [LayeringRule()]) == [], path
