"""The encapsulation rule's cluster row: nodes are machine boundaries."""

import textwrap

from repro.verify import lint_source
from repro.verify.rules.encapsulation import EncapsulationRule


def lint(source, modname):
    return lint_source(textwrap.dedent(source), modname,
                       [EncapsulationRule()])


SEEDED_BUG = """\
    def dispatch_fast(self, home, meta, payload):
        # Tempting shortcut: run the remote request directly on the
        # home node's kernel — teleports across the machine boundary
        # with no serialization, wire, or partition charge.
        proc = home.kernel.create_process("cheat")
        return home.kernel.create_thread(proc)
"""


class TestClusterDisciplineRule:
    def test_seeded_bug_in_fabric_is_flagged(self):
        violations = lint(SEEDED_BUG, "repro.cluster.fabric")
        assert len(violations) >= 1
        assert all(v.rule == "encapsulation" for v in violations)
        assert "kernel" in violations[0].message

    def test_machine_access_in_naming_is_flagged(self):
        violations = lint(
            "def shortcut(node):\n"
            "    return node.machine.core0.cycles\n",
            "repro.cluster.naming")
        assert len(violations) == 1

    def test_chained_reference_is_flagged(self):
        violations = lint(
            "def creep(cluster, key):\n"
            "    return cluster.naming.home(key).kernel.processes\n",
            "repro.cluster.metrics")
        assert len(violations) == 1

    def test_sanctioned_modules_may_open_a_node(self):
        for leaf in ("node", "rpc", "serving"):
            assert lint(SEEDED_BUG, f"repro.cluster.{leaf}") == []

    def test_rule_is_scoped_to_the_cluster_unit(self):
        assert lint(SEEDED_BUG, "repro.aio.pool") == []
        assert lint(SEEDED_BUG, "repro.services.nameserver") == []

    def test_serving_surface_is_clean(self):
        violations = lint(
            "def route(node, meta, payload):\n"
            "    node.wait_until(1000)\n"
            "    return node.pool('kv').submit(meta, payload, 16)\n",
            "repro.cluster.fabric")
        assert violations == []

    def test_unrelated_kernel_attribute_is_clean(self):
        violations = lint(
            "def boot(self):\n"
            "    self.kernel_cls = None\n"
            "    return self.kernel_cls\n",
            "repro.cluster.fabric")
        assert violations == []

    def test_pragma_suppresses(self):
        violations = lint(
            "def peek(node):\n"
            "    return node.kernel  # verify-ok: encapsulation\n",
            "repro.cluster.fabric")
        assert violations == []

    def test_real_fabric_modules_pass(self):
        import pathlib
        base = pathlib.Path("src/repro/cluster")
        for leaf in ("fabric", "naming", "metrics", "loadgen",
                     "hashring"):
            source = (base / f"{leaf}.py").read_text()
            assert lint(source, f"repro.cluster.{leaf}") == [], leaf
