"""Seeded-bug tests for the ``snap-discipline`` lint rule.

Each case injects a synthetic module and checks that the rule flags
exactly the drift it exists for: a ``self.X = ...`` the class's
``__snap_state__`` tuple never declared.
"""

import textwrap

import pytest

from repro.verify import lint_source
from repro.verify.rules import SnapDisciplineRule


def _lint(source, modname="repro.fixture"):
    return lint_source(textwrap.dedent(source), modname,
                       [SnapDisciplineRule()])


def test_complete_declaration_is_clean():
    assert _lint("""
        class Clean:
            __snap_state__ = ("a", "b")

            def __init__(self):
                self.a = 1
                self.b, self.a = 2, 3
    """) == []


def test_undeclared_attribute_is_flagged():
    violations = _lint("""
        class Drifted:
            __snap_state__ = ("a",)

            def __init__(self):
                self.a = 1

            def grow(self):
                self.stray = 2
    """)
    assert len(violations) == 1
    assert violations[0].rule == "snap-discipline"
    assert "Drifted.stray" in violations[0].message
    assert violations[0].line == 9


def test_base_extension_idiom_resolves_in_module():
    assert _lint("""
        class Base:
            __snap_state__ = ("a",)

            def __init__(self):
                self.a = 1

        class Child(Base):
            __snap_state__ = Base.__snap_state__ + ("b",)

            def __init__(self):
                super().__init__()
                self.a = 0
                self.b = 2
    """) == []


def test_child_missing_its_own_attribute_is_flagged():
    violations = _lint("""
        class Base:
            __snap_state__ = ("a",)

        class Child(Base):
            __snap_state__ = Base.__snap_state__ + ("b",)

            def __init__(self):
                self.a = 1
                self.b = 2
                self.c = 3
    """)
    assert [v.message.split(" ")[0] for v in violations] == ["Child.c"]


@pytest.mark.parametrize("stmt", [
    "a, *self.stray = data",
    "for self.stray in data: pass",
    "with data as self.stray: pass",
])
def test_every_binding_form_is_flagged(stmt):
    violations = _lint(f"""
        class Drifted:
            __snap_state__ = ("a",)

            def __init__(self, data):
                self.a = 1
                {stmt}
    """)
    assert [v.line for v in violations] == [7]


@pytest.mark.parametrize("stmt", [
    "self.stray[0][1] = 1",
    "del self.stray",
])
def test_mutating_an_existing_attribute_is_exempt(stmt):
    assert _lint(f"""
        class Mutates:
            __snap_state__ = ("a",)

            def poke(self):
                {stmt}
    """) == []


def test_augmented_assignment_is_exempt():
    assert _lint("""
        class Counter:
            __snap_state__ = ("n",)

            def __init__(self):
                self.n = 0

            def bump(self):
                self.n += 1
                self.n -= 1
    """) == []


def test_pragma_suppresses_a_deliberate_exclusion():
    assert _lint("""
        class Hooked:
            __snap_state__ = ("a",)

            def __init__(self):
                self.a = 1
                self.cache = {}  # verify-ok: snap-discipline

            def __snap_fingerprint__(self):
                return ("Hooked", self.a)
    """) == []


def test_undeclared_classes_are_ignored():
    assert _lint("""
        class Free:
            def __init__(self):
                self.anything = 1
    """) == []


def test_non_repro_modules_are_ignored():
    assert _lint("""
        class Drifted:
            __snap_state__ = ("a",)

            def __init__(self):
                self.stray = 2
    """, modname="examples.demo") == []
