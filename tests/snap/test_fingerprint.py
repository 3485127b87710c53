"""Unit tests for the canonical fingerprint walker.

The fingerprint is the identity basis of every snapshot contract, so
its own invariants get direct coverage: value-hashing for immutables,
salt-proof sets, insertion-ordered dicts, cycle handling, the
``__snap_fingerprint__`` hook, and the loud failure on undeclared
``__snap_state__`` attributes.
"""

import dataclasses
from typing import NamedTuple

import pytest

from repro.snap import (SnapshotError, check_state_discipline,
                        declared_state, fingerprint)


class Plain:
    def __init__(self, a, b):
        self.a = a
        self.b = b


@dataclasses.dataclass(frozen=True)
class Frozen:
    x: int
    y: str


class Declared:
    __snap_state__ = ("a",)

    def __init__(self, a):
        self.a = a


class DeclaredChild(Declared):
    __snap_state__ = Declared.__snap_state__ + ("b",)

    def __init__(self, a, b):
        super().__init__(a)
        self.b = b


class Hooked:
    """Only ``x`` is identity; ``noise`` is derived bookkeeping."""

    def __init__(self, x, noise):
        self.x = x
        self.noise = noise

    def __snap_fingerprint__(self):
        return ("Hooked", self.x)


class Slotted:
    __slots__ = ("v",)

    def __init__(self, v):
        self.v = v


def test_structurally_equal_graphs_fingerprint_equal():
    a = Plain(1, [b"xy", (2, 3.5)])
    b = Plain(1, [b"xy", (2, 3.5)])
    assert fingerprint(a) == fingerprint(b)
    b.b.append("extra")
    assert fingerprint(a) != fingerprint(b)


def test_object_identity_never_leaks_in():
    shared = (1, "leaf")
    aliased = [shared, shared]
    copied = [(1, "leaf"), (1, "leaf")]
    assert fingerprint(aliased) == fingerprint(copied)


def test_sets_are_hash_salt_proof():
    forward = set()
    for name in ["alpha", "beta", "gamma", "delta"]:
        forward.add(name)
    backward = set()
    for name in ["delta", "gamma", "beta", "alpha"]:
        backward.add(name)
    assert fingerprint(forward) == fingerprint(backward)
    assert fingerprint(forward) != fingerprint({"alpha", "beta"})


def test_dicts_hash_in_insertion_order():
    # Insertion order is the simulation's own deterministic order, so
    # it is identity — unlike set iteration order, which is salted.
    assert fingerprint({"a": 1, "b": 2}) != fingerprint({"b": 2, "a": 1})
    assert fingerprint({"a": 1, "b": 2}) == fingerprint({"a": 1, "b": 2})


def test_cycles_become_backrefs():
    a = [1]
    a.append(a)
    b = [1]
    b.append(b)
    assert fingerprint(a) == fingerprint(b)


def test_frozen_dataclasses_hash_by_value():
    one = Frozen(7, "q")
    assert fingerprint((one, one)) == fingerprint((Frozen(7, "q"),
                                                   Frozen(7, "q")))
    assert fingerprint(one) != fingerprint(Frozen(8, "q"))


class Pair(NamedTuple):
    x: int
    y: str


def test_named_tuples_hash_by_value_and_type():
    assert fingerprint(Pair(7, "q")) == fingerprint(Pair(7, "q"))
    assert fingerprint(Pair(7, "q")) != fingerprint(Pair(8, "q"))
    # Tagged by class and field names, like a frozen dataclass — never
    # confused with the bare tuple of the same items.
    assert fingerprint(Pair(7, "q")) != fingerprint((7, "q"))


def test_snap_fingerprint_hook_overrides_vars():
    assert fingerprint(Hooked(3, noise="x")) == \
        fingerprint(Hooked(3, noise="y"))
    assert fingerprint(Hooked(3, "x")) != fingerprint(Hooked(4, "x"))


def test_declared_state_unions_over_the_mro():
    assert declared_state(Declared) == {"a"}
    assert declared_state(DeclaredChild) == {"a", "b"}
    assert declared_state(Plain) is None


def test_undeclared_attribute_fails_loudly():
    obj = Declared(1)
    check_state_discipline(obj)          # clean: no error
    obj.stray = 2
    with pytest.raises(SnapshotError, match="stray"):
        check_state_discipline(obj)
    with pytest.raises(SnapshotError, match="stray"):
        fingerprint(obj)


def test_subclass_extension_is_clean():
    child = DeclaredChild(1, 2)
    check_state_discipline(child)
    assert fingerprint(child) == fingerprint(DeclaredChild(1, 2))


def test_slots_fingerprint_without_dict():
    assert fingerprint(Slotted(5)) == fingerprint(Slotted(5))
    assert fingerprint(Slotted(5)) != fingerprint(Slotted(6))


def test_unwalkable_instances_are_an_error():
    with pytest.raises(SnapshotError, match="cannot fingerprint"):
        fingerprint(object())
