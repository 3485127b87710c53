"""Message-size negotiation along calling chains (paper §4.4)."""

import pytest
from hypothesis import given, strategies as st

from repro.runtime.negotiation import SizeNode, negotiate_size


def test_linear_chain_sums():
    c = SizeNode("C", 16)
    b = SizeNode("B", 64).calls(c)
    a = SizeNode("A", 0).calls(b)
    assert negotiate_size(a) == 80


def test_branching_takes_the_worst_callee():
    """S_all(B) = S_self(B) + max(S_all(C), S_all(D)) — the paper's
    exact formula for A -> B -> [C | D]."""
    c = SizeNode("C", 100)
    d = SizeNode("D", 30)
    b = SizeNode("B", 8).calls(c, d)
    a = SizeNode("A", 0).calls(b)
    assert negotiate_size(a) == 108


def test_leaf_needs_only_itself():
    assert negotiate_size(SizeNode("leaf", 42)) == 42


def test_diamond_is_fine():
    d = SizeNode("D", 10)
    b = SizeNode("B", 1).calls(d)
    c = SizeNode("C", 2).calls(d)
    a = SizeNode("A", 0).calls(b, c)
    assert negotiate_size(a) == 12


def test_cycle_detected():
    a = SizeNode("A", 1)
    b = SizeNode("B", 1).calls(a)
    a.calls(b)
    with pytest.raises(ValueError):
        negotiate_size(a)


def test_negative_size_rejected():
    with pytest.raises(ValueError):
        negotiate_size(SizeNode("bad", -1))


@given(sizes=st.lists(st.integers(0, 4096), min_size=1, max_size=12))
def test_chain_reservation_is_total_append(sizes):
    """For a linear chain, the reservation equals the sum of appends."""
    node = None
    for i, s in enumerate(sizes):
        nxt = SizeNode(f"n{i}", s)
        if node is not None:
            nxt.calls(node)
        node = nxt
    assert negotiate_size(node) == sum(sizes)
