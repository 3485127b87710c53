"""seL4 capability-space semantics."""

import pytest

from repro.kernel.objects import KernelObject, Right
from repro.sel4.caps import CapError, CapType, Capability, CSpace


@pytest.fixture
def endpoint_cap():
    return Capability(CapType.ENDPOINT, KernelObject(1, "ep"), Right.ALL)


def test_insert_lookup(endpoint_cap):
    cspace = CSpace()
    slot = cspace.insert(endpoint_cap)
    assert cspace.lookup(slot) is endpoint_cap


def test_empty_slot_faults():
    with pytest.raises(CapError):
        CSpace().lookup(1)


def test_type_check(endpoint_cap):
    cspace = CSpace()
    slot = cspace.insert(endpoint_cap)
    with pytest.raises(CapError):
        cspace.lookup(slot, CapType.REPLY)


def test_rights_check(endpoint_cap):
    cspace = CSpace()
    derived = endpoint_cap.derive(Right.SEND)
    slot = cspace.insert(derived)
    cspace.lookup(slot, need=Right.SEND)
    with pytest.raises(CapError):
        cspace.lookup(slot, need=Right.RECV)


def test_derive_cannot_amplify(endpoint_cap):
    weak = endpoint_cap.derive(Right.SEND)
    with pytest.raises(CapError):
        weak.derive(Right.ALL)


def test_derive_with_badge(endpoint_cap):
    badged = endpoint_cap.derive(Right.SEND, badge=42)
    assert badged.badge == 42
    assert badged.obj is endpoint_cap.obj


def test_delete(endpoint_cap):
    cspace = CSpace()
    slot = cspace.insert(endpoint_cap)
    cspace.delete(slot)
    with pytest.raises(CapError):
        cspace.lookup(slot)
    with pytest.raises(CapError):
        cspace.delete(slot)


def test_full_cspace(endpoint_cap):
    cspace = CSpace(slots=2)
    cspace.insert(endpoint_cap)
    cspace.insert(endpoint_cap)
    with pytest.raises(CapError):
        cspace.insert(endpoint_cap)
