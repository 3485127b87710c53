"""xcall-cap bitmap semantics."""

import pytest
from hypothesis import given, strategies as st

from repro.xpc.capability import XCallCapBitmap
from repro.xpc.errors import InvalidXCallCapError


def test_starts_empty():
    caps = XCallCapBitmap(64)
    assert not any(caps.test(i) for i in range(64))


def test_grant_sets_exactly_one_bit():
    caps = XCallCapBitmap(64)
    caps.grant(13)
    assert caps.test(13)
    assert sum(caps.test(i) for i in range(64)) == 1


def test_revoke_clears(some=21):
    caps = XCallCapBitmap(64)
    caps.grant(some)
    caps.revoke(some)
    assert not caps.test(some)


def test_check_raises_without_cap():
    caps = XCallCapBitmap(64)
    with pytest.raises(InvalidXCallCapError):
        caps.check(5)


def test_check_passes_with_cap():
    caps = XCallCapBitmap(64)
    caps.grant(5)
    caps.check(5)  # no exception


def test_out_of_range():
    caps = XCallCapBitmap(64)
    with pytest.raises(IndexError):
        caps.grant(64)
    with pytest.raises(IndexError):
        caps.test(-1)


def test_check_refuses_out_of_range_ids_as_missing_caps():
    """The data-plane check sees no bit past the bitmap: refused like a
    cleared bit (the control-plane calls above keep IndexError)."""
    caps = XCallCapBitmap(64)
    for entry_id in (64, 65, -1):
        with pytest.raises(InvalidXCallCapError) as info:
            caps.check(entry_id)
        assert info.value.entry_id == entry_id


def test_copy_is_independent():
    caps = XCallCapBitmap(64)
    caps.grant(1)
    dup = caps.copy()
    dup.grant(2)
    assert not caps.test(2)
    assert dup.test(1)


def test_clear():
    caps = XCallCapBitmap(64)
    for i in (1, 5, 60):
        caps.grant(i)
    caps.clear()
    assert list(caps.granted_ids()) == []


def test_raw_is_real_bytes():
    caps = XCallCapBitmap(1024)
    assert len(caps.raw) == 128  # paper §4.1: 128-byte bitmap
    caps.grant(0)
    assert caps.raw[0] == 1


def test_bad_sizes():
    with pytest.raises(ValueError):
        XCallCapBitmap(0)
    with pytest.raises(ValueError):
        XCallCapBitmap(13)


@given(st.sets(st.integers(min_value=0, max_value=1023), max_size=64))
def test_granted_ids_roundtrip(ids):
    caps = XCallCapBitmap(1024)
    for i in ids:
        caps.grant(i)
    assert set(caps.granted_ids()) == ids
