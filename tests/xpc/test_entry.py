"""x-entry table semantics."""

import pytest

from repro.hw.memory import PhysicalMemory
from repro.hw.paging import AddressSpace
from repro.xpc.entry import XEntryTable
from repro.xpc.errors import InvalidXEntryError


@pytest.fixture
def aspace():
    return AddressSpace(PhysicalMemory(16 * 1024 * 1024))


def handler(*args):
    return "handled"


def test_register_assigns_ids(aspace):
    table = XEntryTable(8)
    first = table.register(aspace, handler, None)
    second = table.register(aspace, handler, None)
    assert first.entry_id != second.entry_id
    assert table.registered == 2


def test_load_valid_entry(aspace):
    table = XEntryTable()
    entry = table.register(aspace, handler, None, max_contexts=4)
    loaded = table.load(entry.entry_id)
    assert loaded is entry
    assert loaded.max_contexts == 4


def test_load_unregistered_raises(aspace):
    table = XEntryTable(4)
    with pytest.raises(InvalidXEntryError):
        table.load(0)


def test_load_out_of_range_raises(aspace):
    table = XEntryTable(4)
    with pytest.raises(InvalidXEntryError):
        table.load(99)
    with pytest.raises(InvalidXEntryError):
        table.load(-1)


def test_remove_invalidates(aspace):
    table = XEntryTable(4)
    entry = table.register(aspace, handler, None)
    table.remove(entry.entry_id)
    assert not entry.valid
    with pytest.raises(InvalidXEntryError):
        table.load(entry.entry_id)


def test_remove_frees_slot_for_reuse(aspace):
    table = XEntryTable(3)
    a = table.register(aspace, handler, None)
    table.register(aspace, handler, None)
    table.remove(a.entry_id)
    c = table.register(aspace, handler, None)
    assert c.entry_id == a.entry_id


def test_table_full(aspace):
    table = XEntryTable(3)
    table.register(aspace, handler, None)
    table.register(aspace, handler, None)
    with pytest.raises(InvalidXEntryError):
        table.register(aspace, handler, None)


def test_remove_twice_raises(aspace):
    table = XEntryTable(4)
    entry = table.register(aspace, handler, None)
    table.remove(entry.entry_id)
    with pytest.raises(InvalidXEntryError):
        table.remove(entry.entry_id)


def test_invalidated_entry_rejected_even_if_slot_held(aspace):
    table = XEntryTable(4)
    entry = table.register(aspace, handler, None)
    entry.valid = False   # kernel kill path marks entries invalid
    with pytest.raises(InvalidXEntryError):
        table.load(entry.entry_id)


def test_bad_max_contexts(aspace):
    table = XEntryTable(4)
    with pytest.raises(ValueError):
        table.register(aspace, handler, None, max_contexts=0)


def test_bad_size():
    with pytest.raises(ValueError):
        XEntryTable(0)
    with pytest.raises(ValueError):
        XEntryTable(1)


def test_slot_zero_is_reserved(aspace):
    table = XEntryTable(4)
    ids = {table.register(aspace, handler, None).entry_id
           for _ in range(3)}
    assert 0 not in ids


class TestSlotSemantics:
    """The id sequence, occupancy count and error arms of the table, pinned
    independently of how the slots are stored."""

    def test_ids_ascend_from_one_until_full(self, aspace):
        table = XEntryTable(8)
        ids = [table.register(aspace, handler, None).entry_id
               for _ in range(7)]
        assert ids == [1, 2, 3, 4, 5, 6, 7]
        assert table.registered == 7
        with pytest.raises(InvalidXEntryError) as info:
            table.register(aspace, handler, None)
        assert info.value.entry_id == -1
        assert "full" in str(info.value)

    def test_full_is_reported_before_a_bad_budget(self, aspace):
        table = XEntryTable(2)
        table.register(aspace, handler, None)
        with pytest.raises(InvalidXEntryError):
            table.register(aspace, handler, None, max_contexts=0)

    def test_removed_ids_are_reused_lifo_before_fresh_ones(self, aspace):
        table = XEntryTable(8)
        for _ in range(4):
            table.register(aspace, handler, None)
        table.remove(2)
        table.remove(1)
        table.remove(3)
        assert table.registered == 1
        ids = [table.register(aspace, handler, None).entry_id
               for _ in range(5)]
        assert ids == [3, 1, 2, 5, 6]
        assert table.registered == 6

    def test_lifo_reuse_on_a_full_table(self, aspace):
        table = XEntryTable(4)
        for _ in range(3):
            table.register(aspace, handler, None)
        table.remove(1)
        table.remove(3)
        assert table.register(aspace, handler, None).entry_id == 3
        assert table.register(aspace, handler, None).entry_id == 1
        with pytest.raises(InvalidXEntryError):
            table.register(aspace, handler, None)

    def test_peek_and_load_outside_the_table(self, aspace):
        table = XEntryTable(4)
        entry = table.register(aspace, handler, None)
        assert table.peek(entry.entry_id) is entry
        for bad in (-1, 4, 99):
            assert table.peek(bad) is None
            with pytest.raises(InvalidXEntryError) as info:
                table.load(bad)
            assert info.value.entry_id == bad
            assert "out of table range" in str(info.value)
        assert table.peek(0) is None
        assert table.peek(2) is None
        with pytest.raises(InvalidXEntryError) as info:
            table.load(2)
        assert str(info.value) == "invalid x-entry (id=2)"

    def test_peek_sees_invalid_entries_until_removed(self, aspace):
        table = XEntryTable(4)
        entry = table.register(aspace, handler, None)
        entry.valid = False
        assert table.peek(entry.entry_id) is entry
        table.remove(entry.entry_id)
        assert table.peek(entry.entry_id) is None

    def test_remove_errors(self, aspace):
        table = XEntryTable(4)
        table.register(aspace, handler, None)
        for bad in (-1, 0, 2, 4, 99):
            with pytest.raises(InvalidXEntryError) as info:
                table.remove(bad)
            assert info.value.entry_id == bad
            assert "remove of unregistered entry" in str(info.value)
        assert table.registered == 1
        # A failed remove frees nothing: the next id is still fresh.
        assert table.register(aspace, handler, None).entry_id == 2
