"""The ring's meta codec: the str/int decode memo is exact and bounded.

``encode_meta`` remembers the tuple behind each encoding whose elements
are exactly ``str`` or ``int``; ``decode_meta`` answers those from the
memo instead of ``ast.literal_eval``.  Every property below compares
against ``literal_eval`` of the same bytes, which is what the codec
computed before the memo existed.
"""

import ast

from hypothesis import given, settings, strategies as st

import repro.aio.ring as ring_mod
from repro.aio.ring import META_MEMO_MAX, decode_meta, encode_meta
from tests.aio.test_ring import make_ring


def parsed(data: bytes) -> tuple:
    return tuple(ast.literal_eval(data.decode("utf-8")))


str_int_metas = st.lists(
    st.one_of(
        st.text(max_size=12)
        | st.sampled_from(["'", '"', "\\", "\\'", "é", "日本", "\x00",
                           "a'b\"c\\d"]),
        st.integers()
        | st.sampled_from([-1, 0, -2 ** 63, 2 ** 64, -(10 ** 40)]),
    ),
    max_size=6).map(tuple)


@given(meta=str_int_metas)
@settings(max_examples=200, deadline=None)
def test_str_int_metas_decode_like_literal_eval(meta):
    data = encode_meta(meta)
    decoded = decode_meta(data)
    assert decoded == parsed(data) == meta
    assert [type(x) for x in decoded] == [type(x) for x in meta]


@given(meta=str_int_metas)
@settings(max_examples=50, deadline=None)
def test_memo_is_filled_for_str_int_metas(meta):
    assert ring_mod._META_MEMO.get(encode_meta(meta)) == meta


other_elements = st.one_of(
    st.binary(max_size=8), st.none(), st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.tuples(st.integers(), st.text(max_size=4)))


@given(meta=st.lists(st.one_of(st.integers(), other_elements),
                     min_size=1, max_size=5)
       .filter(lambda m: any(type(x) not in (int, str) for x in m))
       .map(tuple))
@settings(max_examples=120, deadline=None)
def test_other_metas_round_trip_through_the_fallback(meta):
    data = encode_meta(meta)
    assert data not in ring_mod._META_MEMO
    assert decode_meta(data) == parsed(data) == meta


def test_bool_and_int_subclasses_stay_out_of_the_memo():
    class Tag(str):
        pass

    for meta in [(True, 1), (Tag("x"),), ((1, 2),)]:
        assert encode_meta(meta) not in ring_mod._META_MEMO
    assert decode_meta(encode_meta((True, 1))) == (True, 1)
    assert type(decode_meta(encode_meta((True,)))[0]) is bool


def test_meta_overwritten_in_ring_memory_decodes_to_the_new_value():
    machine, _kernel, _seg, ring = make_ring()
    core = machine.core0
    ring.push_sqe(core, ("get", 1234), b"k")
    sqe = ring.pop_sqe(core)
    assert ring.read_meta(sqe) == ("get", 1234)
    # Same length, different bytes: the cached tuple must not answer.
    machine.memory.write(ring.pa_base + sqe.meta_off, b"('put', 9876)")
    assert ring.read_meta(sqe) == ("put", 9876)
    machine.memory.write(ring.pa_base + sqe.meta_off, b"('get', None)")
    assert ring.read_meta(sqe) == ("get", None)


def test_memo_stays_within_its_bound_and_evicts_oldest_first():
    first = encode_meta(("bound-probe", -1))
    for i in range(META_MEMO_MAX + 50):
        encode_meta(("bound-probe", i))
    assert len(ring_mod._META_MEMO) <= META_MEMO_MAX
    assert first not in ring_mod._META_MEMO
    # Evicted entries still decode, through literal_eval.
    assert decode_meta(first) == ("bound-probe", -1)
