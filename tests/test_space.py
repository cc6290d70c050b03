import copy
import pickle

import pytest
from hypothesis import given, strategies as st

from hypersem.errors import MissingVariable, UnknownVariable, ValueOutOfRange
from hypersem.lang import (Assign, Assume, Cmp, IntConst, IntVar,
                           elaborate_atom, eval_bool)
from hypersem.space import StateSpace
from support import kept


def test_single_var_identity_encoding(x8):
    assert x8.encode({"x": 2}) == 2
    assert x8.decode(2) == {"x": 2}


def test_mixed_radix_declaration_order(bits):
    assert bits.encode({"hi": 1, "lo": 0}) == 2
    assert bits.encode({"hi": 0, "lo": 1}) == 1


def test_repr_lists_the_declarations(x8, bits):
    assert repr(x8) == "StateSpace(x:0..7)"
    assert repr(bits) == "StateSpace(hi:0..1, lo:0..1)"
    assert repr(StateSpace((("p", -2, 1),))) == "StateSpace(p:-2..1)"


def test_encode_out_of_range(x8):
    with pytest.raises(ValueOutOfRange):
        x8.encode({"x": 9})


def test_encode_unknown_and_missing(bits):
    with pytest.raises(UnknownVariable):
        bits.encode({"hi": 0, "lo": 0, "zz": 1})
    with pytest.raises(MissingVariable):
        bits.encode({"hi": 0})


@pytest.mark.parametrize("decls", [
    (("x", 0, 7),),
    (("hi", 0, 1), ("lo", 0, 1)),
    (("a", 0, 3), ("b", 0, 3), ("c", 0, 3)),
    (("p", -2, 1), ("q", 5, 7)),
])
def test_roundtrip_exhaustive(decls):
    space = StateSpace(decls)
    for s in space.states():
        assert space.encode(space.decode(s)) == s
    assert len({tuple(sorted(space.decode(s).items())) for s in space.states()}) \
        == space.size


@given(st.lists(st.tuples(st.integers(-3, 3), st.integers(0, 2)),
                min_size=1, max_size=3))
def test_roundtrip_random_spaces(ranges):
    decls = tuple((f"v{i}", lo, lo + w) for i, (lo, w) in enumerate(ranges))
    space = StateSpace(decls)
    for s in space.states():
        assert space.encode(space.decode(s)) == s


def test_size_cap():
    with pytest.raises(ValueError):
        StateSpace((("x", 0, 64),))
    StateSpace((("x", 0, 63),))  # exactly the cap is fine


def test_bad_declarations():
    with pytest.raises(ValueError):
        StateSpace((("x", 0, 1), ("x", 0, 1)))
    with pytest.raises(ValueError):
        StateSpace((("x", 3, 2),))


def test_decode_out_of_range(x8):
    with pytest.raises(ValueOutOfRange):
        x8.decode(8)


def test_columns_are_computed_once_per_space(bits):
    col = bits.column("lo")
    assert col == (0, 1, 0, 1)
    assert bits.column("lo") is col
    assert StateSpace(bits.vars).column("lo") is not col


def test_copies_and_pickles_rebuild_the_space_without_its_memo(bits):
    # a copied memo would key its entries by the original nodes' ids
    atom = Assign("lo", IntVar("hi"))
    assume = Assume(Cmp("=", IntVar("hi"), IntConst(1)))
    rels = [elaborate_atom(a, bits) for a in (atom, assume)]
    nodes = (atom, assume, assume.cond)
    assert bits._columns and None not in [kept(bits, n) for n in nodes]
    for twin in (copy.copy(bits), copy.deepcopy(bits),
                 pickle.loads(pickle.dumps(bits))):
        assert twin is not bits and twin == bits
        assert hash(twin) == hash(bits)
        assert twin._columns == {}
        assert [kept(twin, n) for n in nodes] == [None] * 3
        assert [elaborate_atom(a, twin) for a in (atom, assume)] == rels
        assert eval_bool(assume.cond, twin) == 0b1100
    rel = pickle.loads(pickle.dumps(rels[0]))
    assert rel == rels[0] and kept(rel.space, atom) is None
