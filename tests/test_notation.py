import pytest

from hypersem.errors import ParseError
from hypersem.family import FamilySet, mask_of, powerset_family
from hypersem.notation import (family_json, format_family,
                               format_state, format_state_set, parse_family,
                               parse_state, parse_state_set, state_set_json)


def test_state_roundtrip(bits):
    assert format_state(bits, 2) == "{hi=1,lo=0}"
    assert parse_state(bits, "{hi=1,lo=0}") == 2
    assert parse_state(bits, "{lo=0, hi=1}") == 2


def test_state_set_roundtrip(x8):
    m = mask_of([2, 5])
    text = format_state_set(x8, m)
    assert text == "[{x=2},{x=5}]"
    assert parse_state_set(x8, text) == m
    assert format_state_set(x8, 0) == "[]"
    assert parse_state_set(x8, "[]") == 0


def test_family_roundtrip(x8):
    fam = FamilySet.explicit([0, mask_of([4]), mask_of([5])])
    text = format_family(x8, fam)
    assert text == "[[],[{x=4}],[{x=5}]]"
    assert parse_family(x8, text) == fam
    assert parse_family(x8, "[]").is_empty
    assert format_family(x8, FamilySet.empty()) == "[]"


def test_family_format_downset_expands(x8):
    fam = powerset_family(mask_of([2, 5]))
    assert format_family(x8, fam) == "[[],[{x=2}],[{x=5}],[{x=2},{x=5}]]"
    assert format_family(x8, fam, antichain=True) == "[[{x=2},{x=5}]]"


def test_json_forms(bits):
    assert state_set_json(bits, mask_of([2])) == [{"hi": 1, "lo": 0}]
    fam = FamilySet.explicit([mask_of([2])])
    assert family_json(bits, fam) == [[{"hi": 1, "lo": 0}]]


def test_parse_errors(x8):
    for bad in ("{x=9", "[{x=1}", "[{x=1},]", "{y=1}", "[[{x=1}]", "{x=}"):
        with pytest.raises(Exception):
            parse_family(x8, bad) if bad.startswith("[[") else \
                parse_state_set(x8, bad) if bad.startswith("[") else \
                parse_state(x8, bad)


def test_repeated_name_in_a_literal_is_an_error(bits):
    for parse_lit, text in ((parse_state, "{hi=1,lo=0,hi=0}"),
                            (parse_state_set, "[{lo=0,lo=1,hi=0}]"),
                            (parse_family, "[[{hi=1,hi=1,lo=0}]]")):
        with pytest.raises(ParseError, match="repeated variable"):
            parse_lit(bits, text)
