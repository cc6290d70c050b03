import pytest

from hypersem.errors import ParseError
from hypersem.family import FamilySet, mask_of, powerset_family
from hypersem.notation import (family_json, format_family,
                               format_state, format_state_set, parse_family,
                               parse_rel_file, parse_state, parse_state_set,
                               state_set_json)
from hypersem.relation import Rel


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


def test_rel_file_roundtrip():
    text = """// demo relation
var x: 0..7;
{x=0} -> {x=4}
{x=2} -> {x=4}
{x=2} -> {x=5}
"""
    space, rel = parse_rel_file(text)
    assert space.size == 8
    assert sorted(rel.pairs()) == [(0, 4), (2, 4), (2, 5)]
    lines = [f"var {n}: {lo}..{hi};" for n, lo, hi in space.vars]
    lines += [f"{format_state(space, s)} -> {format_state(space, t)}"
              for s, t in rel.pairs()]
    text2 = "\n".join(lines) + "\n"
    space2, rel2 = parse_rel_file(text2)
    assert space2 == space and rel2 == rel


def test_rel_file_requires_decl():
    with pytest.raises(ParseError):
        parse_rel_file("{x=0} -> {x=1}\n")


def test_rel_file_negative_ranges():
    space, rel = parse_rel_file("var x: -1..1;\n{x=-1} -> {x=1}\n")
    assert space.size == 3
    assert sorted(rel.pairs()) == [(0, 2)]


def test_rel_file_declarations_use_the_program_grammar():
    for line in ("var x: 0..3; junk", "var x: 0..3; var y: 0..1;",
                 "var x: 0..3", "var x 0..3;"):
        with pytest.raises(ParseError):
            parse_rel_file(line + "\n{x=0} -> {x=1}\n")
    space, _ = parse_rel_file("var x: 0..1;  // low bit\nvar y: -2..0;\n")
    assert space.vars == (("x", 0, 1), ("y", -2, 0))
    space, _ = parse_rel_file("var\tx: 0..1;\nvar  y: -2..0;\n")
    assert space.vars == (("x", 0, 1), ("y", -2, 0))


def test_repeated_name_in_a_literal_is_an_error(bits):
    for parse_lit, text in ((parse_state, "{hi=1,lo=0,hi=0}"),
                            (parse_state_set, "[{lo=0,lo=1,hi=0}]"),
                            (parse_family, "[[{hi=1,hi=1,lo=0}]]")):
        with pytest.raises(ParseError, match="repeated variable"):
            parse_lit(bits, text)
    with pytest.raises(ParseError, match="repeated variable 'x'"):
        parse_rel_file("var x: 0..3;\n{x=0,x=2} -> {x=1}\n")
