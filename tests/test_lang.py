import pathlib
import random
import time

import pytest

from hypersem import lang
from hypersem.errors import ParseError, UndeclaredVariable
from hypersem.family import mask_of, powerset_family
from hypersem.harness import GenConfig, _Gen
from hypersem.hyper import happly
from hypersem.lang import (Assign, Assume, Atom, BoolBin, BoolConst, Choice,
                           Cmp, Havoc, If, IntBin, IntConst, IntNeg, IntVar,
                           NondetAssign, Not, RelAtom, Seq, Skip, While,
                           elaborate_atom, eval_bool, eval_int, parse,
                           pp_program, pp_stmt)
from hypersem.notation import parse_family, parse_rel_file, parse_state
from hypersem.space import StateSpace
from support import atoms_deterministic, is_choice_free

PROGRAMS = pathlib.Path(__file__).parent.parent / "programs"


def test_parse_while_golden():
    pf = parse("var x: 0..7; while x < 4 { x := x + 1 }")
    assert pf.decls == (("x", 0, 7),)
    assert pf.body == While(
        Cmp("<", IntVar("x"), IntConst(4)),
        Atom(Assign("x", IntBin("+", IntVar("x"), IntConst(1)))))


def test_parse_choice_of_assigns():
    pf = parse("var x: 0..7; x := x + 3 [] x := x + 5")
    assert isinstance(pf.body, Choice)
    assert pf.body.parts[0] == Atom(Assign("x", IntBin("+", IntVar("x"), IntConst(3))))


def test_parse_error_position():
    with pytest.raises(ParseError) as exc:
        parse("var x: 0..7;\nx := +")
    assert exc.value.line == 2


def tokenize(text):
    """Tokens of text as (kind, text, line, col) tuples, then eof."""
    kinds, texts, starts = lang._lex(text)
    return [(kind, word, *lang._position(text, start))
            for kind, word, start in zip(kinds, texts, starts)]


def test_token_positions():
    text = ("var\tab1 :in 0..42; // comment := here\r\n"
            "\t:= .. [] -> != <= >= && || ; { } ( ) [ ] , = < > + - * ! :\r\n"
            "if_ else 007 x// tail")
    assert tokenize(text) == [
        ("kw", "var", 1, 1), ("name", "ab1", 1, 5), ("sym", ":in", 1, 9),
        ("int", "0", 1, 13), ("sym", "..", 1, 14), ("int", "42", 1, 16),
        ("sym", ";", 1, 18),
        ("sym", ":=", 2, 2), ("sym", "..", 2, 5), ("sym", "[]", 2, 8),
        ("sym", "->", 2, 11), ("sym", "!=", 2, 14), ("sym", "<=", 2, 17),
        ("sym", ">=", 2, 20), ("sym", "&&", 2, 23), ("sym", "||", 2, 26),
        ("sym", ";", 2, 29), ("sym", "{", 2, 31), ("sym", "}", 2, 33),
        ("sym", "(", 2, 35), ("sym", ")", 2, 37), ("sym", "[", 2, 39),
        ("sym", "]", 2, 41), ("sym", ",", 2, 43), ("sym", "=", 2, 45),
        ("sym", "<", 2, 47), ("sym", ">", 2, 49), ("sym", "+", 2, 51),
        ("sym", "-", 2, 53), ("sym", "*", 2, 55), ("sym", "!", 2, 57),
        ("sym", ":", 2, 59),
        ("name", "if_", 3, 1), ("kw", "else", 3, 5), ("int", "007", 3, 10),
        ("name", "x", 3, 14), ("eof", "", 3, 22)]
    with pytest.raises(ParseError) as exc:
        tokenize("x := 1 ;\r\n\t y @ 2")
    assert (exc.value.line, exc.value.col) == (2, 5)
    assert str(exc.value) == "2:5: unexpected character '@'"


def test_end_of_input_after_a_comment_is_at_its_end():
    with pytest.raises(ParseError) as exc:
        parse("var x: 0..1; // note")
    assert (exc.value.line, exc.value.col) == (1, 21)


def test_parse_error_cases():
    for text in ("var x: 0..7; x := ", "x := 1", "var x: 0..7; if x<1 { skip }",
                 "var x: 0..7; while x<1 { }", "var x: 0..7; x := 1 }"):
        with pytest.raises(ParseError):
            parse(text)


X01 = StateSpace((("x", 0, 1),))
BIG = "9" * 5000  # more digits than int() converts by default
TOO_LONG = "integer literal of 5000 digits is too long"


@pytest.mark.parametrize("read, text, message", [
    (parse, "var x: 0..1;\nif x < 1 { skip } skip",
     "2:19: expected 'else', found 'skip'"),
    (parse, "var 1: 0..1; skip", "1:5: expected identifier, found '1'"),
    (parse, "var x: 0..y; skip", "1:11: expected integer, found 'y'"),
    (parse, "var x: 0..1; x := *",
     "1:19: expected integer expression, found '*'"),
    (parse, "var x: 0..1; assume x ; skip",
     "1:23: expected comparison operator, found ';'"),
    (parse, "var x: 0..1; x := 1 ; ;", "1:23: expected statement, found ';'"),
    (parse, "var x: 0..1;\n  x = 1", "2:5: expected ':=' or ':in' after 'x'"),
    (parse, "var x: 0..1; skip skip", "1:19: unexpected trailing input 'skip'"),
    (parse, "var x: 0..1; rel { {x=0,x=1} -> {x=0} }",
     "1:25: repeated variable 'x'"),
    (parse, "skip", "1:1: program must declare at least one variable"),
    (parse, "var x: 0..1; assume (x < 1 { skip }",
     "1:24: expected ')', found '<'"),
    (parse, "var x: 0..1;\r\n\t@", "2:2: unexpected character '@'"),
    (parse, "var x: 0..1; // note",
     "1:21: expected statement, found end of input"),
    (parse, "var", "1:4: expected identifier, found end of input"),
    (parse, "var x: 0..1;\rx := ;\r",
     "2:6: expected integer expression, found ';'"),
    (parse, "var x: 0..1; // c\rx := ;\r\n",
     "2:6: expected integer expression, found ';'"),
    (parse_rel_file, "var x: 0..1;\n{x=0} -> {x=}\n",
     "2:13: expected integer, found '}'"),
    (parse_rel_file,
     "var x: 0..1;\n\t  {x=0} -> {x=1} // ok\n  {x=0} -> {x}\n",
     "3:14: expected '=', found '}'"),
    (parse_rel_file, "var x: 0..1; // c\r{x=0} -> {x=}\r",
     "2:13: expected integer, found '}'"),
    (parse_rel_file, "var x: 0..1;\f{x=0} -> {x=1}\n",
     "1:13: unexpected character '\\x0c'"),
    (lambda text: parse_family(X01, text), "[[{x=0}] [{x=1}]]",
     "1:10: expected ']', found '['"),
    (lambda text: parse_family(X01, text), "[[{x=0}],[{x=1}]",
     "1:17: expected ']', found end of input"),
    (parse, f"var x: 0..1;\nx := {BIG}", f"2:6: {TOO_LONG}"),
    (parse, f"var x: 0..-{BIG}; skip", f"1:12: {TOO_LONG}"),
    (parse, f"var x: 0..1; assume (x < {BIG}) ; skip", f"1:26: {TOO_LONG}"),
    (lambda text: parse_state(X01, text), f"{{x={BIG}}}", f"1:4: {TOO_LONG}"),
    (parse_rel_file, f"var x: 0..1;\n{{x=0}} -> {{x={BIG}}}\n",
     f"2:13: {TOO_LONG}"),
], ids=["expected-symbol", "identifier", "integer", "integer-expression",
        "comparison", "statement", "assignment", "trailing", "repeated",
        "no-declaration", "guard-backtrack", "character-after-crlf-tab",
        "eof-after-comment", "eof-identifier", "bare-cr", "comment-to-cr",
        "rel-pair-line", "rel-indented-line", "rel-bare-cr",
        "rel-form-feed-is-no-line-break",
        "family-literal", "eof-family-literal", "long-literal",
        "long-bound", "long-literal-in-guard", "long-state-literal",
        "long-rel-literal"])
def test_parse_error_messages_and_positions(read, text, message):
    with pytest.raises(ParseError) as exc:
        read(text)
    assert str(exc.value) == message


def test_successful_parse_computes_no_position(monkeypatch):
    # positions come from token offsets only when an error is reported;
    # the failed first reading of `(x + 1)` as a guard reports none
    def no_position(text, offset):
        raise AssertionError("a successful parse computed a position")

    monkeypatch.setattr(lang, "_position", no_position)
    texts = [path.read_text() for path in sorted(PROGRAMS.glob("*.imp"))]
    texts.append("var x: 0..1;\nassume "
                 + " && ".join(["(x + 1) = 1"] * 2000) + "\n")
    assert len(texts) == 5
    for text in texts:
        parse(text)


@pytest.mark.parametrize("text, message", [
    (" " * 200_000 + "@", "1:200001: unexpected character '@'"),
    ("// note\n" * 50_000,
     "50001:1: program must declare at least one variable"),
    ("// note\r" * 50_000,
     "50001:1: program must declare at least one variable"),
    ("var x: 0..1; skip " + "/" * 100_000, None),
    ("x" * 100_000 + "@", "1:100001: unexpected character '@'"),
], ids=["blanks", "comment-lines", "comment-lines-cr", "slashes",
        "long-name"])
def test_hostile_inputs_parse_in_linear_time(text, message):
    start = time.perf_counter()
    if message is None:
        parse(text)
    else:
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert str(exc.value) == message
    assert time.perf_counter() - start < 2.0


def test_choice_binds_looser_than_seq():
    pf = parse("var x: 0..3; x := 1 ; x := 2 [] x := 3 ; x := 0")
    assert isinstance(pf.body, Choice)
    assert isinstance(pf.body.parts[0], Seq)
    assert isinstance(pf.body.parts[1], Seq)


def test_seq_right_associative():
    pf = parse("var x: 0..3; x := 1 ; x := 2 ; x := 3")
    assert isinstance(pf.body, Seq)
    assert len(pf.body.parts) == 3
    assert all(isinstance(part, Atom) for part in pf.body.parts)


def test_parens_regroup():
    pf = parse("var x: 0..3; (x := 1 [] x := 2) ; x := 3")
    assert isinstance(pf.body, Seq)
    assert isinstance(pf.body.parts[0], Choice)


def test_parse_nondet_and_havoc_and_rel():
    pf = parse("var x: 0..3; x :in 0..2 ; havoc x ; "
               "rel { {x=0} -> {x=3}, {x=1} -> {x=1} }")
    atoms = [part.atom for part in pf.body.parts]
    assert isinstance(atoms[0], NondetAssign)
    assert isinstance(atoms[1], Havoc)
    assert atoms[2] == RelAtom((((("x", 0),), (("x", 3),)),
                                ((("x", 1),), (("x", 1),))))


def test_parse_empty_rel_atom():
    pf = parse("var x: 0..3; rel { }")
    assert pf.body.atom == RelAtom(())


def test_undeclared_variable():
    with pytest.raises(UndeclaredVariable):
        parse("var x: 0..3; y := 1")
    with pytest.raises(UndeclaredVariable):
        parse("var x: 0..3; low y; skip")
    with pytest.raises(UndeclaredVariable):
        parse("var x: 0..3; rel { {y=0} -> {y=0} }")


def test_repeated_name_in_a_state_literal_is_an_error():
    for text in ("var x: 0..3; rel { {x=0,x=2} -> {x=1} }",
                 "var x: 0..3; rel { {x=0} -> {x=1, x=1} }"):
        with pytest.raises(ParseError, match="repeated variable 'x'"):
            parse(text)


def test_misspelled_var_keeps_its_syntax_error():
    with pytest.raises(ParseError, match="expected ':=' or ':in' after 'vr'"):
        parse("var x: 0..3; vr y: 0..3; x := 1")


def test_long_seq_chain_parses_without_recursion():
    text = ("var x: 0..1;\nlow x;\n"
            + ";\n".join(["x := 1 - x"] * 2000) + "\n")
    pf = parse(text)
    flip = Atom(Assign("x", IntBin("-", IntConst(1), IntVar("x"))))
    assert pf.body == Seq((flip,) * 2000)
    q = powerset_family(0b01)
    assert happly(pf.body, q, pf.space()) == q
    # the printer and the tree walks cost no depth on the chain either
    assert pp_program(pf) == ("var x: 0..1;\nlow x;\n"
                              + " ; ".join(["x := 1 - x"] * 2000) + "\n")
    assert pp_program(parse(pp_program(pf))) == pp_program(pf)
    assert is_choice_free(pf.body)
    assert atoms_deterministic(pf.body, pf.space())


def test_long_choice_chain_is_one_node_and_round_trips():
    text = "var x: 0..1;\n" + " [] ".join(["x := 1 - x"] * 2000) + "\n"
    pf = parse(text)
    flip = Atom(Assign("x", IntBin("-", IntConst(1), IntVar("x"))))
    assert pf.body == Choice((flip,) * 2000)
    assert pp_program(pf) == text
    assert parse(pp_program(pf)) == pf


def test_low_declarations():
    pf = parse("var hi: 0..1;\nvar lo: 0..1;\nlow lo;\nlo := hi")
    assert pf.low == ("lo",)
    pf = parse("var hi: 0..1; var lo: 0..1; lowin hi; lowout lo; skip")
    assert pf.low_in == ("hi",)
    assert pf.low_out == ("lo",)


def test_comments_and_negative_ranges():
    pf = parse("// a comment\nvar x: -2..2; // trailing\nx := 0 - 1")
    assert pf.decls == (("x", -2, 2),)


def test_word_connectives_parse():
    pf = parse("var x: 0..3; if x < 1 and not x = 3 or false { skip } "
               "else { skip }")
    assert isinstance(pf.body, If)


@pytest.mark.parametrize("text", [
    "var x: 0..7; while x < 4 { x := x + 1 }",
    "var x: 0..7; x := x + 3 [] x := x + 5",
    "var x: 0..3; (x := 1 [] x := 2) ; x := 3",
    "var a: 0..2; var b: 0..2; if a = b && !(a < 1) { a := b * 2 - 1 } "
    "else { b :in 0..a }",
    "var x: 0..3; rel { {x=0} -> {x=3} } ; havoc x",
    "var x: -2..2; x := -1 * x",
    "var hi: 0..1; var lo: 0..1; low lo; lo := hi",
    # a parenthesized factor, a comparison that the parser first tries as
    # a parenthesized boolean, a negated constant, a double `!`
    "var x: -8..8; x := (x + 1) * 2 - -1 ; assume (x + 1) < 7 || !!true",
    "var a: 0..1; var b: 0..1; low a, b; lowin a; lowout a, b; a := b",
])
def test_pretty_roundtrip(text):
    pf = parse(text)
    assert parse(pp_program(pf)) == pf


def test_pretty_statement_shapes():
    pf = parse("var x: 0..3; (x := 1 [] x := 2) ; x := 3")
    assert pp_stmt(pf.body) == "(x := 1 [] x := 2) ; x := 3"


def test_eval_bool_examples(x8, bits):
    assert eval_bool(parse("var x: 0..7; assume x < 4").body.atom.cond, x8) \
        == mask_of([0, 1, 2, 3])
    assert eval_bool(BoolConst(True), x8) == x8.full_mask
    b = parse("var hi: 0..1; var lo: 0..1; assume hi = 1 && lo = 0").body.atom.cond
    assert eval_bool(b, bits) == mask_of([2])
    neg = parse("var x: 0..7; assume -x < -3").body.atom.cond
    assert eval_bool(neg, x8) == mask_of([4, 5, 6, 7])


def test_eval_bool_total(x8):
    guards = ["x < 4", "x = 7", "x >= 2 && x < 5", "!(x <= 3) || x = 0",
              "true", "false", "x * x > 10"]
    for g in guards:
        cond = parse(f"var x: 0..7; assume {g}").body.atom.cond
        m = eval_bool(cond, x8)
        assert eval_bool(Not(cond), x8) == x8.full_mask & ~m


def test_elaborate_assign_partial(x8):
    rel = elaborate_atom(Assign("x", IntBin("+", IntVar("x"), IntConst(1))), x8)
    assert sorted(rel.pairs()) == [(i, i + 1) for i in range(7)]
    assert rel.rows[7] == 0


def test_elaborate_assume(x8):
    rel = elaborate_atom(Assume(Cmp("<", IntVar("x"), IntConst(4))), x8)
    assert sorted(rel.pairs()) == [(i, i) for i in range(4)]


def test_elaborate_havoc():
    from hypersem.space import StateSpace
    space = StateSpace((("x", 0, 1),))
    rel = elaborate_atom(Havoc("x"), space)
    assert sorted(rel.pairs()) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_elaborate_nondet_clipped(x8):
    rel = elaborate_atom(
        NondetAssign("x", IntBin("-", IntVar("x"), IntConst(1)),
                     IntBin("+", IntVar("x"), IntConst(1))), x8)
    assert rel.rows[0] == mask_of([0, 1])
    assert rel.rows[7] == mask_of([6, 7])
    assert rel.rows[3] == mask_of([2, 3, 4])


def test_elaborate_nondet_empty_interval(x8):
    rel = elaborate_atom(NondetAssign("x", IntConst(5), IntConst(2)), x8)
    assert rel == type(rel).empty(x8)


def test_elaborate_rel_atom(bits):
    atom = RelAtom((((("hi", 1), ("lo", 0)), (("hi", 0), ("lo", 0))),))
    rel = elaborate_atom(atom, bits)
    assert sorted(rel.pairs()) == [(2, 0)]


def test_predicates():
    pf = parse("var x: 0..7; while x < 4 { x := x + 1 }")
    space = pf.space()
    assert is_choice_free(pf.body)
    assert atoms_deterministic(pf.body, space)

    pf = parse("var x: 0..7; x := 1 [] x := 2")
    assert not is_choice_free(pf.body)
    assert atoms_deterministic(pf.body, pf.space())

    pf = parse("var x: 0..7; x :in 0..1")
    assert is_choice_free(pf.body)
    assert not atoms_deterministic(pf.body, pf.space())

    pf = parse("var x: 0..7; skip")
    assert isinstance(pf.body, Skip)


# A per-state evaluator over decoded assignments: the reference that the
# column evaluator and the row builder are compared with.

def _oracle_int(e, env):
    if isinstance(e, IntConst):
        return e.value
    if isinstance(e, IntVar):
        return env[e.name]
    if isinstance(e, IntNeg):
        return -_oracle_int(e.expr, env)
    a, b = _oracle_int(e.left, env), _oracle_int(e.right, env)
    return {"+": a + b, "-": a - b, "*": a * b}[e.op]


def _oracle_bool(b, env):
    if isinstance(b, BoolConst):
        return b.value
    if isinstance(b, Not):
        return not _oracle_bool(b.expr, env)
    if isinstance(b, BoolBin):
        x, y = _oracle_bool(b.left, env), _oracle_bool(b.right, env)
        return x and y if b.op == "&&" else x or y
    x, y = _oracle_int(b.left, env), _oracle_int(b.right, env)
    return {"=": x == y, "!=": x != y, "<": x < y,
            "<=": x <= y, ">": x > y, ">=": x >= y}[b.op]


def _oracle_rows(a, space):
    lo, hi = space.var_range(a.var)
    rows = []
    for s in space.states():
        env = space.decode(s)
        if isinstance(a, Assign):
            vlo = vhi = _oracle_int(a.expr, env)
        elif isinstance(a, NondetAssign):
            vlo, vhi = _oracle_int(a.lo, env), _oracle_int(a.hi, env)
        else:
            vlo, vhi = lo, hi
        rows.append(sum(1 << space.encode({**env, a.var: v})
                        for v in range(max(lo, vlo), min(hi, vhi) + 1)))
    return rows


OFFSET_DECLS = (("x", -2, 2), ("y", 3, 5), ("z", -1, 0))


def test_columns_match_the_per_state_oracle_on_offset_ranges():
    space = StateSpace(OFFSET_DECLS)
    gen = _Gen(GenConfig(max_range=6), random.Random(7), OFFSET_DECLS)
    envs = [space.decode(s) for s in space.states()]
    for _ in range(300):
        e = gen.iexpr(3)
        for e in (e, IntNeg(e)):
            assert eval_int(e, space) == tuple(_oracle_int(e, env)
                                               for env in envs)
        b = gen.bexpr(3)
        for b in (b, Not(b)):
            assert eval_bool(b, space) == sum(
                _oracle_bool(b, env) << s for s, env in enumerate(envs))


def test_assignment_rows_match_the_per_state_oracle_on_offset_ranges():
    space = StateSpace(OFFSET_DECLS)
    gen = _Gen(GenConfig(max_range=6), random.Random(11), OFFSET_DECLS)
    atoms = [Havoc("y"),
             # out-of-range results, an empty range and clamped ranges
             Assign("y", IntBin("+", IntVar("y"), IntVar("x"))),
             NondetAssign("y", IntConst(5), IntConst(3)),
             NondetAssign("y", IntVar("x"), IntConst(9)),
             NondetAssign("y", IntNeg(IntConst(9)), IntVar("y"))]
    for _ in range(200):
        atoms.append(Assign(gen.rng.choice("xyz"), gen.iexpr(2)))
        atoms.append(NondetAssign(gen.rng.choice("xyz"), gen.iexpr(1),
                                  gen.iexpr(1)))
    for a in atoms:
        assert list(elaborate_atom(a, space).rows) == _oracle_rows(a, space), a
