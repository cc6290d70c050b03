import ast
import json
import pathlib
import random
import shlex

import pytest

from hypersem import cli, harness, lang, reference, semantics
from hypersem.cli import main
from hypersem.family import FamilySet
from hypersem.harness import GenConfig, gen_program
from hypersem.lang import ProgramFile, parse, pp_program
from hypersem.noninterference import LowView
from hypersem.notation import format_family, format_state, format_state_set
from hypersem.relation import Rel
from support import mutate, statements

LOOP = "var x: 0..7;\nwhile x < 4 { x := x + 1 }\n"
LEAK = "var hi: 0..1;\nvar lo: 0..1;\nlow lo;\nlo := hi\n"
SAFE = "var hi: 0..1;\nvar lo: 0..1;\nlow lo;\nhi := lo\n"
PROGRAMS = pathlib.Path(__file__).parent.parent / "programs"
README = PROGRAMS.parent / "README.md"


@pytest.fixture
def loop_file(tmp_path):
    p = tmp_path / "loop.imp"
    p.write_text(LOOP)
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_prints_ast(capsys, loop_file):
    code, out, _ = run(capsys, "parse", loop_file)
    assert code == 0
    assert "var x: 0..7" in out
    assert "while x < 4" in out
    assert "atom x := x + 1" in out


def test_eval_rel_level(capsys, loop_file):
    code, out, _ = run(capsys, "eval", loop_file, "--level", "rel",
                       "--input", "{x=2}")
    assert code == 0
    assert out.strip() == "[{x=4}]"


def test_eval_tr_level_worked_value(capsys, loop_file):
    code, out, _ = run(capsys, "eval", loop_file, "--level", "tr",
                       "--input", "[{x=2},{x=5}]")
    assert code == 0
    assert out.strip() == "[{x=4},{x=5}]"


def test_eval_tr_reports_a_loop_whose_iterates_never_settle(
        capsys, loop_file, monkeypatch):
    # a program's iterates grow, so the budget is reached only through
    # iterates that oscillate between the empty map and the identity: the
    # relations sem_tr builds, from the bottom on, alternate between them
    built = []

    class Oscillating(Rel):
        __slots__ = ()

        def __init__(self, space, rows):
            built.append(tuple(rows))
            super().__init__(space, [0] * space.size if len(built) % 2
                             else [1 << s for s in space.states()])

    monkeypatch.setattr(semantics, "Rel", Oscillating)
    code, out, err = run(capsys, "eval", loop_file, "--level", "tr",
                         "--input", "[{x=2}]")
    assert (code, out) == (2, "")
    assert err == "error: transformer loop fixpoint\n"
    # the bottom, then the budget's 8*8+2 iterates
    assert built[0] == (0,) * 8
    assert len(built) == 1 + 8 * 8 + 2


HYPER_LOOP = ["eval", str(PROGRAMS / "loop.imp"), "--level", "hyper",
              "--input", "[[],[{x=2}]]"]


@pytest.mark.parametrize("argv, message", [
    (HYPER_LOOP + ["--variant", "naive"],
     "loop iteration did not stabilize within 0 steps"),
    (["diff", "--thm1", "--trials", "5", "--cross-check"],
     "loop iteration did not stabilize within 0 steps"),
], ids=["reference-iteration", "cross-check-kleene"])
def test_a_zero_loop_budget_is_reported(capsys, monkeypatch, argv, message):
    # a zero budget reaches each hyper-level budget's raise: ref_eval's
    # iteration's (naive), and the cross-check's Kleene iteration's (diff's
    # first loop).  The comment at each raise says what bounds a real
    # budget.
    monkeypatch.setattr(reference, "loop_budget", lambda size, nqueries: 0)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


def test_the_paper_loop_solve_takes_no_budget(capsys, monkeypatch):
    # the paper variant solves a loop in closed form, one walk per
    # unknown, so even a zero budget leaves its answer as it is
    monkeypatch.setattr(reference, "loop_budget", lambda size, nqueries: 0)
    assert run(capsys, *HYPER_LOOP) == (0, "[[],[{x=4}]]\n", "")


def test_eval_hyper_strict_rejects_open_query(capsys, loop_file):
    code, _, err = run(capsys, "eval", loop_file, "--level", "hyper",
                       "--input", "[[{x=2},{x=5}]]")
    assert code == 2
    assert "subset closed" in err


def test_eval_hyper_with_flag(capsys, loop_file):
    # one warning line per call, also when the process calls main again
    for _ in range(2):
        code, out, err = run(capsys, "eval", loop_file, "--level", "hyper",
                             "--input", "[[{x=2},{x=5}]]", "--no-strict-ssc",
                             "--antichain")
        assert code == 0
        assert out.strip() == "[[{x=4},{x=5}]]"
        assert err == ("warning: query is not subset closed; "
                       "evaluating anyway\n")


@pytest.mark.parametrize("body", [
    "if " + " && ".join(["x < 2"] * 2000) + " { x := 1 - x } else { skip }",
    "x := " + " + ".join(["x - x"] * 1000),
], ids=["and_chain", "sum_chain"])
def test_long_expression_chains_cost_no_depth(capsys, tmp_path, body):
    text = f"var x: 0..1;\nlow x;\n{body}\n"
    path = tmp_path / "chain.imp"
    path.write_text(text)
    for argv in (["parse"], ["eval", "--level", "tr", "--input", "[{x=0}]"],
                 ["check-ni"]):
        code, _, err = run(capsys, argv[0], str(path), *argv[1:])
        assert code in (0, 1), err
    assert pp_program(parse(text)) == text


def test_eval_hyper_closed_query(capsys, loop_file):
    code, out, _ = run(capsys, "eval", loop_file, "--level", "hyper",
                       "--input", "[[],[{x=2}],[{x=5}],[{x=2},{x=5}]]")
    assert code == 0
    assert out.strip() == "[[],[{x=4}],[{x=5}],[{x=4},{x=5}]]"


def test_eval_hyper_equals_tr_mapped_over_family(capsys, loop_file):
    # end-to-end: the paper-variant hyper output on a closed input is the
    # transformer output mapped over the family members
    family_members = ["[]", "[{x=2}]", "[{x=5}]", "[{x=2},{x=5}]"]
    code, out, _ = run(capsys, "eval", loop_file, "--level", "hyper",
                       "--input", "[" + ",".join(family_members) + "]")
    assert code == 0
    hyper_out = out.strip()
    images = []
    for member in family_members:
        code, out, _ = run(capsys, "eval", loop_file, "--level", "tr",
                           "--input", member)
        assert code == 0
        images.append(out.strip())
    # compare as families, order-independent
    from hypersem.lang import parse
    from hypersem.notation import parse_family, parse_state_set
    space = parse(LOOP).space()
    got = parse_family(space, hyper_out)
    want_members = {parse_state_set(space, t) for t in images}
    from hypersem.family import FamilySet
    assert got == FamilySet.explicit(want_members)


def test_eval_json_format(capsys, loop_file):
    code, out, _ = run(capsys, "eval", loop_file, "--level", "tr",
                       "--input", "[{x=2},{x=5}]", "--format", "json-like")
    assert code == 0
    assert json.loads(out) == [{"x": 4}, {"x": 5}]


@pytest.mark.parametrize("flags, want", [
    ((), '[[], [{"x": 4}], [{"x": 5}], [{"x": 4}, {"x": 5}]]'),
    (("--antichain",), '[[{"x": 4}, {"x": 5}]]'),
], ids=["members", "antichain"])
def test_eval_hyper_json_format(capsys, flags, want):
    # the README's hyper query on the shipped example program
    loop = pathlib.Path(__file__).parent.parent / "programs" / "loop.imp"
    code, out, err = run(capsys, "eval", str(loop), "--level", "hyper",
                         "--input", "[[],[{x=2}],[{x=5}],[{x=2},{x=5}]]",
                         "--format", "json-like", *flags)
    assert (code, out, err) == (0, want + "\n", "")


def test_iterates_naive_table(capsys, loop_file):
    code, out, _ = run(capsys, "iterates", loop_file,
                       "--query", "[[{x=2},{x=5}]]",
                       "--steps", "4", "--variant", "naive")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "Q0 = [[]]"
    assert lines[1] == "Q1 = [[],[{x=5}]]"
    assert lines[2] == "Q2 = [[],[{x=5}]]"
    assert lines[3] == "Q3 = [[],[{x=4}],[{x=5}]]"
    assert lines[4] == "Q4 = [[],[{x=4}],[{x=5}]]"


def test_iterates_otimes(capsys, loop_file):
    code, out, _ = run(capsys, "iterates", loop_file,
                       "--query", "[[{x=2},{x=5}]]",
                       "--steps", "3", "--variant", "otimes")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "Q0 = [[]]"
    assert lines[1] == "Q1 = [[{x=5}]]"
    assert lines[3] == "Q3 = [[{x=4},{x=5}]]"


@pytest.mark.parametrize("query,msg", [
    ("[[{x=2},{x=5}]]", "query is not subset closed"),
    ("[]", "query is empty")])
def test_iterates_gates_paper_queries_like_eval(capsys, loop_file, query,
                                                msg):
    for argv in (["iterates", loop_file, "--query", query, "--steps", "3"],
                 ["eval", loop_file, "--level", "hyper", "--input", query]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: {msg}\n"


@pytest.mark.parametrize("variant,want", [
    ("naive", (0, "[]\n", "")), ("otimes", (0, "[]\n", "")),
    ("paper", (2, "", "error: query is empty\n"))])
def test_eval_at_the_empty_family(capsys, loop_file, variant, want):
    # the definitional evaluator maps the empty family to itself; the
    # paper variant refuses it
    assert run(capsys, "eval", loop_file, "--level", "hyper", "--variant",
               variant, "--input", "[]") == want


def test_iterates_needs_loop(capsys, tmp_path):
    p = tmp_path / "straight.imp"
    p.write_text("var x: 0..3;\nx := 1\n")
    code, out, err = run(capsys, "iterates", str(p), "--query", "[[]]",
                         "--steps", "1")
    assert (code, out) == (2, "")
    assert err == ("error: iterates needs a program whose body is a single "
                   "loop\n")


@pytest.mark.parametrize("variant", ["naive", "otimes"])
@pytest.mark.parametrize("body", ["x := 0 [] x := 1",
                                  "if x < 18 { x := 0 } else { skip }"],
                         ids=["choice", "if"])
def test_anomalous_variants_refuse_wide_member_sets(capsys, tmp_path,
                                                    variant, body):
    # the definitional evaluator refuses to enumerate the 2^20 (2^18)
    # subsets that the choice (the then branch) reads
    p = tmp_path / "wide.imp"
    p.write_text(f"var x: 0..19;\n{body}\n")
    wide = "[[" + ",".join(f"{{x={i}}}" for i in range(20)) + "]]"
    code, out, err = run(capsys, "eval", str(p), "--level", "hyper",
                         "--variant", variant, "--input", wide)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("variant", ["naive", "otimes"])
def test_anomalous_variants_refuse_large_products(capsys, tmp_path, variant):
    # each branch of the choice has the 2^13 subsets of the member set as
    # its value; their 2^26 pairs are refused before any is formed
    p = tmp_path / "choice.imp"
    p.write_text("var x: 0..15;\nx := x [] x := x\n")
    wide = "[[" + ",".join(f"{{x={i}}}" for i in range(13)) + "]]"
    code, out, err = run(capsys, "eval", str(p), "--level", "hyper",
                         "--variant", variant, "--input", wide)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "pair bound" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("variant", ["naive", "otimes"])
def test_anomalous_variants_refuse_a_join_past_the_member_cap(
        capsys, tmp_path, variant):
    # the branches' values at the 9-state member are disjoint families of
    # 2^9 images each, within the pair bound; their 2^18 unions pass the
    # member cap, and the join refuses them
    p = tmp_path / "choice.imp"
    p.write_text("var x: 0..17;\nx := x [] x := x + 9\n")
    wide = "[[" + ",".join(f"{{x={i}}}" for i in range(9)) + "]]"
    code, out, err = run(capsys, "eval", str(p), "--level", "hyper",
                         "--variant", variant, "--input", wide)
    assert (code, out) == (2, "")
    assert err == ("error: family of 262144 members exceeds the member cap "
                   "65536\n")


@pytest.mark.parametrize("n, refused", [(12, False), (13, True)])
def test_engine_refuses_large_products(capsys, tmp_path, n, refused):
    # neither atom is a partial function, so each branch's value at the
    # one member set is explicit: 3 * 2^(n-2) images, whose pairs pass
    # 2^24 at 13 states and are refused before any is formed
    ident = ", ".join(f"{{x={i}}} -> {{x={i}}}" for i in range(n))
    p = tmp_path / "choice.imp"
    p.write_text(f"var x: 0..{n - 1};\nrel {{ {ident}, {{x=0}} -> {{x=1}} }}"
                 f" [] rel {{ {ident}, {{x=2}} -> {{x=3}} }}\n")
    wide = "[[" + ",".join(f"{{x={i}}}" for i in range(n)) + "]]"
    code, out, err = run(capsys, "eval", str(p), "--level", "hyper",
                         "--no-strict-ssc", "--input", wide, "--antichain")
    if refused:
        assert (code, out) == (2, "")
        assert err.splitlines()[1] == (
            "error: a product of 6144 by 6144 members exceeds the pair bound "
            "16777216")
    else:
        assert (code, out) == (0, wide + "\n")


def test_check_ni_leak_all_forms(capsys, tmp_path):
    p = tmp_path / "leak.imp"
    p.write_text(LEAK)
    code, out, _ = run(capsys, "check-ni", str(p), "--form", "all")
    assert code == 1
    lines = out.strip().splitlines()
    assert len(lines) == 3
    assert all("insecure" in ln for ln in lines)


def test_check_ni_secure(capsys, tmp_path):
    p = tmp_path / "safe.imp"
    p.write_text(SAFE)
    code, out, _ = run(capsys, "check-ni", str(p))
    assert code == 0
    assert out.count("secure") == 3


def test_check_ni_single_form(capsys, tmp_path):
    p = tmp_path / "leak.imp"
    p.write_text(LEAK)
    code, out, _ = run(capsys, "check-ni", str(p), "--form", "poss")
    assert code == 1
    assert out.startswith("poss:")


def test_check_ni_needs_low(capsys, tmp_path):
    p = tmp_path / "nolow.imp"
    p.write_text("var x: 0..3;\nx := 1\n")
    code, out, err = run(capsys, "check-ni", str(p))
    assert (code, out) == (2, "")
    assert err == "error: program declares no low variables\n"


@pytest.mark.parametrize("policy, side, keyword", [
    ("lowin lo;", "output", "lowout"), ("lowout lo;", "input", "lowin")])
def test_check_ni_needs_both_sides_of_a_policy(policy, side, keyword, capsys,
                                               tmp_path):
    # with one side undeclared, every state would agree with every other
    # on that side, and any program would pass as secure
    p = tmp_path / "oneside.imp"
    p.write_text(f"var hi: 0..1;\nvar lo: 0..1;\n{policy}\nlo := hi\n")
    code, out, err = run(capsys, "check-ni", str(p))
    assert (code, out) == (2, "")
    assert err == (f"error: program declares no {side} low variables "
                   f"(low or {keyword})\n")


@pytest.mark.parametrize("policy, views", [
    ("low lo;", 1), ("lowin lo;\nlowout lo;", 1),
    ("low lo;\nlowout hi;", 2), ("lowin lo;\nlowout hi, lo;", 2)])
def test_check_ni_builds_one_low_view_when_in_and_out_agree(
        policy, views, capsys, tmp_path, monkeypatch):
    built = []

    def counted(space, low_vars):
        built.append(tuple(low_vars))
        return LowView(space, low_vars)

    monkeypatch.setattr(cli, "LowView", counted)
    p = tmp_path / "p.imp"
    p.write_text(f"var hi: 0..1;\nvar lo: 0..1;\n{policy}\nhi := lo\n")
    code, out, _ = run(capsys, "check-ni", str(p), "--form", "all")
    assert len(built) == views
    assert (code, out) == (0, "rel: secure\nposs: secure\nhyper: secure\n")


@pytest.mark.parametrize("text, want", [
    # the output view is {x, y}, and the run copies h into x
    ("var h: 0..1; var x: 0..1; var y: 0..1; low x; lowout y; "
     "y := x ; x := h", 1),
    # the input view is {x, y}, and skip keeps both
    ("var x: 0..1; var y: 0..1; low x; lowin y; skip", 0)],
    ids=["lowout", "lowin"])
def test_low_counts_on_both_sides_of_a_policy(text, want, capsys, tmp_path):
    p = tmp_path / "mixed.imp"
    p.write_text(text + "\n")
    code, out, _ = run(capsys, "check-ni", str(p), "--form", "all")
    verdict = "insecure" if want else "secure"
    assert code == want
    assert [line.split()[:2] for line in out.splitlines()] == [
        [f"{form}:", verdict] for form in ("rel", "poss", "hyper")]


def test_psc_verdicts(capsys, tmp_path):
    good = tmp_path / "fun.imp"
    good.write_text("var x: 0..3;\nrel { {x=0} -> {x=1}, {x=1} -> {x=1} }\n")
    code, out, _ = run(capsys, "psc", str(good))
    assert code == 0 and "holds" in out

    bad = tmp_path / "crossing.imp"
    bad.write_text("var x: 0..3;\nrel { {x=0} -> {x=2}, {x=0} -> {x=3},\n"
                   "      {x=1} -> {x=2}, {x=1} -> {x=3} }\n")
    code, out, _ = run(capsys, "psc", str(bad))
    assert code == 1 and "fails" in out and "q=" in out


@pytest.mark.parametrize("name, code, out", [
    ("function.imp", 0, "psc: holds\n"),
    ("crossing.imp", 1, "psc: fails  q=[{x=0}] r=[{x=3}]\n"),
    ("choice.imp", 1, "psc: fails  q=[{x=0}] r=[{x=5}]\n"),
    ("loop.imp", 0, "psc: holds\n"),
])
def test_psc_on_programs(capsys, name, code, out):
    # psc checks the direct image of any program's relation
    assert run(capsys, "psc", str(PROGRAMS / name)) == (code, out, "")


def test_psc_reads_a_relation_file_as_a_program(capsys, tmp_path):
    # a pair line of the retired relation-file format is not a statement
    p = tmp_path / "function.rel"
    p.write_text("// a partial function: passes the subset-image check\n"
                 "var x: 0..3;\n{x=0} -> {x=1}\n{x=1} -> {x=2}\n"
                 "{x=2} -> {x=2}\n")
    assert run(capsys, "psc", str(p)) == (
        2, "", "error: 3:1: expected statement, found '{'\n")


def test_enumerate_counts(capsys):
    code, out, _ = run(capsys, "enumerate", "--size", "4")
    assert code == 0
    assert "167" in out
    code, out, _ = run(capsys, "enumerate", "--size", "2", "--list")
    assert code == 0
    assert out.strip().splitlines()[-1].endswith("5")


def test_enumerate_size_zero_lists_its_one_family(capsys):
    assert run(capsys, "enumerate", "--size", "0") == (
        0, "nonempty subset-closed families over 0 states: 1\n", "")
    assert run(capsys, "enumerate", "--size", "0", "--list") == (
        0, "[[]]\nnonempty subset-closed families over 0 states: 1\n", "")


def test_diff_prop1_cli(capsys):
    code, out, _ = run(capsys, "diff", "--prop1", "--seed", "3",
                       "--trials", "10", "--size", "6")
    assert code == 0
    assert "failures=0" in out


def test_diff_thm1_cli(capsys):
    code, out, _ = run(capsys, "diff", "--thm1", "--seed", "3",
                       "--trials", "5", "--size", "3", "--cross-check")
    assert code == 0
    assert "failures=0" in out


def test_diff_thm1_failure_prints_its_first_witness(capsys, monkeypatch):
    # a lift with no members: every query fails, and the report names the
    # first failing program and query
    monkeypatch.setattr(harness, "lift_family",
                        lambda tr, fam: FamilySet.empty())
    code, out, _ = run(capsys, "diff", "--thm1", "--trials", "2")
    assert code == 1
    head, witness, program = out.split("\n", 2)
    assert head == "thm1: trials=2 failures=2"
    assert witness == "first witness:"
    assert program.startswith("program:\nvar ")
    assert "\nquery=FamilySet(" in program
    assert "\nlift=FamilySet(explicit:{})\n" in program


def test_diff_search_psc_join_is_a_usage_error(capsys):
    # psc_check decides the question the search sampled (see
    # test_transformer.py::test_psc_join_of_partial_functions_exhaustive)
    with pytest.raises(SystemExit) as exc:
        main(["diff", "--search", "psc-join", "--size", "3"])
    assert exc.value.code == 2
    assert "invalid choice: 'psc-join'" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["diff", "--thm1", "--size", "1", "--trials", "5"],
    ["diff", "--search", "ssc-necessity", "--size", "1", "--trials", "5"],
])
def test_diff_on_one_state(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 0
    assert "Traceback" not in out + err


def test_psc_answers_beyond_the_scan_cap(capsys, tmp_path):
    # relation-backed psc is answered from the rows at any size
    for n, code_want in ((11, 0), (64, 1)):
        rel = tmp_path / f"r{n}.imp"
        pairs = [f"{{s={t}}} -> {{s={(t + 1) % n}}}" for t in range(n)]
        if code_want:
            pairs.append(f"{{s={n - 1}}} -> {{s=1}}")
        rel.write_text(f"var s: 0..{n - 1};\nrel {{\n  "
                       + ",\n  ".join(pairs) + "\n}\n")
        code, out, _ = run(capsys, "psc", str(rel))
        assert code == code_want
        assert out == ("psc: holds\n" if code == 0 else
                       f"psc: fails  q=[{{s={n - 1}}}] r=[{{s=1}}]\n")


def test_parse_error_exit_code(capsys, tmp_path):
    p = tmp_path / "bad.imp"
    p.write_text("var x: 0..3;\nx := +\n")
    code, _, err = run(capsys, "parse", str(p))
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("text, argv, message", [
    ("var x: 0..1; x := 1 []", ["parse"], "1:23: expected statement"),
    (LOOP, ["eval", "--level", "tr", "--input", "[{x=0}"],
     "1:7: expected ']'"),
], ids=["program", "literal"])
def test_end_of_input_is_named(capsys, tmp_path, text, argv, message):
    p = tmp_path / "prog.imp"
    p.write_text(text)
    code, out, err = run(capsys, argv[0], str(p), *argv[1:])
    assert (code, out) == (2, "")
    assert err == f"error: {message}, found end of input\n"


@pytest.mark.parametrize("name, argvs", [
    ("leak.imp", [["parse"], ["check-ni"]]),
    ("function.imp", [["psc"]]),
], ids=["imp", "rel"])
def test_leading_byte_order_mark_is_accepted(capsys, tmp_path, name, argvs):
    original = PROGRAMS / name
    marked = tmp_path / name
    marked.write_bytes(b"\xef\xbb\xbf" + original.read_bytes())
    for argv in argvs:
        want = run(capsys, argv[0], str(original), *argv[1:])
        assert run(capsys, argv[0], str(marked), *argv[1:]) == want
    # a byte-order mark anywhere else is still an unexpected character
    marked.write_bytes(original.read_bytes() + b"\xef\xbb\xbf")
    code, out, err = run(capsys, argvs[0][0], str(marked))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "unexpected character '\\ufeff'" in err


@pytest.mark.parametrize("name, text, argv", [
    ("prog.imp", "var x: 0..1;\nx := BIG\n", ["parse"]),
    ("prog.imp", "var x: 0..1;\nlow x;\nx := BIG\n", ["check-ni"]),
    ("prog.imp", "var x: 0..BIG;\nskip\n", ["parse"]),
    ("prog.imp", LOOP, ["eval", "--level", "tr", "--input", "[{x=BIG}]"]),
    ("prog.imp", "var x: 0..BIG;\nrel { {x=0} -> {x=1} }\n", ["psc"]),
], ids=["assign", "check-ni", "bound", "input", "rel-bound"])
def test_oversized_integer_literal_exit_code(capsys, tmp_path, name, text,
                                             argv):
    big = "9" * 5000  # more digits than int() converts by default
    p = tmp_path / name
    p.write_text(text.replace("BIG", big))
    argv = [arg.replace("BIG", big) for arg in argv]
    code, out, err = run(capsys, argv[0], str(p), *argv[1:])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert err.endswith("integer literal of 5000 digits is too long\n")


def test_missing_file_exit_code(capsys):
    code, _, err = run(capsys, "parse", "/nonexistent/prog.imp")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["parse"],
    ["check-ni"],
    ["eval", "--level", "rel", "--input", "{x=0}"],
    ["iterates", "--query", "[[]]", "--steps", "1"],
    ["psc"],
], ids=lambda argv: argv[0])
def test_non_utf8_file_is_an_error_not_a_crash(capsys, tmp_path, argv):
    p = tmp_path / "bad.txt"
    p.write_bytes(b"var x: 0..1;\nx := 1\xff\n")
    code, _, err = run(capsys, *argv[:1], str(p), *argv[1:])
    assert code == 2
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["eval"])  # missing required --input and file
    assert exc.value.code == 2


def test_deep_program_is_an_error_not_a_verdict(capsys, tmp_path):
    # an `if` nested 1,000 deep overflows the recursive parser; that must
    # exit 2 (error), never 1 (verdict false)
    p = tmp_path / "deep.imp"
    p.write_text("var x: 0..1;\nlow x;\n" + "if x = 0 { " * 1000 + "skip"
                 + " } else { skip }" * 1000 + "\n")
    for cmd in ("parse", "check-ni"):
        code, _, err = run(capsys, cmd, str(p))
        assert code == 2
        assert err.startswith("error:") and "Traceback" not in err


def test_check_ni_elaborates_each_atom_and_guard_once(capsys, tmp_path,
                                                      monkeypatch):
    # the three forms share the space's elaborations: every atom's relation
    # and every guard's mask is computed once, whatever the number of
    # denotations that read it
    text = ("var hi: 0..1;\nvar lo: 0..2;\nlow lo;\n"
            "assume hi <= 1 ; (lo :in 0..1 [] havoc hi) ;\n"
            "if hi = 0 && lo < 2 { lo := lo } else { "
            "rel { {hi=0,lo=0} -> {hi=0,lo=1} } } ;\n"
            "while lo > 1 { lo := lo - 1 }\n")
    p = tmp_path / "each.imp"
    p.write_text(text)
    nodes = list(statements(parse(text).body))
    atoms = sum(isinstance(n, lang.Atom) for n in nodes)
    guards = sum(isinstance(n, (lang.If, lang.While))
                 or isinstance(n, lang.Atom)
                 and isinstance(n.atom, lang.Assume) for n in nodes)
    assert (atoms, guards) == (6, 3)
    rels, masks = [], []

    class Counted(Rel):
        # lang builds a Rel only to elaborate an atom, one per atom
        __slots__ = ()

        def __init__(self, space, rows):
            rels.append(rows)
            super().__init__(space, rows)

    depth = [0]

    def guard_mask(b, space, compute=lang._guard_mask):
        # only the outermost call computes a guard; the rest are its parts
        depth[0] += 1
        try:
            if depth[0] == 1:
                masks.append(b)
            return compute(b, space)
        finally:
            depth[0] -= 1

    want = run(capsys, "check-ni", str(p), "--form", "all")
    assert want[0] == 1 and [line.split(":")[0] for line
                             in want[1].splitlines()] == ["rel", "poss",
                                                          "hyper"]
    monkeypatch.setattr(lang, "Rel", Counted)
    monkeypatch.setattr(lang, "_guard_mask", guard_mask)
    assert run(capsys, "check-ni", str(p), "--form", "all") == want
    assert (len(rels), len(masks)) == (atoms, guards)
    assert len(set(map(id, masks))) == guards


def test_nested_program_answers(capsys, tmp_path):
    # an `if`, `while` or parenthesis level costs the parser two frames (a
    # statement and a unit) and the hyper engine two (`eval`, then a join
    # or a loop's discovery), so a 400-level nest answers below the
    # interpreter's recursion limit in every command
    def nest(name, opener, closer):
        p = tmp_path / f"{name}.imp"
        p.write_text("var x: 0..1;\nlow x;\n" + opener * 400
                     + "x := 1 - x" + closer * 400 + "\n")
        return str(p)

    deep = nest("if", "if x = 0 { ", " } else { skip }")
    code, out, _ = run(capsys, "parse", deep)
    assert code == 0 and out.count("if x = 0") == 400
    code, out, _ = run(capsys, "check-ni", deep)
    assert (code, out) == (0, "rel: secure\nposs: secure\nhyper: secure\n")
    assert run(capsys, "psc", deep) == (0, "psc: holds\n", "")
    loops = nest("while", "while false { ", " }")
    for path, level, literal, want in (
            (deep, "rel", "{x=0}", "[{x=1}]\n"),
            (deep, "tr", "[{x=0},{x=1}]", "[{x=1}]\n"),
            (deep, "hyper", "[[],[{x=0}]]", "[[],[{x=1}]]\n"),
            (loops, "hyper", "[[],[{x=0}]]", "[[],[{x=0}]]\n"),
            (nest("choice", "(x := 1 - x [] ", ")"), "hyper", "[[],[{x=0}]]",
             "[[],[{x=1}]]\n")):
        code, out, _ = run(capsys, "eval", path, "--level", level,
                           "--input", literal)
        assert (code, out) == (0, want), (path, level)
    # the definitional evaluator spends two frames per loop level
    # (ref_eval and ref_loop_system) under both of its own variants
    for variant in ("naive", "otimes"):
        assert run(capsys, "eval", loops, "--level", "hyper", "--variant",
                   variant, "--input", "[[],[{x=0}]]") == (
            0, "[[],[{x=0}]]\n", ""), variant


def test_nested_program_with_a_sequence_at_every_level(capsys, tmp_path):
    # a `;` inside each `if` costs the relation and transformer levels no
    # more frames than the `if` alone, so 350 levels answer; the hyper
    # engine spends four frames a level here (`eval`, the join, `eval`,
    # the sequence), which the recursion limit refuses
    p = tmp_path / "seq.imp"
    p.write_text("var x: 0..1;\nlow x;\n" + "if x = 0 { skip ; " * 350
                 + "x := 1 - x" + " } else { skip }" * 350 + "\n")
    code, out, _ = run(capsys, "parse", str(p))
    assert code == 0
    assert (out.count("if x = 0"), out.count("  seq\n")) == (350, 350)
    for level, literal, want in (("rel", "{x=0}", "[{x=1}]\n"),
                                 ("tr", "[{x=0},{x=1}]", "[{x=1}]\n")):
        assert run(capsys, "eval", str(p), "--level", level, "--input",
                   literal) == (0, want, ""), level
    assert run(capsys, "check-ni", str(p), "--form", "all") == (
        0, "rel: secure\nposs: secure\nhyper: secure\n", "")
    assert run(capsys, "psc", str(p)) == (0, "psc: holds\n", "")
    assert run(capsys, "eval", str(p), "--level", "hyper", "--input",
               "[[],[{x=0}]]") == (
        2, "", "error: program nested too deeply (recursion limit reached)\n")


def test_long_seq_chain_answers(capsys, tmp_path):
    # a `;` chain costs no recursion depth in any command
    p = tmp_path / "chain.imp"
    p.write_text("var x: 0..1;\nlow x;\n"
                 + ";\n".join(["x := 1 - x"] * 2000) + "\n")
    code, out, _ = run(capsys, "parse", str(p))
    assert code == 0
    lines = out.splitlines()
    assert lines == (["var x: 0..1", "low x", "seq"]
                     + ["  atom x := 1 - x"] * 2000)
    code, out, _ = run(capsys, "check-ni", str(p))
    assert (code, out) == (0, "rel: secure\nposs: secure\nhyper: secure\n")
    for level, literal, want in (("rel", "{x=1}", "[{x=1}]\n"),
                                 ("tr", "[{x=0}]", "[{x=0}]\n")):
        code, out, _ = run(capsys, "eval", str(p), "--level", level,
                           "--input", literal)
        assert (code, out) == (0, want)


def test_long_choice_chain_answers(capsys, tmp_path):
    # a `[]` chain is one node, so every command and level answers
    p = tmp_path / "choice.imp"
    p.write_text("var x: 0..1;\nlow x;\n"
                 + " [] ".join(["x := 1 - x"] * 2000) + "\n")
    code, out, _ = run(capsys, "check-ni", str(p))
    assert (code, out) == (0, "rel: secure\nposs: secure\nhyper: secure\n")
    for level, literal, want in (("rel", "{x=0}", "[{x=1}]\n"),
                                 ("tr", "[{x=0},{x=1}]", "[{x=0},{x=1}]\n"),
                                 ("hyper", "[[],[{x=0}]]", "[[],[{x=1}]]\n")):
        code, out, _ = run(capsys, "eval", str(p), "--level", level,
                           "--input", literal)
        assert (code, out) == (0, want)
    # the definitional evaluator folds the chain instead of nesting it
    for variant in ("naive", "otimes"):
        assert run(capsys, "eval", str(p), "--level", "hyper", "--variant",
                   variant, "--input", "[[],[{x=0}]]") == (
            0, "[[],[{x=1}]]\n", ""), variant


BAD_DECLS = {
    "duplicate": "var x: 0..1;\nvar x: 0..1;\n",
    "empty-range": "var x: 3..1;\n",
    "too-many-states": "var x: 0..100;\n",
}


@pytest.mark.parametrize("decls", list(BAD_DECLS.values()), ids=list(BAD_DECLS))
def test_bad_declarations_are_errors_not_verdicts(capsys, tmp_path, decls):
    imp = tmp_path / "bad.imp"
    imp.write_text(decls + "low x;\nskip\n")
    rel = tmp_path / "bad-rel.imp"
    rel.write_text(decls + "rel { {x=0} -> {x=1} }\n")
    for argv in (["parse", str(imp)],
                 ["eval", str(imp), "--input", "[{x=0}]"],
                 ["check-ni", str(imp)],
                 ["psc", str(rel)]):
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert err.startswith("error:") and "Traceback" not in err


def test_diff_beyond_the_state_cap_is_an_error(capsys):
    code, _, err = run(capsys, "diff", "--thm1", "--size", "70")
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("argv, message", [
    (["diff", "--prop1", "--thm1"], "not allowed with argument --prop1"),
    (["diff", "--thm1", "--search", "ssc-necessity"],
     "not allowed with argument --thm1"),
    (["diff", "--seed", "3"], "one of the arguments --prop1 --thm1 --search "
                              "is required"),
])
def test_diff_runs_exactly_one_battery(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["diff", "--prop1", "--cross-check"],
    ["diff", "--search", "ssc-necessity", "--cross-check"],
])
def test_cross_check_without_thm1_is_a_usage_error(capsys, argv):
    assert run(capsys, *argv) == (
        2, "", "error: --cross-check applies to --thm1 only\n")


@pytest.mark.parametrize("argv", [
    ["enumerate", "--size", "-1"],
    ["diff", "--prop1", "--trials", "-3"],
    ["diff", "--prop1", "--size", "-2"],
    ["diff", "--thm1", "--size", "0"],
    ["diff", "--search", "ssc-necessity", "--size", "0"],
])
def test_negative_counts_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    # a diff --size must be positive: 0 is not a space
    want = "positive, got 0" if argv[-1] == "0" else "non-negative"
    assert want in capsys.readouterr().err


def test_negative_steps_is_a_usage_error(capsys, loop_file):
    with pytest.raises(SystemExit) as exc:
        main(["iterates", loop_file, "--query", "[[]]", "--steps", "-2"])
    assert exc.value.code == 2
    assert "non-negative" in capsys.readouterr().err


@pytest.mark.parametrize("line", [
    "var x: 0..3; junk",
    "var x: 0..3; var y: 0..1;",
    "var x: 0..3",
])
def test_psc_rejects_malformed_declarations(capsys, tmp_path, line):
    # two declarations on one line are a program's; there {x=0} misses y
    rel = tmp_path / "bad.imp"
    rel.write_text(line + "\nrel { {x=0} -> {x=1} }\n")
    code, _, err = run(capsys, "psc", str(rel))
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("text, name", [
    ("var x: 0..1;\nlow z;\nskip\n", "z"),
    ("var x: 0..1;\nlow x;\nx := y\n", "y"),
], ids=["low-declaration", "statement"])
def test_undeclared_variable_is_named(capsys, tmp_path, text, name):
    p = tmp_path / "undeclared.imp"
    p.write_text(text)
    code, _, err = run(capsys, "check-ni", str(p))
    assert code == 2
    assert err.strip() == f"error: undeclared variable '{name}'"


@pytest.mark.parametrize("text, argv, message", [
    (LOOP, ["--level", "tr", "--input", "[{z=1}]"], "unknown variable 'z'"),
    (LOOP, ["--level", "rel", "--input", "{}"], "missing variable 'x'"),
    ("var x: 0..1;\nvar y: 0..1;\nrel { {x=0} -> {x=1} }\n",
     ["--level", "rel", "--input", "{x=0,y=0}"], "missing variable 'y'"),
], ids=["unknown-in-literal", "missing-in-literal", "missing-in-rel-atom"])
def test_literal_variable_errors_are_named(capsys, tmp_path, text, argv,
                                           message):
    p = tmp_path / "prog.imp"
    p.write_text(text)
    code, _, err = run(capsys, "eval", str(p), *argv)
    assert code == 2
    assert err.strip() == f"error: {message}"


def test_repeated_name_in_a_literal_is_an_error(capsys, loop_file, tmp_path):
    rel = tmp_path / "twice.imp"
    rel.write_text("var x: 0..3;\nrel { {x=0,x=2} -> {x=1} }\n")
    for argv in (["eval", loop_file, "--level", "rel", "--input", "{x=2,x=1}"],
                 ["psc", str(rel)]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert "repeated variable 'x'" in err


def test_front_end_fuzz(capsys, tmp_path):
    # generator programs and one-character mutations of them, through
    # parse, check-ni, psc and eval with (mutated) literals: the exit-code
    # contract holds and nothing escapes as an exception
    rng = random.Random(7)
    path = tmp_path / "fuzz.imp"
    codes = set()
    for seed in range(80):
        pf = gen_program(GenConfig(seed=seed, max_space=6))
        space = pf.space()
        low = (pf.decls[-1][0],)
        text = pp_program(ProgramFile(pf.decls, low, (), (), pf.body))
        level, literal = rng.choice((
            ("rel", format_state(space, rng.randrange(space.size))),
            ("tr", format_state_set(space, rng.randrange(1 << space.size))),
            ("hyper", format_family(space, FamilySet.downset(
                (rng.randrange(1 << space.size),))))))
        if seed % 2:
            text = mutate(rng, text)
            literal = mutate(rng, literal)
        path.write_text(text)
        for argv in (["parse", str(path)], ["check-ni", str(path)],
                     ["psc", str(path)],
                     ["eval", str(path), "--level", level,
                      "--input", literal]):
            code, _, err = run(capsys, *argv)
            assert code in (0, 1, 2), (argv, text, literal)
            assert "Traceback" not in err
            codes.add(code)
    assert codes == {0, 1, 2}


def test_shared_parser_matches_a_fresh_one(capsys, monkeypatch, tmp_path):
    # main reuses one parser per process; every subcommand and every kind
    # of usage error argparse raises must leave it as a fresh one would
    prog = tmp_path / "loop.imp"
    prog.write_text(LOOP)
    leak = tmp_path / "leak.imp"
    leak.write_text(LEAK)
    rel = tmp_path / "fun.imp"
    rel.write_text("var x: 0..3;\nrel { {x=0} -> {x=1}, {x=1} -> {x=1} }\n")
    p, k = str(prog), str(leak)
    argvs = [
        ["parse", p],
        ["eval", p, "--input", "[{x=2}]"],
        ["eval", p],
        ["eval", p, "--level", "rel", "--input", "{x=2}", "--format",
         "json-like"],
        ["eval", p, "--level", "bogus", "--input", "{x=2}"],
        ["eval", p, "--level", "hyper", "--input", "[[],[{x=2}]]",
         "--variant", "naive", "--antichain"],
        ["iterates", p, "--query", "[[],[{x=2}]]", "--steps", "-1"],
        ["iterates", p, "--query", "[[],[{x=2}]]", "--steps", "2"],
        ["check-ni", k, "--form", "bogus"],
        ["check-ni", k],
        ["check-ni", k, "--form", "poss"],
        ["check-ni"],
        ["diff", "--prop1", "--trials", "2", "--seed", "3"],
        ["diff", "--size", "0"],
        ["diff", "--thm1", "--trials", "1", "--size", "2", "--cross-check"],
        ["diff", "--seed", "x"],
        ["psc", str(rel)],
        ["psc"],
        ["enumerate", "--size", "3", "--list"],
        ["enumerate"],
        ["enumerate", "--size", "2", "--bogus"],
        ["frobnicate"],
        [],
        ["check-ni", "--help"],
        ["parse", p],
    ]

    def outcomes():
        got = []
        for argv in argvs:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            out = capsys.readouterr()
            got.append((argv, code, out.out, out.err))
        return got

    shared = outcomes()
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert outcomes() == shared
    assert {code for _, code, _, _ in shared} == {0, 1, 2}


def _readme_sessions():
    """(argv, stdout) of every `$ hypersem ...` command shown in README.md,
    with its `\\` continuations joined; the output runs to the next blank
    line or the end of the code block."""
    lines = README.read_text(encoding="utf-8").splitlines()
    sessions = []
    i = 0
    while i < len(lines):
        line = lines[i]
        i += 1
        if not line.startswith("$ hypersem "):
            continue
        while line.endswith("\\"):
            line = line[:-1] + lines[i]
            i += 1
        out = ""
        while i < len(lines) and lines[i] not in ("", "```"):
            out += lines[i] + "\n"
            i += 1
        sessions.append((shlex.split(line[2:])[1:], out))
    return sessions


def test_readme_examples(capsys, monkeypatch):
    # the quick tour and the check-ni and psc examples, run from the
    # repository root: stdout byte for byte, and the exit code (1 for a
    # leak and for a relation that is not a partial function)
    sessions = _readme_sessions()
    assert [argv[0] for argv, _ in sessions] == [
        "eval", "eval", "iterates", "check-ni", "psc"]
    monkeypatch.chdir(README.parent)
    for argv, want in sessions:
        code = 1 if argv[0] in ("check-ni", "psc") else 0
        assert run(capsys, *argv) == (code, want, ""), argv


def test_readme_python_api_example():
    # the Python API block runs statement by statement, and each
    # `# -> result` comment is the value of its line's expression
    from hypersem import FamilySet, mask_of, ssc

    block = (README.read_text(encoding="utf-8").split("## Python API")[1]
             .split("```python\n")[1].split("```")[0])
    lines = block.splitlines()
    env, got = {}, {}
    for stmt in ast.parse(block).body:
        _, arrow, comment = lines[stmt.end_lineno - 1].partition("# -> ")
        if arrow:
            code = compile(ast.Expression(stmt.value), "README.md", "eval")
            got[comment.strip()] = eval(code, env)
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), env)
    assert got == {
        "[4, 5]": [4, 5],
        "ssc of {{4,5}}": ssc(FamilySet.explicit([mask_of([4, 5])])),
        "{∅,{4},{5}}": FamilySet.explicit([0, mask_of([4]), mask_of([5])]),
    }
