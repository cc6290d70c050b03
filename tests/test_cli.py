import json
import pathlib
import random
import shlex

import pytest

from hypersem import cli
from hypersem.cli import main
from hypersem.family import FamilySet
from hypersem.harness import GenConfig, gen_program
from hypersem.lang import ProgramFile, parse, pp_program
from hypersem.notation import format_family, format_state, format_state_set

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


def test_psc_verdicts(capsys, tmp_path):
    good = tmp_path / "fun.rel"
    good.write_text("var x: 0..3;\n{x=0} -> {x=1}\n{x=1} -> {x=1}\n")
    code, out, _ = run(capsys, "psc", str(good))
    assert code == 0 and "holds" in out

    bad = tmp_path / "crossing.rel"
    bad.write_text("var x: 0..3;\n{x=0} -> {x=2}\n{x=0} -> {x=3}\n"
                   "{x=1} -> {x=2}\n{x=1} -> {x=3}\n")
    code, out, _ = run(capsys, "psc", str(bad))
    assert code == 1 and "fails" in out and "q=" in out


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
        rel = tmp_path / f"r{n}.rel"
        pairs = [f"{{s={t}}} -> {{s={(t + 1) % n}}}" for t in range(n)]
        if code_want:
            pairs.append(f"{{s={n - 1}}} -> {{s=1}}")
        rel.write_text(f"var s: 0..{n - 1};\n" + "\n".join(pairs) + "\n")
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
    ("function.rel", [["psc"]]),
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
    ("prog.rel", "var x: 0..BIG;\n{x=0} -> {x=1}\n", ["psc"]),
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


def test_nested_program_answers(capsys, tmp_path):
    # an `if` level costs the parser two frames (a statement and a unit),
    # so a 400-level nest answers below the interpreter's recursion limit
    def nest(n):
        p = tmp_path / f"nest{n}.imp"
        p.write_text("var x: 0..1;\nlow x;\n" + "if x = 0 { " * n
                     + "x := 1 - x" + " } else { skip }" * n + "\n")
        return str(p)

    deep = nest(400)
    code, out, _ = run(capsys, "parse", deep)
    assert code == 0 and out.count("if x = 0") == 400
    code, out, _ = run(capsys, "check-ni", deep)
    assert (code, out) == (0, "rel: secure\nposs: secure\nhyper: secure\n")
    # the hyper engine's own frames bind first, so its nest is shallower
    for path, level, literal, want in (
            (deep, "rel", "{x=0}", "[{x=1}]\n"),
            (deep, "tr", "[{x=0},{x=1}]", "[{x=1}]\n"),
            (nest(180), "hyper", "[[],[{x=0}]]", "[[],[{x=1}]]\n")):
        code, out, _ = run(capsys, "eval", path, "--level", level,
                           "--input", literal)
        assert (code, out) == (0, want), level


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


BAD_DECLS = {
    "duplicate": "var x: 0..1;\nvar x: 0..1;\n",
    "empty-range": "var x: 3..1;\n",
    "too-many-states": "var x: 0..100;\n",
}


@pytest.mark.parametrize("decls", list(BAD_DECLS.values()), ids=list(BAD_DECLS))
def test_bad_declarations_are_errors_not_verdicts(capsys, tmp_path, decls):
    imp = tmp_path / "bad.imp"
    imp.write_text(decls + "low x;\nskip\n")
    rel = tmp_path / "bad.rel"
    rel.write_text(decls + "{x=0} -> {x=1}\n")
    for argv in (["eval", str(imp), "--input", "[{x=0}]"],
                 ["check-ni", str(imp)],
                 ["psc", str(rel)]):
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert err.startswith("error:") and "Traceback" not in err


def test_diff_beyond_the_state_cap_is_an_error(capsys):
    code, _, err = run(capsys, "diff", "--thm1", "--size", "70")
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err


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
    rel = tmp_path / "bad.rel"
    rel.write_text(line + "\n{x=0} -> {x=1}\n")
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
    rel = tmp_path / "twice.rel"
    rel.write_text("var x: 0..3;\n{x=0,x=2} -> {x=1}\n")
    for argv in (["eval", loop_file, "--level", "rel", "--input", "{x=2,x=1}"],
                 ["psc", str(rel)]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert "repeated variable 'x'" in err


def _mutate(rng, text):
    i = rng.randrange(len(text) + 1)
    c = rng.choice(" ;{}[](),=<>-+*:.!&|xyz019")
    return rng.choice((text[:i] + text[i + 1:], text[:i] + c + text[i:],
                       text[:i] + c + text[i + 1:]))


def test_front_end_fuzz(capsys, tmp_path):
    # generator programs and one-character mutations of them, through
    # parse, check-ni and eval with (mutated) literals: the exit-code
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
            text = _mutate(rng, text)
            literal = _mutate(rng, literal)
        path.write_text(text)
        for argv in (["parse", str(path)], ["check-ni", str(path)],
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
    rel = tmp_path / "fun.rel"
    rel.write_text("var x: 0..3;\n{x=0} -> {x=1}\n{x=1} -> {x=1}\n")
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
    # the quick tour and the check-ni example, run from the repository
    # root: stdout byte for byte, and the exit code (1 for a leak)
    sessions = _readme_sessions()
    assert [argv[0] for argv, _ in sessions] == [
        "eval", "eval", "iterates", "check-ni"]
    monkeypatch.chdir(README.parent)
    for argv, want in sessions:
        code = 1 if argv[0] == "check-ni" else 0
        assert run(capsys, *argv) == (code, want, ""), argv
