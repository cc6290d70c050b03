"""Command-line entry point.

Exit codes: 0 for success / verdict true, 1 for verdict false or
differential failures, 2 for usage and parse errors.

The argument parser is built once per process, on the first ``main``
call, and reused by every later call; parsing leaves it unchanged.
"""

import argparse
import functools
import sys

from .errors import WorkbenchError
from .harness import (GenConfig, diff_prop1, diff_thm1, enumerate_downsets,
                      search_ssc_necessity)
from .hyper import LoopVariant, happly, loop_iterates, strict_gate
from .lang import (Atom, Choice, If, Seq, Skip, While, parse, pp_bool,
                   pp_stmt)
from .noninterference import (LowView, ni_hyper, ni_possibilistic,
                              ni_relational)
from .notation import (family_json, format_family, format_state,
                       format_state_set, parse_family, parse_state,
                       parse_state_set, state_set_json, to_json_text)
from .semantics import sem_rel, sem_tr
from .space import StateSpace
from .transformer import psc_check

_VARIANTS = {v.value: v for v in LoopVariant}


def _count(text):
    """argparse type of enumerate --size, --steps and --trials: an int >= 0."""
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {n}")
    return n


def _positive(text):
    """argparse type of diff --size: an int >= 1."""
    n = _count(text)
    if n == 0:
        raise argparse.ArgumentTypeError("must be positive, got 0")
    return n


def _read_program(path):
    # utf-8-sig drops a leading byte-order mark; one elsewhere is an error
    with open(path, encoding="utf-8-sig") as fh:
        return parse(fh.read())


def _ast_lines(node):
    """The AST as indented lines; the stack holds (node or line, indent),
    so no nesting depth reaches the recursion limit."""
    stack = [(node, 0)]
    while stack:
        node, indent = stack.pop()
        pad = "  " * indent
        if isinstance(node, str):
            yield pad + node
        elif isinstance(node, Skip):
            yield pad + "skip"
        elif isinstance(node, Atom):
            yield pad + "atom " + pp_stmt(node)
        elif isinstance(node, (Seq, Choice)):
            yield pad + type(node).__name__.lower()
            stack += [(part, indent + 1) for part in reversed(node.parts)]
        elif isinstance(node, If):
            yield pad + "if " + pp_bool(node.cond)
            stack += [(node.orelse, indent + 1), ("else", indent),
                      (node.then, indent + 1)]
        elif isinstance(node, While):
            yield pad + "while " + pp_bool(node.cond)
            stack.append((node.body, indent + 1))


def _cmd_parse(args):
    pf = _read_program(args.file)
    pf.space()  # the declarations must define a state space
    for n, lo, hi in pf.decls:
        print(f"var {n}: {lo}..{hi}")
    for group, names in (("low", pf.low), ("lowin", pf.low_in),
                         ("lowout", pf.low_out)):
        if names:
            print(f"{group} " + ", ".join(names))
    for line in _ast_lines(pf.body):
        print(line)
    return 0


def _cmd_eval(args):
    pf = _read_program(args.file)
    space = pf.space()
    if args.level == "hyper":
        fam = parse_family(space, args.input)
        variant = _VARIANTS[args.variant]
        problem = strict_gate(fam, variant, strict=not args.no_strict_ssc)
        if problem:
            print(f"warning: {problem}; evaluating anyway", file=sys.stderr)
        out = happly(pf.body, fam, space, variant, strict=False)
        if args.format == "json-like":
            print(to_json_text(family_json(space, out,
                                           antichain=args.antichain)))
        else:
            print(format_family(space, out, antichain=args.antichain))
        return 0
    if args.level == "rel":
        sid = parse_state(space, args.input)
        out = sem_rel(pf.body, space).dirimg(1 << sid)
    else:
        mask = parse_state_set(space, args.input)
        out = sem_tr(pf.body, space).apply(mask)
    print(to_json_text(state_set_json(space, out)) if args.format == "json-like"
          else format_state_set(space, out))
    return 0


def _cmd_iterates(args):
    pf = _read_program(args.file)
    space = pf.space()
    if not isinstance(pf.body, While):
        raise WorkbenchError(
            "iterates needs a program whose body is a single loop")
    fam = parse_family(space, args.query)
    variant = _VARIANTS[args.variant]
    strict_gate(fam, variant, strict=True)
    vals = loop_iterates(pf.body.cond, pf.body.body, fam, args.steps,
                         space, variant)
    for i, v in enumerate(vals):
        print(f"Q{i} = {format_family(space, v)}")
    return 0


def ni_verdicts(pf, space, forms):
    """Yield (form, NIVerdict) for each NI form of a program's low policy,
    in order, over one state space.  Each verdict is computed when asked
    for, so a caller that prints as it goes shows the earlier verdicts
    before a later form fails.  ``low`` counts on both sides: the input
    view is low + lowin and the output view low + lowout.  A program with
    no low variables on a side is refused before the first verdict."""
    low_in = tuple(dict.fromkeys(pf.low + pf.low_in))
    low_out = tuple(dict.fromkeys(pf.low + pf.low_out))
    if not low_in and not low_out:
        raise WorkbenchError("program declares no low variables")
    if not low_out:
        raise WorkbenchError(
            "program declares no output low variables (low or lowout)")
    if not low_in:
        raise WorkbenchError(
            "program declares no input low variables (low or lowin)")
    view_in = LowView(space, low_in)
    view_out = view_in if low_out == low_in else LowView(space, low_out)
    rel = sem_rel(pf.body, space)
    for form in forms:
        if form == "rel":
            yield form, ni_relational(rel, view_in, view_out)
        elif form == "poss":
            yield form, ni_possibilistic(rel, view_in, view_out)
        else:
            yield form, ni_hyper(pf.body, view_in, view_out)


def _cmd_check_ni(args):
    pf = _read_program(args.file)
    forms = ("rel", "poss", "hyper") if args.form == "all" else (args.form,)
    space = pf.space()
    ok = True
    for form, verdict in ni_verdicts(pf, space, forms):
        if verdict:
            print(f"{form}: secure")
            continue
        ok = False
        if form == "hyper":
            cls, img = verdict.witness
            print(f"{form}: insecure  class={format_state_set(space, cls)} "
                  f"image={format_state_set(space, img)}")
        elif form == "poss":
            s, t = verdict.witness
            print(f"{form}: insecure  required successor missing for "
                  f"{format_state(space, s)} ~> {format_state(space, t)}")
        else:
            s, s2, t, t2 = verdict.witness
            print(f"{form}: insecure  witness "
                  f"{format_state(space, s)}->{format_state(space, s2)} vs "
                  f"{format_state(space, t)}->{format_state(space, t2)}")
    return 0 if ok else 1


def _print_report(kind, report):
    print(f"{kind}: trials={report.trials} failures={report.failures}"
          + (f" strict-cases={report.strict_cases}" if report.strict_cases else "")
          + (f" cross-checks={report.cross_checks}" if report.cross_checks else ""))
    if report.first_witness:
        print("first witness:")
        print(report.first_witness)
    return 0 if report.failures == 0 else 1


def _cmd_diff(args):
    if args.cross_check and not args.thm1:
        raise WorkbenchError("--cross-check applies to --thm1 only")
    cfg = GenConfig(seed=args.seed, max_space=args.size or 10)
    if args.prop1:
        return _print_report("prop1", diff_prop1(cfg, trials=args.trials))
    if args.thm1:
        size = args.size or 4
        cfg = GenConfig(seed=args.seed, max_space=size, space_size=size)
        queries = (list(enumerate_downsets(size)) if size <= 5 else None)
        report = diff_thm1(cfg, trials=args.trials, queries=queries,
                           cross_check=args.cross_check)
        return _print_report("thm1", report)
    mism, checked = search_ssc_necessity(seed=args.seed, trials=args.trials,
                                         size=args.size or 4)
    print(f"non-closed queries with fixpoint != lift: {mism}/{checked}")
    return 0


def _cmd_psc(args):
    pf = _read_program(args.file)
    space = pf.space()
    result = psc_check(sem_rel(pf.body, space))
    if result:
        print("psc: holds")
        return 0
    print(f"psc: fails  q={format_state_set(space, result.q)} "
          f"r={format_state_set(space, result.r)}")
    return 1


def _cmd_enumerate(args):
    fams = enumerate_downsets(args.size)
    # states s=0..size-1; at size 0 the one state of s=0..0 is never named
    space = StateSpace((("s", 0, max(args.size, 1) - 1),))
    count = 0
    for fam in fams:
        count += 1
        if args.list:
            print(format_family(space, fam))
    print(f"nonempty subset-closed families over {args.size} states: {count}")
    return 0


@functools.cache
def build_parser():
    """The process's one argument parser; callers must not change it."""
    ap = argparse.ArgumentParser(
        prog="hypersem",
        description="finite-state workbench for relational, transformer and "
                    "hyper-level program semantics")
    sub = ap.add_subparsers(dest="cmd")

    p = sub.add_parser("parse", help="parse a program and print its AST")
    p.add_argument("file")

    p = sub.add_parser("eval", help="evaluate a program on an input literal")
    p.add_argument("file")
    p.add_argument("--level", choices=("rel", "tr", "hyper"), default="tr")
    p.add_argument("--input", required=True,
                   help="state / state set / family literal, per level")
    p.add_argument("--variant", choices=sorted(_VARIANTS), default="paper")
    p.add_argument("--no-strict-ssc", action="store_true",
                   help="downgrade the subset-closed query check to a warning")
    p.add_argument("--format", choices=("text", "json-like"), default="text")
    p.add_argument("--antichain", action="store_true",
                   help="print only maximal sets of the result family")

    p = sub.add_parser("iterates", help="print loop-functional iterates")
    p.add_argument("file")
    p.add_argument("--query", required=True)
    p.add_argument("--steps", type=_count, required=True)
    p.add_argument("--variant", choices=sorted(_VARIANTS), default="paper")

    p = sub.add_parser("check-ni", help="noninterference checks")
    p.add_argument("file")
    p.add_argument("--form", choices=("rel", "poss", "hyper", "all"),
                   default="all")

    p = sub.add_parser("diff", help="differential oracles and searches")
    battery = p.add_mutually_exclusive_group(required=True)
    battery.add_argument("--prop1", action="store_true")
    battery.add_argument("--thm1", action="store_true")
    battery.add_argument("--search", choices=("ssc-necessity",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=_count, default=50)
    p.add_argument("--size", type=_positive)
    p.add_argument("--cross-check", action="store_true",
                   help="verify demand-driven loop values against the "
                        "synchronized iteration")

    p = sub.add_parser("psc", help="check the subset-image property of a "
                                   "program's direct image")
    p.add_argument("file")

    p = sub.add_parser("enumerate", help="enumerate subset-closed families")
    p.add_argument("--size", type=_count, required=True)
    p.add_argument("--list", action="store_true")

    return ap


_HANDLERS = {
    "parse": _cmd_parse,
    "eval": _cmd_eval,
    "iterates": _cmd_iterates,
    "check-ni": _cmd_check_ni,
    "diff": _cmd_diff,
    "psc": _cmd_psc,
    "enumerate": _cmd_enumerate,
}


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.cmd is None:
        ap.print_usage(sys.stderr)
        return 2
    try:
        return _HANDLERS[args.cmd](args)
    except WorkbenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: program nested too deeply (recursion limit reached)",
              file=sys.stderr)
        return 2
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
