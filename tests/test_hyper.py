import copy
import gc
import pathlib
import random
import re
import types
import weakref
from functools import reduce

import pytest
from hypothesis import given, strategies as st

from hypersem import hyper
from hypersem._kernels import psc_scan_table
from hypersem.errors import (IterationBudgetExceeded, NonSubsetClosedQuery,
                             QueryBlowup)
from hypersem.family import (FamilySet, bounded_product, family_le,
                             family_product, family_union, mask_of,
                             powerset_family, ssc, subsets_of)
from hypersem.harness import (GenConfig, check_thm1, enumerate_downsets,
                              gen_program, lift_family, random_downset)
from hypersem.hyper import HEval, happly, loop_iterates, strict_gate
from hypersem.lang import (Assign, Assume, Atom, BoolConst, Choice, Cmp, If,
                           IntBin, IntConst, IntVar, Not, ProgramFile, Seq,
                           Skip, While, elaborate_atom, join_branches, parse,
                           pp_stmt)
from hypersem.reference import (LoopVariant, ref_eval, ref_iterates,
                                ref_loop_system)
from hypersem.notation import format_family, parse_family
from hypersem.relation import Rel
from hypersem.semantics import sem_rel, sem_tr
from hypersem.space import StateSpace
from support import (binary_chains, is_monotone, is_partial_function,
                     mask_guard, rel_to_atom, rnd_partial_fn, rnd_rel,
                     statements)

PROGRAMS = pathlib.Path(__file__).parent.parent / "programs"


def fam(*masks):
    return FamilySet.explicit(masks)


def loop_program():
    pf = parse("var x: 0..7; while x < 4 { x := x + 1 }")
    return pf.body, pf.space()


Q25 = fam(mask_of([2, 5]))


def test_engine_computes_the_paper_variant_only(x8):
    for variant in (LoopVariant.NAIVE, LoopVariant.OTIMES):
        with pytest.raises(ValueError):
            HEval(x8, variant)


@pytest.mark.parametrize("denote", [
    lambda node, space: HEval(space).eval(node, powerset_family(1)),
    sem_rel, sem_tr,
    lambda node, space: ref_eval(node, {1}, space),
    lambda node, space: pp_stmt(node),
    elaborate_atom], ids=["hyper", "sem_rel", "sem_tr", "ref_eval",
                          "pp_stmt", "elaborate_atom"])
def test_an_expression_is_not_a_statement(x8, denote):
    with pytest.raises(TypeError, match="IntConst"):
        denote(IntConst(1), x8)


def test_cross_check_reports_an_exceeded_kleene_budget(monkeypatch):
    # the closed-form solve of `while true { skip }` takes no budget, so
    # a zero budget is first exceeded in the cross-check's Kleene
    # iteration; the CLI reaches it through `diff --thm1 --cross-check`
    # (test_cli)
    monkeypatch.setattr(hyper.reference, "loop_budget",
                        lambda size, nqueries: 0)
    pf = parse("var x: 0..1; while true { skip }")
    ev = HEval(pf.space(), cross_check=True)
    with pytest.raises(IterationBudgetExceeded,
                       match="^loop iteration did not stabilize within 0 "
                             "steps$"):
        ev.eval(pf.body, FamilySet.downset((0b11,)))
    assert ev.stats.value_updates == 0


# ---------------------------------------------------------------- operators

def test_inner_join_example(x8):
    c = Atom(Assign("x", IntBin("+", IntVar("x"), IntConst(1))))
    d = Atom(Assign("x", IntBin("+", IntVar("x"), IntConst(2))))
    ev = HEval(x8)
    out = ev.eval(Choice((c, d)), fam(mask_of([0])))
    assert out.members() == {0, mask_of([1]), mask_of([2]), mask_of([1, 2])}


def test_inner_join_empty_query(x8):
    ev = HEval(x8)
    assert ev.eval(Choice((Skip(), Skip())), FamilySet.empty()).is_empty


def test_inner_join_contains_lift(x8):
    # C [] C denotes C's transformer, so its lift is C's
    rng = random.Random(0)
    for seed in range(10):
        cfg = GenConfig(seed=seed, allow_choice=False,
                        allow_nondet_atoms=False, max_space=8)
        pf = gen_program(cfg)
        size = pf.space().size
        queries = [random_downset(rng, size) for _ in range(5)]
        both = ProgramFile(pf.decls, (), (), (), Choice((pf.body, pf.body)))
        report = check_thm1(both, queries)
        assert report.failures == 0, report.first_witness


def test_guarded_join_example(x8):
    c = Atom(Assign("x", IntBin("+", IntVar("x"), IntConst(1))))
    b = Cmp("<", IntVar("x"), IntConst(4))
    ev = HEval(x8)
    out = ev.eval(If(b, c, Skip()), Q25)
    assert out.members() == {0, mask_of([3]), mask_of([5]), mask_of([3, 5])}
    assert out.is_subset_closed()  # closed although Q25 is not


def test_guarded_join_true_reduces_to_branch(x8):
    rng = random.Random(1)
    for seed in range(10):
        cfg = GenConfig(seed=seed, allow_choice=False,
                        allow_nondet_atoms=False, max_space=8)
        pf = gen_program(cfg)
        space = pf.space()
        ev = HEval(space)
        for _ in range(4):
            q = random_downset(rng, space.size)
            out = ev.eval(If(BoolConst(True), pf.body, Skip()), q)
            assert out == ev.eval(pf.body, q)


def test_guarded_join_monotone_in_query(x8):
    rng = random.Random(2)
    b = Cmp("<", IntVar("x"), IntConst(4))
    c = Atom(Assign("x", IntBin("+", IntVar("x"), IntConst(1))))
    d = Atom(Assign("x", IntBin("*", IntVar("x"), IntConst(2))))
    ev = HEval(x8)
    for _ in range(40):
        small = {rng.randrange(256) for _ in range(rng.randint(0, 3))}
        big = small | {rng.randrange(256) for _ in range(2)}
        out_small = ev.eval(If(b, c, d), FamilySet.explicit(small))
        out_big = ev.eval(If(b, c, d), FamilySet.explicit(big))
        assert family_le(out_small, out_big)


def _as_guarded_choice(node):
    """node with every `if b { c } else { d }` in it rewritten to
    `(assume b; c) [] (assume !b; d)`."""
    if isinstance(node, (Seq, Choice)):
        return type(node)(tuple(map(_as_guarded_choice, node.parts)))
    if isinstance(node, While):
        return While(node.cond, _as_guarded_choice(node.body))
    if isinstance(node, If):
        return Choice((
            Seq((Atom(Assume(node.cond)), _as_guarded_choice(node.then))),
            Seq((Atom(Assume(Not(node.cond))),
                 _as_guarded_choice(node.orelse)))))
    return node


def test_if_is_guarded_choice_at_every_level():
    # the law that lets `if` share the inner join of `[]`: a conditional is
    # the choice of its two branches, each behind an assume of its side of
    # the guard.  Checked in context, on generated programs over 4 states:
    # the engine at every subset-closed query, the reference's anomalous
    # variants at every one-member query (whole down-sets cost it seconds)
    queries = list(enumerate_downsets(4))
    assert len(queries) == 167
    checked = 0
    for seed in range(200):
        pf = gen_program(GenConfig(seed=seed, space_size=4))
        if not any(isinstance(n, If) for n in statements(pf.body)):
            continue
        space = pf.space()
        body, choice = pf.body, _as_guarded_choice(pf.body)
        assert sem_rel(body, space) == sem_rel(choice, space)
        tr, tr_choice = sem_tr(body, space), sem_tr(choice, space)
        assert all(tr.apply(q) == tr_choice.apply(q) for q in range(16))
        ev, ev_choice = HEval(space), HEval(space)
        for q in queries:
            assert ev.eval(body, q) == ev_choice.eval(choice, q), (seed, q)
        for variant in (LoopVariant.NAIVE, LoopVariant.OTIMES):
            for p in range(16):
                assert (ref_eval(body, {p}, space, variant)
                        == ref_eval(choice, {p}, space, variant)), (
                            seed, p, variant)
        checked += 1
        if checked == 25:
            break
    assert checked == 25


# ---------------------------------------------------------------- happly

def test_happly_skip_and_atom_identity(x8):
    q = ssc(Q25)
    assert happly(Skip(), q, x8) == q
    c = Atom(Assign("x", IntBin("+", IntVar("x"), IntConst(1))))
    empty_only = fam(0)
    assert happly(c, empty_only, x8) == empty_only


def test_happly_loop_on_closed_query():
    node, space = loop_program()
    out = happly(node, ssc(Q25), space)
    assert out == ssc(fam(mask_of([4, 5])))
    assert mask_of([4, 5]) in out
    assert out.antichain() == {mask_of([4, 5])}


def test_happly_strict_gate():
    node, space = loop_program()
    with pytest.raises(NonSubsetClosedQuery):
        happly(node, Q25, space)
    with pytest.raises(NonSubsetClosedQuery):
        happly(node, FamilySet.empty(), space)
    assert strict_gate(Q25, LoopVariant.PAPER, strict=False) \
        == "query is not subset closed"
    out = happly(node, Q25, space, strict=False)
    assert out == ssc(fam(mask_of([4, 5])))


def test_happly_naive_variant_permits_open_queries():
    node, space = loop_program()
    out = happly(node, Q25, space, LoopVariant.NAIVE)
    assert out == fam(0, mask_of([4]), mask_of([5]))


# ---------------------------------------------------------------- iterates

def test_naive_iterates_match_worked_example():
    node, space = loop_program()
    vals = loop_iterates(node.cond, node.body, Q25, 4, space,
                         LoopVariant.NAIVE)
    assert vals[0] == fam(0)
    assert vals[1] == fam(0, mask_of([5]))
    assert vals[2] == fam(0, mask_of([5]))
    assert vals[3] == fam(0, mask_of([4]), mask_of([5]))
    assert vals[4] == vals[3]


def test_otimes_iterates_match_worked_example():
    node, space = loop_program()
    vals = loop_iterates(node.cond, node.body, Q25, 3, space,
                         LoopVariant.OTIMES)
    assert vals[0] == fam(0)
    assert vals[1] == fam(mask_of([5]))
    assert not family_le(vals[0], vals[1])
    assert not family_le(vals[1], vals[0])
    assert vals[3] == fam(mask_of([4, 5]))


def test_paper_variant_iterates_ascend_to_fixpoint():
    node, space = loop_program()
    q = ssc(Q25)
    vals = loop_iterates(node.cond, node.body, q, 4, space)
    assert vals[0] == fam(0)
    assert vals[1] == fam(0, mask_of([5]))
    assert vals[2] == vals[1]
    assert vals[3] == ssc(fam(mask_of([4, 5])))
    assert vals[4] == vals[3]
    for a, b in zip(vals, vals[1:]):
        assert family_le(a, b)


# ---------------------------------------------------------------- lfp

def test_lfp_while_false_is_closure():
    pf = parse("var x: 0..7; while false { x := x + 1 }")
    space = pf.space()
    rng = random.Random(3)
    for _ in range(15):
        members = {rng.randrange(256) for _ in range(rng.randint(1, 3))}
        q = FamilySet.explicit(members)
        assert HEval(space).eval(pf.body, q) == ssc(q)


def test_lfp_while_true_skip_is_bottom():
    pf = parse("var x: 0..7; while true { skip }")
    space = pf.space()
    assert HEval(space).eval(pf.body, ssc(Q25)) == fam(0)


def test_lfp_demand_equals_loop_value():
    node, space = loop_program()
    assert HEval(space).eval(node, ssc(Q25)) == ssc(fam(mask_of([4, 5])))
    assert HEval(space).eval(node, FamilySet.empty()).is_empty


def test_cross_check_flag_agrees():
    for seed in range(12):
        cfg = GenConfig(seed=seed, allow_choice=False,
                        allow_nondet_atoms=False, max_space=6)
        pf = gen_program(cfg)
        space = pf.space()
        ev = HEval(space, cross_check=True)
        rng = random.Random(seed)
        for _ in range(4):
            ev.eval(pf.body, random_downset(rng, space.size))
        assert not ev.stats.cross_mismatches


def test_loop_with_a_cyclic_system_reaches_its_least_fixpoint():
    # a counter that wraps: the unknowns of the loop's equation system
    # form a cycle, whose unknowns the solve must give one value
    pf = parse((PROGRAMS / "cycle.imp").read_text(encoding="utf-8"))
    space = pf.space()
    q = parse_family(space, "[[],[{x=0,y=0}]]")
    ev = HEval(space, cross_check=True)
    got = ev.eval(pf.body, q)
    assert format_family(space, got, antichain=True) == (
        "[[{x=0,y=1},{x=1,y=1},{x=2,y=1},{x=3,y=1}]]")
    assert ev.stats.cross_checks == 1 and not ev.stats.cross_mismatches
    # havoc makes the exit nondeterministic: the value lies strictly
    # between the lift and its closure
    report = check_thm1(pf, [q])
    assert (report.failures, report.strict_cases) == (0, 1)

    # the system still has a cycle: 4 of its 5 unknowns in one component
    fresh = HEval(space)
    _, _, loop, _ = fresh._compile(pf.body)
    system = fresh._solve(pf.body, loop, q.antichain(), {})

    def reach(u):
        seen, stack = {u}, [u]
        while stack:
            d = system[stack.pop()][0]
            if d in system and d not in seen:
                seen.add(d)
                stack.append(d)
        return seen

    component = {u: {v for v in reach(u) if u in reach(v)} for u in system}
    assert len(system) == 5
    cycle = max(component.values(), key=len)
    assert len(cycle) == 4
    # every unknown of the cycle holds the OR of the cycle's wraps
    memo = ev._entries[id(pf.body)][3]
    assert {memo[u] for u in cycle} == {
        reduce(lambda a, b: a | b, (system[u][1] for u in cycle))}


def test_one_literal_loops_solve_to_their_kleene_limits(monkeypatch):
    # every loop `while g { rel {...} }` over three states, at every
    # principal down-set, cross-checked by Kleene iteration: 148 of the
    # solves have a cycle of two unknowns or more
    solve = HEval._solve
    cyclic = 0

    def counting_solve(ev, node, loop, roots, memo):
        nonlocal cyclic
        system = solve(ev, node, loop, roots, memo)
        for u in system:
            path = []
            while u in system and u not in path:
                path.append(u)
                u = system[u][0]
            if u in path and len(path) - path.index(u) >= 2:
                cyclic += 1
                break
        return system

    monkeypatch.setattr(HEval, "_solve", counting_solve)
    solves = mismatches = 0
    for guard in ("x = 0", "x != 2", "x < 2", "true", "x > 0"):
        for bits in range(1 << 9):
            pairs = ", ".join(f"{{x={i // 3}}} -> {{x={i % 3}}}"
                              for i in range(9) if bits >> i & 1)
            pf = parse(f"var x: 0..2; while {guard} {{ rel {{ {pairs} }} }}")
            ev = HEval(pf.space(), cross_check=True)
            for m in range(8):
                ev.eval(pf.body, powerset_family(m))
            solves += ev.stats.demand_loops_solved
            mismatches += len(ev.stats.cross_mismatches)
    assert (solves, mismatches, cyclic) == (16830, 0, 148)


def test_an_evaluator_is_freed_when_its_caller_drops_it():
    # every rule is a module function called with the evaluator, so no
    # entry refers back to it and reference counting alone frees it
    pf = parse((PROGRAMS / "cycle.imp").read_text(encoding="utf-8"))
    space = pf.space()
    enabled = gc.isenabled()
    gc.disable()
    try:
        ev = HEval(space, cross_check=True)
        ev.eval(pf.body, parse_family(space, "[[],[{x=0,y=0}]]"))
        assert len(ev._entries) == 6 and ev.stats.cross_checks == 1
        for _, rule, args, _ in ev._entries.values():
            assert not any(isinstance(x, types.MethodType)
                           for x in (rule, *args))
        alive = weakref.ref(ev)
        del ev
        assert alive() is None
    finally:
        if enabled:
            gc.enable()


# ---------------------------------------------------------------- refinement

def test_hrefines_reflexive_and_choice_chain(x8):
    # a choice's hyper denotation contains each branch's, pointwise on
    # subset-closed queries
    add3 = Atom(Assign("x", IntBin("+", IntVar("x"), IntConst(3))))
    add5 = Atom(Assign("x", IntBin("+", IntVar("x"), IntConst(5))))
    both = Choice((add3, add5))
    ev = HEval(x8)

    def refines(c, d, queries):
        return all(family_le(ev.eval(c, q), ev.eval(d, q)) for q in queries)

    battery = [powerset_family(mask_of([0])), ssc(Q25),
               powerset_family(x8.full_mask)]
    assert refines(add3, add3, battery)
    assert refines(add3, both, battery)
    assert not refines(add5, add3, [powerset_family(mask_of([0]))])


# ---------------------------------------------------------------- lemmas

def test_guarded_join_output_always_closed():
    # branches must preserve closure (deterministic atoms); the query may
    # be anything, closed or not
    space = StateSpace((("s", 0, 4),))
    rng = random.Random(4)
    ev = HEval(space)
    for _ in range(150):
        c = rel_to_atom(rnd_partial_fn(rng, space), space)
        d = rel_to_atom(rnd_partial_fn(rng, space), space)
        b = Cmp("<", IntVar("s"), IntConst(rng.randint(0, 4)))
        q = FamilySet.explicit(
            {rng.randrange(32) for _ in range(rng.randint(1, 3))})
        out = ev.eval(If(b, c, d), q)
        assert out.is_subset_closed()


def test_lift_of_guarded_transformer_on_closed_queries():
    # equality of the lifted guarded join with the guarded inner join of
    # the lifts, on subset-closed queries, arbitrary (nondet) branches
    space = StateSpace((("s", 0, 3),))
    rng = random.Random(5)
    for _ in range(200):
        c_rel = rnd_rel(rng, space)
        d_rel = rnd_rel(rng, space)
        bmask = rng.randrange(16)
        b = mask_guard(space, bmask)
        node_if = If(b, rel_to_atom(c_rel, space), rel_to_atom(d_rel, space))
        q = random_downset(rng, space.size)
        report = check_thm1(ProgramFile(space.vars, (), (), (), node_if), [q])
        assert (report.failures, report.strict_cases) == (0, 0)


def test_lift_below_inner_join_with_strict_witness(x8):
    c = Atom(Assign("x", IntBin("+", IntVar("x"), IntConst(1))))
    d = Atom(Assign("x", IntBin("+", IntVar("x"), IntConst(2))))
    q = fam(mask_of([0]))
    choice = Choice((c, d))
    report = check_thm1(ProgramFile(x8.vars, (), (), (), choice), [q])
    assert (report.failures, report.strict_cases) == (0, 1)
    joined = lift_family(sem_tr(choice, x8), q)
    inner = HEval(x8).eval(choice, q)
    # the stored strict witness: the inner join has strictly more sets
    assert joined.members() == {mask_of([1, 2])}
    assert inner.members() == {0, mask_of([1]), mask_of([2]), mask_of([1, 2])}


def test_lift_below_hyper_for_nondet_programs():
    rng = random.Random(6)
    for seed in range(25):
        cfg = GenConfig(seed=seed, allow_choice=True,
                        allow_nondet_atoms=True, max_space=6)
        pf = gen_program(cfg)
        size = pf.space().size
        queries = [random_downset(rng, size) for _ in range(4)]
        report = check_thm1(pf, queries)
        assert report.failures == 0, report.first_witness


def test_hyper_below_closure_of_lift_for_nondet_programs():
    # lift(Q) ⊆ hyper(Q) ⊆ ↓lift(Q), so both sides share their antichain.
    # Both are additive over Q's antichain, so checking every principal
    # down-set ↓{m} checks every subset-closed query of the program.
    strict = 0
    for seed in range(60):
        cfg = GenConfig(seed=seed, allow_choice=True,
                        allow_nondet_atoms=True, max_space=6)
        pf = gen_program(cfg)
        queries = map(powerset_family, range(1 << pf.space().size))
        report = check_thm1(pf, queries)
        assert report.failures == 0, (seed, report.first_witness)
        strict += report.strict_cases
    assert strict


def test_deterministic_programs_preserve_closure():
    rng = random.Random(7)
    for seed in range(25):
        cfg = GenConfig(seed=seed, allow_choice=False,
                        allow_nondet_atoms=False, max_space=8)
        pf = gen_program(cfg)
        space = pf.space()
        ev = HEval(space)
        for _ in range(4):
            q = random_downset(rng, space.size)
            assert ev.eval(pf.body, q).is_subset_closed()


def test_naive_loop_anomaly_disagrees_with_lift():
    node, space = loop_program()
    lifted = lift_family(sem_tr(node, space), Q25)
    naive = happly(node, Q25, space, LoopVariant.NAIVE)
    assert lifted == fam(mask_of([4, 5]))
    assert naive == fam(0, mask_of([4]), mask_of([5]))
    assert naive != lifted


# ---------------------------------------------------------------- reference

def test_psc_table_lift_preserves_closure():
    # the subset-image property makes the elementwise lift keep families
    # subset closed, also for non-disjunctive table transformers
    tab = [0b100 if p & 0b011 == 0b011 else 0 for p in range(8)]
    assert is_monotone(tab, 3) and psc_scan_table(tab, 3)[0]
    rng = random.Random(9)
    for _ in range(60):
        q = random_downset(rng, 3)
        image = FamilySet.explicit(tab[p] for p in q.members())
        assert image.is_subset_closed()


def test_engine_matches_reference_evaluator():
    rng = random.Random(8)
    for seed in range(60):
        cfg = GenConfig(seed=seed, max_space=5,
                        allow_choice=seed % 2 == 0,
                        allow_nondet_atoms=seed % 3 == 0)
        pf = gen_program(cfg)
        space = pf.space()
        ev = HEval(space)
        for _ in range(4):
            members = frozenset(
                rng.randrange(1 << space.size)
                for _ in range(rng.randint(1, 3)))
            q = FamilySet.explicit(members)
            want = ref_eval(pf.body, members, space)
            got = ev.eval(pf.body, q)
            assert got == FamilySet.explicit(want), pf.body


def _loops(node):
    """Every While node in a statement, outermost first."""
    return (s for s in statements(node) if isinstance(s, While))


def _random_queries(rng, size):
    """One explicit query and one subset-closed query."""
    members = {rng.randrange(1 << size) for _ in range(rng.randint(1, 3))}
    return [FamilySet.explicit(members), random_downset(rng, size)]


# the naive and otimes variants are computed by the reference itself
@pytest.mark.parametrize("variant", [LoopVariant.PAPER], ids=lambda v: v.value)
def test_every_variant_matches_reference_evaluator(variant):
    rng = random.Random(12)
    for seed in range(80):
        cfg = GenConfig(seed=seed, max_space=5, allow_choice=True,
                        allow_nondet_atoms=True)
        pf = gen_program(cfg)
        space = pf.space()
        ev = HEval(space)
        for q in _random_queries(rng, space.size) * 2:
            want = ref_eval(pf.body, q.members(), space, variant)
            assert ev.eval(pf.body, q) == FamilySet.explicit(want), pf.body
        for loop in _loops(pf.body):
            for q in _random_queries(rng, space.size):
                iters = ref_iterates(ref_loop_system(loop, q.members(),
                                                     space, variant))
                want = [FamilySet.explicit(vals[q.members()])
                        for _, vals in zip(range(6), iters)]
                got = loop_iterates(loop.cond, loop.body, q, 5, space)
                assert got == want, loop


def test_n_ary_join_matches_the_nested_binary_definition():
    # the reference joins a `[]` chain as one n-ary product at each member;
    # that is the chain nested to the left two branches at a time, under
    # every variant, on chains of 3-6 sub-statements of generated programs
    rng = random.Random(13)
    for seed in range(50):
        pf = gen_program(GenConfig(seed=seed, max_space=5))
        space = pf.space()
        subs = list(statements(pf.body))
        chain = Choice(tuple(rng.choice(subs)
                             for _ in range(rng.randint(3, 6))))
        nested = binary_chains(chain)
        assert nested != chain
        for variant in LoopVariant:
            members = frozenset(rng.randrange(1 << space.size)
                                for _ in range(rng.randint(1, 3)))
            assert (ref_eval(chain, members, space, variant)
                    == ref_eval(nested, members, space, variant)), (
                        seed, variant)


def test_long_atom_chain_answers_under_every_variant():
    # a 1,500-branch chain costs the reference no recursion depth; atoms
    # are monotone, so its binary join agrees with the engine's n-ary one
    pf = parse("var x: 0..3;\n" + " [] ".join(
        "x := 3 - x" if i % 5 == 0 else f"x := {i % 4}"
        for i in range(1500)))
    space = pf.space()
    q = powerset_family(0b0011)
    want = happly(pf.body, q, space)
    assert len(want.members()) > 4
    for variant in (LoopVariant.NAIVE, LoopVariant.OTIMES):
        assert happly(pf.body, q, space, variant) == want, variant


# ---------------------------------------------------------------- metamorphic
# The engine splits a query into atomic queries and unions their memoized
# values; these invariants are what make that split exact.

def _construct_cases(rng, nprograms=60):
    """Every sub-statement of generated programs over 4-6 states, with
    choice and nondeterministic atoms, each with one explicit and one
    subset-closed query, and named by its class: 'Atom*' for an atom that
    is not a partial function."""
    for seed in range(nprograms):
        cfg = GenConfig(seed=700 + seed, space_size=4 + seed % 3,
                        max_space=6, allow_choice=True,
                        allow_nondet_atoms=True)
        pf = gen_program(cfg)
        space = pf.space()
        for stmt in statements(pf.body):
            kind = type(stmt).__name__
            if isinstance(stmt, Atom) and not is_partial_function(
                    elaborate_atom(stmt.atom, space)):
                kind = "Atom*"
            for q in _random_queries(rng, space.size):
                yield kind, stmt, space, q


_CONSTRUCTS_SEEN = {"Seq", "Choice", "If", "While", "Atom", "Atom*"}


def test_every_value_is_additive_over_its_basis():
    # a down-set query's value is the union of the values at the down-sets
    # of its maximal members, for every construct; a loop reads only its
    # query's maximal members, so for loops explicit queries too.  Each
    # side has its own evaluator, and the parts are unioned over members,
    # not by family_union
    rng = random.Random(13)
    seen = set()
    for kind, stmt, space, q in _construct_cases(rng):
        if not q.is_subset_closed() and kind != "While":
            continue
        ev = HEval(space)
        parts = set()
        for m in q.antichain():
            parts |= ev.eval(stmt, powerset_family(m)).members()
        assert HEval(space).eval(stmt, q) == FamilySet.explicit(parts), stmt
        seen.add(kind)
    assert seen >= _CONSTRUCTS_SEEN


def test_every_construct_is_monotone_in_the_query():
    # F ⊆ G gives eval(F) ⊆ eval(G), in the engine and in the reference
    # under every variant: the lemma by which the reference's n-ary join
    # equals the nested binary joins
    rng = random.Random(14)
    seen = set()
    checks = 0
    for kind, stmt, space, small in _construct_cases(rng):
        extra = {rng.randrange(1 << space.size) for _ in range(2)}
        if small.is_subset_closed():
            big = FamilySet.downset(set(small.antichain()) | extra)
        else:
            big = FamilySet.explicit(set(small.members()) | extra)
        assert family_le(small, big)
        lo = HEval(space).eval(stmt, small)
        hi = HEval(space).eval(stmt, big)
        assert family_le(lo, hi), stmt
        for variant in LoopVariant:
            lo = ref_eval(stmt, small.members(), space, variant)
            hi = ref_eval(stmt, big.members(), space, variant)
            assert lo <= hi, (stmt, variant)
            checks += 1
        seen.add(kind)
    assert seen >= _CONSTRUCTS_SEEN
    assert checks == 2508


def test_every_construct_is_additive_over_maximal_members():
    # eval(s, ↓A) is the union of eval(s, ↓{p}) over p in max A, for every
    # sub-statement; the explicit form of ↓A takes the structural path
    rng = random.Random(15)
    cases = 0
    for seed in range(60):
        cfg = GenConfig(seed=900 + seed, max_space=6, allow_choice=True,
                        allow_nondet_atoms=True)
        pf = gen_program(cfg)
        space = pf.space()
        for stmt in statements(pf.body):
            q = random_downset(rng, space.size)
            whole = HEval(space).eval(stmt, q)
            ev = HEval(space)
            parts = family_union(
                *(ev.eval(stmt, powerset_family(p)) for p in q.antichain()))
            assert whole == parts, stmt
            structural = HEval(space).eval(
                stmt, FamilySet.explicit(q.members()))
            assert whole == structural, stmt
            cases += len(q.antichain()) > 1
    assert cases > 100


# ---------------------------------------------------------------- the memo

def test_shared_evaluator_matches_fresh_ones():
    # one evaluator over many programs, each built, evaluated on shuffled
    # queries and dropped (so node ids may be reused), with structurally
    # equal but distinct subtrees: every answer is a fresh evaluator's
    rng = random.Random(16)
    space = StateSpace((("x", 0, 5),))
    shared = HEval(space)
    for seed in range(40):
        cfg = GenConfig(seed=1300 + seed, max_vars=1, max_range=5,
                        space_size=6, allow_choice=True,
                        allow_nondet_atoms=True)
        body = gen_program(cfg).body
        twin = copy.deepcopy(body)
        cond = Cmp("<", IntVar("x"), IntConst(rng.randint(0, 5)))
        prog = rng.choice((body, Seq((body, twin)), Choice((body, twin)),
                           If(cond, body, twin), Seq((body, body))))
        queries = []
        for _ in range(3):
            queries += _random_queries(rng, space.size)
        rng.shuffle(queries)
        for q in queries:
            got = shared.eval(prog, q)
            assert got == HEval(space).eval(prog, q), prog
        del body, twin, prog


def test_each_atom_and_guard_is_compiled_once(monkeypatch):
    # one evaluator answers every down-set at 4 states of a thm1-style
    # program: each atom is elaborated, and each guard computed, once.  A
    # loop's guard is computed by the engine, and an `if`'s (the program
    # has no `[]`) when the engine reads its join branches from lang
    for seed in range(100):
        pf = gen_program(GenConfig(seed=seed, space_size=4, max_range=3,
                                   allow_choice=False,
                                   allow_nondet_atoms=False))
        nodes = list(statements(pf.body))
        if (any(isinstance(n, If) for n in nodes)
                and any(isinstance(n, While) for n in nodes)):
            break
    else:
        pytest.fail("no generated program has both an if and a while")
    calls = {"atom": [], "guard": []}

    def counted(key, fn, arg=lambda node: node):
        def wrapper(node, space):
            calls[key].append(arg(node))
            return fn(node, space)
        return wrapper

    monkeypatch.setattr(hyper, "elaborate_atom",
                        counted("atom", hyper.elaborate_atom))
    monkeypatch.setattr(hyper, "eval_bool", counted("guard", hyper.eval_bool))
    monkeypatch.setattr(hyper, "join_branches", counted(
        "guard", hyper.join_branches, lambda node: node.cond))
    space = pf.space()
    ev = HEval(space)
    downsets = list(enumerate_downsets(space.size))
    assert len(downsets) == 167
    for q in downsets:
        ev.eval(pf.body, q)
    atoms = [n.atom for n in nodes if isinstance(n, Atom)]
    guards = [n.cond for n in nodes if isinstance(n, (If, While))]
    assert sorted(map(id, calls["atom"])) == sorted(map(id, atoms))
    assert sorted(map(id, calls["guard"])) == sorted(map(id, guards))


def test_long_seq_chain_is_evaluated_without_recursion():
    space = StateSpace((("x", 0, 1),))
    flip = Atom(Assign("x", IntBin("-", IntConst(1), IntVar("x"))))
    chain = flip
    for _ in range(1499):
        chain = Seq((flip, chain))
    for q in (powerset_family(0b01), powerset_family(0b11)):
        assert happly(chain, q, space) == q


def test_expansion_cap_bounds_unions():
    # the union of a down-set part and an explicit part expands the
    # down-set; the member cap must bound that expansion too
    pf = parse("var x: 0..7; if x < 4 { skip } else { havoc x }")
    q = FamilySet.downset((0b1111, 0b10000000))
    assert len(HEval(pf.space()).eval(pf.body, q).members()) == 17
    # ↓{x<17} from skip, {[], every state} from havoc x: the union
    # expands 2^17 members
    pf = parse("var x: 0..31; if x < 17 { skip } else { havoc x }")
    q = FamilySet.downset(((1 << 17) - 1, 1 << 31))
    with pytest.raises(QueryBlowup, match=re.escape(
            "down-set expansion exceeds cap 65536 (antichain [131071])")):
        HEval(pf.space()).eval(pf.body, q)


# ---------------------------------------------------------------- shortcuts

def _same(got, want):
    assert got == want and got.key() == want.key(), (got, want)


def test_principal_shortcuts_equal_the_general_path():
    # the engine builds a principal down-set ↓{m} directly where it makes
    # one; each such value is the one the general constructors give
    rng = random.Random(29)
    seen = set()
    for n in range(1, 11):
        space = StateSpace((("s", 0, n - 1),))
        for _ in range(8):
            x, y = rng.randrange(1 << n), rng.randrange(1 << n)
            a, b = powerset_family(x), powerset_family(y)
            _same(family_product(a, b), FamilySet.downset([x, x | y, y]))
            _same(family_union(a, b), FamilySet.downset([x, y]))
            _same(family_union(a, a, b), FamilySet.downset([y, x, x]))
            _same(family_union(a, powerset_family(x & y)),
                  FamilySet.downset([x & y, x]))
            small = x & rng.choice((0xF, 0x3C, 0x3C0))
            _same(family_product(a, powerset_family(small)),
                  FamilySet.explicit(bounded_product(
                      a.members(), powerset_family(small).members())))
            ev = HEval(space)
            atom = rel_to_atom(rnd_partial_fn(rng, space), space)
            _, rule, (tr, psc), _ = ev._compile(atom)
            assert psc
            # a rule returns its value as carried: a principal one as
            # its top mask
            got = rule(ev, tr, psc, a)
            assert type(got) is int
            _same(hyper._family(got), FamilySet.downset(
                [tr.apply(p) for p in (x, x & y, 0)]))
            _same(hyper._family(rule(ev, tr, psc, powerset_family(small))),
                  FamilySet.explicit(map(tr.apply, subsets_of(small))))
        # eval at a one-mask query: kept in the memo, canonical, and the
        # answer at the explicit query of the same members, which takes
        # the structural path
        for j in range(3):
            pf = gen_program(GenConfig(seed=2900 + 10 * n + j, space_size=n,
                                       max_space=n, max_range=4))
            ev = HEval(pf.space())
            for stmt in statements(pf.body):
                m = rng.randrange(1 << n) & rng.choice((0xF, 0x3C, 0x3C0))
                q = powerset_family(m)
                got = ev.eval(stmt, q)
                again = ev.eval(stmt, q)
                _same(again, got)
                # every construct but an atom answers again from its memo
                assert isinstance(stmt, Atom) or again is got, stmt
                if got.kind == "downset":
                    _same(got, FamilySet.downset(list(got.sets) + [0]))
                _same(got, HEval(pf.space()).eval(
                    stmt, FamilySet.explicit(subsets_of(m))))
                seen.add(type(stmt).__name__)
                if isinstance(stmt, (Choice, If)):
                    # a join's `|` of principal branch values and the
                    # union of their masks, against the general path
                    q2 = FamilySet.downset((m, rng.randrange(1 << n)))
                    branches = join_branches(stmt, pf.space())
                    _same(hyper._family(hyper._join(ev, branches, q2)),
                          family_union(*[
                              reduce(family_product, [
                                  ev.eval(b, powerset_family(p & mask))
                                  for b, mask in branches])
                              for p in q2.antichain()]))
    assert seen == {"Atom", "Seq", "Choice", "If", "While", "Skip"}


def _with_nested(masks):
    """masks, then some of them again, each with some states taken out."""
    return st.lists(st.tuples(st.sampled_from(masks), st.integers(0, 63)),
                    max_size=6).map(
        lambda extra: masks + [m & keep for m, keep in extra])


_TOP_MASKS = st.lists(st.integers(0, 63), min_size=1,
                      max_size=6).flatmap(_with_nested)
_CARRIED = st.one_of(
    st.integers(0, 63),
    st.sets(st.integers(0, 63), min_size=1, max_size=4).map(
        lambda masks: hyper._top(FamilySet.downset(masks))),
    st.sets(st.integers(0, 63), min_size=1, max_size=6).map(
        lambda members: hyper._top(FamilySet.explicit(members))))


def _carried(v):
    """v is a value as the engine carries it: a principal down-set is
    always its top mask, never a one-mask FamilySet."""
    return type(v) is int or not (v.kind == "downset" and len(v.sets) == 1)


_PARTIAL_FUNCTION_ROWS = st.lists(
    st.sampled_from([0] + [1 << s for s in range(6)]), min_size=6,
    max_size=6)


@given(_TOP_MASKS, _PARTIAL_FUNCTION_ROWS)
def test_union_of_top_masks_is_their_downset(masks, rows):
    # duplicate, nested and equal masks: the union is the down-set of the
    # masks, carried, and a PSC atom's image of a multi-mask down-set is
    # the union of its images of the antichain
    got = hyper._union(masks)
    assert _carried(got)
    assert got == hyper._top(FamilySet.downset(masks))
    tr = Rel(StateSpace((("x", 0, 5),)), rows)
    query = FamilySet.downset(masks)
    image = hyper._map_family(None, tr, True, query)
    assert _carried(image)
    assert image == hyper._top(FamilySet.downset(map(tr.apply, query.sets)))


@given(st.lists(_CARRIED, min_size=1, max_size=5))
def test_union_of_carried_values_is_their_family_union(vals):
    got = hyper._union(vals)
    assert _carried(got)
    assert got == hyper._top(family_union(*map(hyper._family, vals)))


def test_principal_families_are_interned_per_evaluator():
    # one FamilySet per mask within an evaluator: it is every principal
    # query the evaluator passes and every principal value eval returns
    pf = parse("var x: 0..3; var y: 0..1;\n"
               "x := 1 ; ( y := 1 [] skip ) ; "
               "if x < 2 { while y < 1 { y := y + 1 } } else { x := 0 } ; "
               "( skip [] havoc x )")
    space = pf.space()
    ev, other = HEval(space), HEval(space)
    for m in range(1 << space.size):
        fam = ev._principal[m]
        _same(fam, powerset_family(m))
        assert ev._principal[m] is fam
        assert other._principal[m] is not fam
    queries = [powerset_family(m) for m in (0, 0b101, space.full_mask)]
    kinds = set()
    for stmt in statements(pf.body):
        for q in queries:
            got = ev.eval(stmt, q)
            again = ev.eval(stmt, q)
            _same(again, got)
            if got.kind == "downset" and len(got.sets) == 1:
                (t,) = got.sets
                assert got is ev._principal[t]
                assert got is not other.eval(stmt, q)
            # every construct but an atom answers again with the object
            # it memoized
            assert isinstance(stmt, Atom) or again is got, stmt
            kinds.add((type(stmt).__name__, got.kind))
    # values of both kinds were returned; memos hold the principal ones
    # as masks and the others as families
    assert {("Seq", "explicit"), ("Choice", "explicit"), ("While", "downset"),
            ("Skip", "downset")} <= kinds
    for _, _, _, memo in ev._entries.values():
        for v in (memo or {}).values():
            assert type(v) is int or hyper._top(v) is v
    assert not ({id(f) for f in ev._principal.values()}
                & {id(f) for f in other._principal.values()})


def test_loop_work_counters_on_a_nondeterministic_battery(monkeypatch):
    # a lost memo entry or a changed batching of loop solves moves
    # these totals: 30 programs at 6 and 8 states, 10 random down-sets
    # each, every loop solve cross-checked by Kleene iteration
    solve = HEval._solve

    def canonical_solve(ev, node, loop, roots, memo):
        # every equation has one dependency, and every value the solve
        # and the cross-check compare is a mask, so `!=` and `==` on them
        # are exact
        system = solve(ev, node, loop, roots, memo)
        assert all(type(d) is int and type(w) is int
                   for d, w in system.values())
        assert all(type(memo[u]) is int and type(memo[d]) is int
                   for u, (d, _) in system.items())
        return system

    # a rule reads its children's memo hits, PSC atoms' images and skip
    # without entering eval, so eval is entered once per rule run
    entries = {}
    evaluate = HEval.eval

    def counting_eval(ev, node, fam):
        name = type(node).__name__
        entries[name] = entries.get(name, 0) + 1
        return evaluate(ev, node, fam)

    monkeypatch.setattr(HEval, "_solve", canonical_solve)
    monkeypatch.setattr(HEval, "eval", counting_eval)
    totals = [0] * 5
    for size in (6, 8):
        for j in range(15):
            seed = 1000 * size + j
            pf = gen_program(GenConfig(seed=seed, space_size=size,
                                       max_space=size, max_range=4))
            rng = random.Random(seed)
            ev = HEval(pf.space(), cross_check=True)
            for _ in range(10):
                ev.eval(pf.body, random_downset(rng, size))
            s = ev.stats
            for i, v in enumerate((s.demand_loops_solved, s.queries_solved,
                                   s.value_updates, s.cross_checks,
                                   len(s.cross_mismatches))):
                totals[i] += v
    assert totals == [162, 253, 0, 162, 0]
    assert entries == {"Atom": 238, "Choice": 137, "If": 140, "Seq": 317,
                       "While": 164}
