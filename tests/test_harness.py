import gc
import pathlib
import random
from dataclasses import replace

import pytest

from hypersem import _kernels, harness
from hypersem.errors import QueryBlowup, SpaceTooLarge
from hypersem.family import DOWNSET, EXPLICIT, FamilySet, powerset_family
from hypersem.harness import (DiffReport, GenConfig, check_prop1, check_thm1,
                              diff_prop1, diff_thm1, enumerate_downsets,
                              gen_program, lift_family, random_downset,
                              search_ssc_necessity)
from hypersem.hyper import HEval
from hypersem.lang import Choice, Seq, parse, pp_program, pp_stmt
from hypersem.notation import parse_family
from hypersem.relation import Rel
from hypersem.semantics import sem_rel, sem_tr
from hypersem.space import StateSpace
from hypersem.transformer import Transformer
from support import atoms_deterministic, is_choice_free, statements

PROGRAMS = pathlib.Path(__file__).parent.parent / "programs"


def test_gen_reproducible():
    a = gen_program(GenConfig(seed=42))
    b = gen_program(GenConfig(seed=42))
    assert a == b
    c = gen_program(GenConfig(seed=43))
    assert pp_program(a) == pp_program(b)
    assert a != c or pp_program(a) == pp_program(c)


def test_gen_respects_flags():
    for seed in range(30):
        cfg = GenConfig(seed=seed, allow_choice=False,
                        allow_nondet_atoms=False)
        pf = gen_program(cfg)
        assert is_choice_free(pf.body)
        assert atoms_deterministic(pf.body, pf.space())


def test_gen_space_bounds():
    for seed in range(30):
        pf = gen_program(GenConfig(seed=seed, max_space=10))
        assert pf.space().size <= 10
        pf = gen_program(GenConfig(seed=seed, space_size=4))
        assert pf.space().size == 4
    for size in (5, 6, 7, 8):
        pf = gen_program(GenConfig(seed=1, space_size=size, max_range=4))
        assert pf.space().size == size


def test_gen_tiny_spaces_fall_back_to_one_variable():
    # at max_space=2 a first factor of 3 or more leaves no variable (35 of
    # these 50 seeds), and the generator falls back to one variable that
    # spans the space; prop1 holds on those programs
    for seed in range(50):
        assert gen_program(GenConfig(seed=seed, max_space=2)).space().size <= 2
    report = diff_prop1(GenConfig(max_space=2), trials=3)
    assert (report.trials, report.failures) == (3, 0)


def test_generated_programs_roundtrip():
    # the generator builds the chains the parser builds: a `;` ending in a
    # `;` and a `[]` beginning with a `[]` are spliced into one node.  The
    # last three configs are the default, the prop1 workload's and the
    # ni_cli one's.
    configs = ((GenConfig(max_space=8), 1000),
               (GenConfig(), 1500),
               (GenConfig(max_vars=3, max_range=4, max_space=10,
                          space_size=10), 1500),
               (GenConfig(max_vars=2, max_range=1, max_space=4, space_size=4,
                          allow_choice=False, allow_nondet_atoms=False,
                          total_atoms=True), 1500))
    for cfg, seeds in configs:
        for seed in range(seeds):
            pf = gen_program(replace(cfg, seed=seed))
            assert parse(pp_program(pf)) == pf, pp_program(pf)
            for node in statements(pf.body):
                assert not (isinstance(node, Seq)
                            and isinstance(node.parts[-1], Seq))
                assert not (isinstance(node, Choice)
                            and isinstance(node.parts[0], Choice))


def test_enumerate_downsets_small_counts():
    ones = list(enumerate_downsets(1))
    assert len(ones) == 2
    assert FamilySet.downset([0]) in ones
    assert FamilySet.downset([1]) in ones
    assert len(list(enumerate_downsets(2))) == 5
    assert len(list(enumerate_downsets(3))) == 19
    assert len(list(enumerate_downsets(4))) == 167


def test_enumerate_downsets_matches_bruteforce():
    # independent oracle: filter all families over n states for nonempty
    # subset-closed ones
    for n in (1, 2, 3):
        masks = list(range(1 << n))
        brute = set()
        for bitsel in range(1, 1 << len(masks)):
            members = frozenset(m for i, m in enumerate(masks)
                                if bitsel >> i & 1)
            fam = FamilySet.explicit(members)
            if fam.is_subset_closed():
                brute.add(fam)
        enumerated = set(enumerate_downsets(n))
        assert enumerated == brute


def test_enumerate_downsets_bruteforce_count_size_4():
    count = 0
    for bitsel in range(1, 1 << 16):
        members = [m for m in range(16) if bitsel >> m & 1]
        ms = set(members)
        ok = True
        for m in members:
            t = m
            while t:
                low = t & -t
                if (m ^ low) not in ms:
                    ok = False
                    break
                t ^= low
            if not ok:
                break
        if ok:
            count += 1
    assert count == 167


def test_enumerate_downsets_all_closed_and_distinct():
    fams = list(enumerate_downsets(4))
    assert all(f.is_subset_closed() and not f.is_empty for f in fams)
    assert len(set(fams)) == len(fams)


def test_enumerate_downsets_size_cap():
    with pytest.raises(SpaceTooLarge):
        next(enumerate_downsets(6))


def test_random_downset_closed():
    rng = random.Random(0)
    for _ in range(50):
        fam = random_downset(rng, 5)
        assert fam.is_subset_closed()
        assert not fam.is_empty


def test_diff_prop1_clean():
    report = diff_prop1(GenConfig(seed=5, max_space=8), trials=40)
    assert report.trials == 40
    assert report.failures == 0
    assert report.first_witness is None


def test_diff_prop1_empty_relation_atom():
    pf = parse("var x: 0..3; rel { }")
    space = pf.space()
    rel = sem_rel(pf.body, space)
    tr = sem_tr(pf.body, space)
    for p in range(16):
        assert rel.dirimg(p) == 0 == tr.apply(p)


def test_diff_thm1_exhaustive_size_3():
    queries = list(enumerate_downsets(3))
    report = diff_thm1(GenConfig(seed=7, space_size=3, max_range=2),
                       trials=20, queries=queries)
    assert report.trials == 20
    assert report.failures == 0


def _sampled_programs(cfg, trials, samples):
    """(program, its own random down-sets) for trials generated programs."""
    rng = random.Random(cfg.seed)
    for t in range(trials):
        pf = gen_program(replace(cfg, seed=cfg.seed + t))
        size = pf.space().size
        yield pf, [random_downset(rng, size) for _ in range(samples)]


def test_diff_thm1_nondet_containment():
    report = DiffReport()
    for pf, queries in _sampled_programs(
            GenConfig(seed=9, space_size=3, max_range=2), 25, 20):
        report.add(check_thm1(pf, queries))
    assert report.trials == 25
    assert report.failures == 0
    assert report.strict_cases >= 1  # inner joins do add sets


def test_diff_thm1_cross_check_counts():
    report = DiffReport()
    for pf, queries in _sampled_programs(
            GenConfig(seed=11, space_size=3, max_range=2, allow_choice=False,
                      allow_nondet_atoms=False), 10, 10):
        report.add(check_thm1(pf, queries, cross_check=True))
    assert report.failures == 0
    assert report.cross_checks >= 1


def test_cross_check_witness_replays(monkeypatch):
    # a Kleene limit that stops after one step disagrees with the demand
    # solver; the witness names the program, the loop and one query
    def one_step(ev, system, memo):
        iterates = ev._kleene(system, memo)
        next(iterates)
        return next(iterates)

    monkeypatch.setattr(HEval, "_kleene_limit", one_step)
    pf = parse((PROGRAMS / "cycle.imp").read_text(encoding="utf-8"))
    space = pf.space()
    queries = [parse_family(space, "[[],[{x=0,y=0}]]")]
    report = check_thm1(pf, queries, cross_check=True)
    assert (report.trials, report.failures, report.cross_checks) == (1, 1, 1)
    program, _, rest = report.first_witness.partition("\n\nloop=")
    loop, query, demand, kleene = rest.split("\n")
    assert program == "program:\n" + pp_program(pf).rstrip("\n")
    assert loop == pp_stmt(pf.body)
    assert (query, demand, kleene) == (
        "query=FamilySet(downset:{0x1})", "demand=FamilySet(downset:{0xaa})",
        "kleene=FamilySet(downset:{0x0})")
    # replayed, the program's loop gives the demand value at the query
    replay = parse(program.removeprefix("program:\n"))
    got = HEval(replay.space()).eval(replay.body, powerset_family(0x1))
    assert demand == f"demand={got!r}"


def test_maximal_sets_gets_a_sized_collection(monkeypatch):
    # maximal_sets takes the set or frozenset a FamilySet stores, and the
    # traced benchmark counts its input with len()
    real = _kernels.maximal_sets
    sizes = []

    def checked(sets):
        assert isinstance(sets, (set, frozenset)), type(sets)
        sizes.append(len(sets))
        return real(sets)

    monkeypatch.setattr(_kernels, "maximal_sets", checked)
    for deterministic in (True, False):
        cfg = GenConfig(seed=13, space_size=4, max_range=3,
                        allow_choice=not deterministic,
                        allow_nondet_atoms=not deterministic)
        for pf, queries in _sampled_programs(cfg, 8, 20):
            report = check_thm1(pf, queries, cross_check=True)
            assert report.failures == 0, report.first_witness
    assert max(sizes) > 1


def test_search_ssc_necessity_counts_check_thm1_mismatches():
    assert search_ssc_necessity(seed=0, trials=60, size=4) == (23, 59)
    # the worked loop example at the non-closed query {{2,5}}: the hyper
    # value ssc{{4,5}} differs from the lift {{4,5}}, within its closure
    pf = parse("var x: 0..7; while x < 4 { x := x + 1 }")
    report = check_thm1(pf, [FamilySet.explicit([0b100100])])
    assert (report.failures, report.strict_cases) == (0, 1)


def test_diff_report_records_first_witness_only():
    rep = DiffReport()
    rep.record_failure("first")
    rep.record_failure("second")
    assert rep.failures == 2
    assert rep.first_witness == "first"


def test_diff_report_adds_trials_in_order():
    battery = DiffReport()
    for witness, strict, cross in ((None, 2, 1), ("second", 0, 3),
                                   ("third", 1, 0)):
        item = DiffReport()
        item.trials = 1
        item.strict_cases = strict
        item.cross_checks = cross
        if witness:
            item.record_failure(witness)
        battery.add(item)
    assert (battery.trials, battery.failures, battery.strict_cases,
            battery.cross_checks) == (3, 2, 3, 4)
    assert battery.first_witness == "second"


def test_check_thm1_and_check_prop1_report_the_first_failure(monkeypatch):
    # at ↓{x=0} the inner join adds {x=1} and {x=2} to the lift's
    # {x=1,x=2}, within the lift's closure: a strict case, not a failure
    pf = parse("var x: 0..3; x := x + 1 [] x := x + 2")
    queries = [FamilySet.downset((0b1,))] * 2
    report = check_thm1(pf, queries)
    assert (report.trials, report.failures, report.strict_cases) == (1, 0, 2)
    prop1 = check_prop1(pf)
    assert (prop1.trials, prop1.failures, prop1.first_witness) == (1, 0, None)
    # a lift with no members leaves the hyper value above its closure
    monkeypatch.setattr(harness, "lift_family",
                        lambda tr, fam: FamilySet.empty())
    report = check_thm1(pf, queries)
    assert (report.trials, report.failures, report.strict_cases) == (1, 1, 0)
    assert report.first_witness.startswith("program:\n")
    assert "query=" in report.first_witness


def test_check_prop1_reports_the_first_failing_subset(monkeypatch):
    # a transformer with no successors differs from the relational image
    # first at p={x=0}, whose image is {x=1,x=2}
    pf = parse("var x: 0..3; x := x + 1 [] x := x + 2")
    monkeypatch.setattr(harness, "sem_tr", lambda body, space:
                        Transformer.image(Rel(space, [0] * space.size)))
    report = check_prop1(pf)
    assert (report.trials, report.failures) == (1, 1)
    program, _, rest = report.first_witness.partition("\n\np=")
    assert program == "program:\n" + pp_program(pf).rstrip("\n")
    assert rest == "0x1 rel-image=0x6 transformer=0x0"


def test_generator_leaves_no_reference_cycles():
    # a cycle through the generator would keep its Random alive until
    # the cyclic collector runs
    cfg = GenConfig(max_vars=2, max_range=1, max_space=4, space_size=4,
                    allow_choice=False, allow_nondet_atoms=False,
                    total_atoms=True)
    was_enabled = gc.isenabled()
    flags = gc.get_debug()
    gc.collect()
    gc.disable()
    try:
        for seed in range(50):
            gen_program(replace(cfg, seed=seed))
        gc.set_debug(flags | gc.DEBUG_SAVEALL)
        gc.collect()
        freed = [o for o in gc.garbage if isinstance(o, random.Random)]
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()
    assert freed == []


def _member_wise_lift(tr, fam):
    return FamilySet.explicit(tr.apply(p) for p in fam.members())


def _rnd_rel(rng, space, functional):
    n = space.size
    if functional:
        rows = [0 if rng.random() < 0.2 else 1 << rng.randrange(n)
                for _ in range(n)]
    else:
        rows = [rng.randrange(1 << n) for _ in range(n)]
    return Rel(space, rows)


def test_lift_family_matches_member_wise_lift():
    rng = random.Random(23)
    for n in range(1, 9):
        space = StateSpace((("s", 0, n - 1),))
        for functional in (True, False):
            tr = Transformer.image(_rnd_rel(rng, space, functional))
            for _ in range(8):
                members = [rng.randrange(1 << n)
                           for _ in range(rng.randint(0, 4))]
                for q in (random_downset(rng, n),
                          FamilySet.downset(members),
                          FamilySet.explicit(members)):
                    got = lift_family(tr, q)
                    want = _member_wise_lift(tr, q)
                    assert got.kind == want.kind
                    assert got.sets == want.sets, (tr, q)


def test_lift_family_memo_answers_every_downset_in_any_order():
    # one transformer answers all 167 down-sets at 4 states, ascending
    # and then in reverse, so every answer after the first pass comes
    # from its memo; a fresh transformer answers them in reverse from an
    # empty memo
    downsets = list(enumerate_downsets(4))
    assert len(downsets) == 167
    space = StateSpace((("s", 0, 3),))
    rng = random.Random(29)
    for functional in (True, False):
        rel = _rnd_rel(rng, space, functional)
        tr = Transformer.image(rel)
        for order, lifted in ((downsets, tr), (downsets[::-1], tr),
                              (downsets[::-1], Transformer.image(rel))):
            for q in order:
                got = lift_family(lifted, q)
                want = _member_wise_lift(lifted, q)
                assert got.kind == want.kind
                assert got.sets == want.sets, (functional, q)


def test_lift_family_unions_parts_that_are_not_downsets():
    # s0 goes to {t0, t1}, s1 to {t0}, s2 to {t1}: the part of {s0} alone
    # is {{}, {t0, t1}}, which is not subset closed; with the parts of
    # {s1} and {s2} the union is every subset of {t0, t1}
    space = StateSpace((("s", 0, 2),))
    tr = Transformer.image(Rel(space, [0b011, 0b001, 0b010]))
    part = lift_family(tr, FamilySet.downset([0b001]))
    assert (part.kind, part.sets) == (EXPLICIT, frozenset({0, 0b011}))
    q = FamilySet.downset([0b001, 0b010, 0b100])
    got = lift_family(tr, q)
    assert (got.kind, got.sets) == (DOWNSET, frozenset({0b011}))
    assert got == _member_wise_lift(tr, q)
    # with the part of {s1} only, {t1} is missing: the union is not
    # subset closed, and stays explicit
    q = FamilySet.downset([0b001, 0b010])
    got = lift_family(tr, q)
    assert (got.kind, got.sets) == (EXPLICIT, frozenset({0, 0b001, 0b011}))
    assert got == _member_wise_lift(tr, q)


def test_lift_family_memo_belongs_to_its_transformer():
    # two relations over one space lift the same query differently; a
    # memo shared by mask alone would answer the second from the first
    space = StateSpace((("s", 0, 2),))
    q = FamilySet.downset([0b111])
    lifts = []
    for rows in ([0b001, 0b010, 0b100], [0b001, 0b001, 0b001]):
        tr = Transformer.image(Rel(space, rows))
        got = lift_family(tr, q)
        assert got == _member_wise_lift(tr, q)
        assert lift_family(tr, q) == got
        lifts.append(got)
    assert lifts == [FamilySet.downset([0b111]), FamilySet.downset([0b001])]


def test_lift_family_guard_bound_past_cap_exact_span_within(monkeypatch):
    # the antichain {s16}, {s0..s7} has 2 << 17 as its coarse bound,
    # past the cap, but spans 2 + 256 subsets: the recurrence answers,
    # without a call to apply
    space = StateSpace((("s", 0, 16),))
    tr = Transformer.image(_rnd_rel(random.Random(7), space, False))
    q = FamilySet.downset([1 << 16, (1 << 8) - 1])
    want = _member_wise_lift(tr, q)

    def refuse(self, p):
        raise AssertionError("the member path imaged a member")

    monkeypatch.setattr(Transformer, "apply", refuse)
    got = lift_family(tr, q)
    assert got.kind == want.kind
    assert got.sets == want.sets


def test_lift_family_expansion_cap():
    space = StateSpace((("s", 0, 15),))
    tr = Transformer.image(_rnd_rel(random.Random(5), space, False))
    # three 15-state sets span more subsets than the cap, but their
    # union of subsets stays inside it: the member path answers
    full = (1 << 16) - 1
    within = FamilySet.downset(full & ~(1 << b) for b in (0, 5, 9))
    assert lift_family(tr, within).sets == _member_wise_lift(tr, within).sets
    space17 = StateSpace((("s", 0, 16),))
    tr17 = Transformer.identity(space17)
    past = FamilySet.downset(((1 << 17) - 1,))
    with pytest.raises(QueryBlowup):
        lift_family(tr17, past)
    with pytest.raises(QueryBlowup):
        _member_wise_lift(tr17, past)
