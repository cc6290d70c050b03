"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s -v` to see the per-criterion
lines and timings.  Budgets are generous wall-clock bounds; the checks
themselves are exact.
"""

import random
import time
from dataclasses import replace
from itertools import product

import pytest

from hypersem._kernels import psc_scan_table
from hypersem.family import FamilySet, mask_of, powerset_family, ssc, subsets_of
from hypersem.harness import (GenConfig, diff_prop1, diff_thm1,
                              enumerate_downsets, gen_program, lift_family,
                              random_downset)
from hypersem.hyper import HEval, LoopVariant, happly, loop_iterates
from hypersem.lang import Atom, If, RelAtom, parse
from hypersem.noninterference import LowView, ni_possibilistic, ni_relational
from hypersem.relation import Rel
from hypersem.semantics import sem_rel, sem_tr
from hypersem.space import StateSpace
from hypersem.transformer import Transformer, psc_check
from support import domain, is_disjunctive, is_monotone

LOOP_TEXT = "var x: 0..7;\nwhile x < 4 { x := x + 1 }\n"

_cross_stats = {"checks": 0, "mismatches": 0}


def _report(num, desc, t0, budget):
    elapsed = time.perf_counter() - t0
    assert elapsed < budget, f"criterion {num} exceeded {budget}s ({elapsed:.1f}s)"
    print(f"ACCEPTANCE {num}: PASS - {desc} ({elapsed:.2f}s)")


@pytest.fixture(scope="module")
def loop():
    pf = parse(LOOP_TEXT)
    return pf.body, pf.space()


def fam(*masks):
    return FamilySet.explicit(masks)


Q25_MASK = mask_of([2, 5])


def test_criterion_1_worked_loop_naive_iterates(loop, tmp_path, capsys):
    t0 = time.perf_counter()
    node, space = loop
    vals = loop_iterates(node.cond, node.body, fam(Q25_MASK), 4, space,
                         LoopVariant.NAIVE)
    assert vals[0] == fam(0)
    assert vals[1] == fam(0, mask_of([5]))
    assert vals[2] == fam(0, mask_of([5]))
    assert vals[3] == fam(0, mask_of([4]), mask_of([5]))
    assert vals[4] == vals[3]

    # end to end through the CLI as well
    from hypersem.cli import main
    path = tmp_path / "loop.imp"
    path.write_text(LOOP_TEXT)
    assert main(["iterates", str(path), "--query", "[[{x=2},{x=5}]]",
                 "--steps", "4", "--variant", "naive"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == ["Q0 = [[]]",
                     "Q1 = [[],[{x=5}]]",
                     "Q2 = [[],[{x=5}]]",
                     "Q3 = [[],[{x=4}],[{x=5}]]",
                     "Q4 = [[],[{x=4}],[{x=5}]]"]
    _report(1, "naive loop iterates reproduce the worked table", t0, 1.0)


def test_criterion_2_underlying_and_hyper_values(loop):
    t0 = time.perf_counter()
    node, space = loop
    tr = sem_tr(node, space)
    assert tr.apply(Q25_MASK) == mask_of([4, 5])

    ev = HEval(space, cross_check=True)
    out = ev.eval(node, ssc(fam(Q25_MASK)))
    assert out == ssc(fam(mask_of([4, 5])))
    assert out.antichain() == {mask_of([4, 5])}
    _cross_stats["checks"] += ev.stats.cross_checks
    _cross_stats["mismatches"] += len(ev.stats.cross_mismatches)
    _report(2, "transformer gives {4,5}; paper-variant hyper value is ssc{{4,5}}",
            t0, 1.0)


def test_criterion_3_otimes_anomaly(loop):
    t0 = time.perf_counter()
    node, space = loop
    vals = loop_iterates(node.cond, node.body, fam(Q25_MASK), 3, space,
                         LoopVariant.OTIMES)
    i0, i1 = vals[0], vals[1]
    assert i0 == fam(0)
    assert i1 == fam(mask_of([5]))
    assert not (i0 <= i1) and not (i1 <= i0)  # incomparable
    assert vals[3] == fam(mask_of([4, 5]))
    _report(3, "otimes iterates are non-increasing yet reach {{4,5}}",
            t0, 1.0)


def test_criterion_4_prop1_differential():
    t0 = time.perf_counter()
    cfg = GenConfig(seed=2024, max_vars=3, max_range=4, max_space=10,
                    allow_choice=True, allow_nondet_atoms=True)
    report = diff_prop1(cfg, trials=200)
    assert report.trials == 200
    assert report.failures == 0, report.first_witness
    _report(4, "200 programs: relational image = transformer, all subsets",
            t0, 120.0)


def test_criterion_5_thm1_differential():
    t0 = time.perf_counter()
    queries4 = list(enumerate_downsets(4))
    assert len(queries4) == 167
    cfg4 = GenConfig(seed=31337, space_size=4, max_range=3)
    report = diff_thm1(cfg4, trials=100, queries=queries4, cross_check=True)
    assert report.trials == 100
    assert report.failures == 0, report.first_witness
    _cross_stats["checks"] += report.cross_checks

    total_big = 0
    for size in (5, 6, 7, 8):
        cfg = GenConfig(seed=900 + size, space_size=size, max_range=4)
        rep = diff_thm1(cfg, trials=13 if size < 8 else 11, samples=100,
                        cross_check=True)
        assert rep.failures == 0, rep.first_witness
        total_big += rep.trials
        _cross_stats["checks"] += rep.cross_checks
    assert total_big == 50
    _report(5, "theorem differential: 100x167 exhaustive + 50x100 sampled",
            t0, 600.0)


# ---------------------------------------------------------------- criterion 6

EIGHT_PAIRS = [(0, 0), (0, 1), (1, 0), (1, 1), (2, 2), (2, 3), (3, 2), (3, 3)]
UNDERLINED = [(0, 1), (1, 1), (2, 2), (3, 2)]

CLS0 = 0b0101  # states {0,2}: lo = 0 (hi-major encoding)
CLS1 = 0b1010  # states {1,3}: lo = 1


def _ni_fast(m):
    """Deterministic NI of a 16-bit pair mask over the 2-bit hi/lo space."""
    r0 = m & 0xF
    r1 = m >> 4 & 0xF
    r2 = m >> 8 & 0xF
    r3 = m >> 12 & 0xF
    t0 = r0 | r2
    t1 = r1 | r3
    return ((t0 & ~CLS0 == 0 or t0 & ~CLS1 == 0)
            and (t1 & ~CLS0 == 0 or t1 & ~CLS1 == 0))


def _mask_to_rel(space, m):
    rows = [m >> (4 * s) & 0xF for s in range(4)]
    return Rel(space, rows)


def test_criterion_6_ni_refinement_counterexample_and_closure():
    t0 = time.perf_counter()
    space = StateSpace((("hi", 0, 1), ("lo", 0, 1)))
    view = LowView(space, ("lo",))

    full = Rel.from_pairs(space, EIGHT_PAIRS)
    kept = Rel.from_pairs(space, [p for p in EIGHT_PAIRS
                                  if p not in UNDERLINED])
    assert ni_possibilistic(full, view)
    assert not ni_possibilistic(kept, view)

    # fast predicate validated three ways: against ni_relational on a
    # sample, on every positive, and against the analytic count
    rng = random.Random(99)
    for _ in range(4096):
        m = rng.randrange(1 << 16)
        assert _ni_fast(m) == bool(ni_relational(_mask_to_rel(space, m), view))
    positives = [m for m in range(1 << 16) if _ni_fast(m)]
    assert len(positives) == 31 * 31
    for m in positives:
        assert ni_relational(_mask_to_rel(space, m), view)

    # exhaustive subset closure: every R below an NI relation is NI
    violations = 0
    pairs_checked = 0
    for s in positives:
        r = s
        while True:
            pairs_checked += 1
            if not _ni_fast(r):
                violations += 1
            if r == 0:
                break
            r = (r - 1) & s
    assert violations == 0
    assert pairs_checked == sum(1 << m.bit_count() for m in positives)
    _report(6, f"possibilistic counterexample + closure over "
               f"{pairs_checked} pairs R below NI relations", t0, 120.0)


# ---------------------------------------------------------------- criterion 7

def _rel_to_atom(rel, space):
    pairs = []
    for s, t in rel.pairs():
        pairs.append((tuple(sorted(space.decode(s).items())),
                      tuple(sorted(space.decode(t).items()))))
    return Atom(RelAtom(tuple(pairs)))


def _mask_guard(space, bmask):
    from hypersem.lang import BoolBin, BoolConst, Cmp, IntConst, IntVar
    cond = BoolConst(False)
    for s in range(space.size):
        if bmask >> s & 1:
            clause = BoolConst(True)
            for n, v in space.decode(s).items():
                clause = BoolBin("&&", clause, Cmp("=", IntVar(n), IntConst(v)))
            cond = BoolBin("||", cond, clause)
    return cond


def _rnd_rel(rng, space, density=None):
    d = rng.random() if density is None else density
    rows = [sum(1 << t for t in space.states() if rng.random() < d)
            for _ in space.states()]
    return Rel(space, rows)


def _rnd_partial_fn(rng, space, keep=0.8):
    rows = [1 << rng.randrange(space.size) if rng.random() < keep else 0
            for _ in space.states()]
    return Rel(space, rows)


def test_criterion_7_lemma_suite():
    t0 = time.perf_counter()

    # PSC holds for every partial-function image, sizes 1..4, exhaustive
    for n in range(1, 5):
        space = StateSpace((("s", 0, n - 1),))
        options = [0] + [1 << t for t in range(n)]
        for rows in product(options, repeat=n):
            assert psc_check(Transformer.image(Rel(space, rows)))

    # a PSC non-function exists at size 3: search monotone subset tables
    # for one that cannot be the image of any relation (non-disjunctive)
    rng = random.Random(7)
    found = None
    for _ in range(10_000):
        tab = [0] * 8
        for p in range(8):
            base = 0
            for b in range(3):
                if p >> b & 1:
                    base |= tab[p & ~(1 << b)]
            tab[p] = base | (rng.randrange(8) if rng.random() < 0.3 else 0)
        if (is_monotone(tab, 3) and not is_disjunctive(tab, 3)
                and psc_scan_table(tab, 3)[0]):
            found = tab
            break
    assert found is not None
    assert psc_scan_table(found, 3)[0] and not is_disjunctive(found, 3)

    # the crossing relation fails PSC with a genuine witness
    s4 = StateSpace((("s", 0, 3),))
    crossing = Transformer.image(
        Rel.from_pairs(s4, [(0, 2), (0, 3), (1, 2), (1, 3)]))
    res = psc_check(crossing)
    assert not res
    fq = crossing.apply(res.q)
    assert res.r & ~fq == 0
    assert all(crossing.apply(s) != res.r for s in subsets_of(res.q))

    # guarded-join output subset closed: 1000 random (Q, b, c, d) with
    # closure-preserving branches, queries closed and not
    space5 = StateSpace((("s", 0, 4),))
    ev5 = HEval(space5)
    rng = random.Random(17)
    for _ in range(1000):
        c = _rel_to_atom(_rnd_partial_fn(rng, space5), space5)
        d = _rel_to_atom(_rnd_partial_fn(rng, space5), space5)
        b = _mask_guard(space5, rng.randrange(32))
        members = {rng.randrange(32) for _ in range(rng.randint(1, 3))}
        out = ev5.eval(If(b, c, d), FamilySet.explicit(members))
        assert out.is_subset_closed()

    # lifted guarded transformer equals the guarded join of the lifts on
    # subset-closed queries: 1000 random instances, nondet branches allowed
    s4b = StateSpace((("s", 0, 3),))
    ev4 = HEval(s4b)
    rng = random.Random(23)
    for _ in range(1000):
        node = If(_mask_guard(s4b, rng.randrange(16)),
                  _rel_to_atom(_rnd_rel(rng, s4b), s4b),
                  _rel_to_atom(_rnd_rel(rng, s4b), s4b))
        q = random_downset(rng, 4)
        assert ev4.eval(node, q) == lift_family(sem_tr(node, s4b), q)

    # join of disjoint-domain disjunctive PSC transformers stays PSC:
    # 500 random pairs
    rng = random.Random(29)
    for _ in range(500):
        split = rng.randrange(16)
        rows_a, rows_b = [], []
        for s in range(4):
            succ = 1 << rng.randrange(4) if rng.random() < 0.85 else 0
            (rows_a if split >> s & 1 else rows_b).append(succ)
            (rows_b if split >> s & 1 else rows_a).append(0)
        phi = Transformer.image(Rel(s4b, rows_a))
        psi = Transformer.image(Rel(s4b, rows_b))
        assert domain(phi) & domain(psi) == 0
        assert psc_check(phi) and psc_check(psi)
        assert psc_check(Transformer.image(phi.rel.union(psi.rel)))

    # lift containment with a stored strict witness
    x8 = parse("var x: 0..7; x := x + 1 [] x := x + 2")
    space8 = x8.space()
    ev8 = HEval(space8)
    q0 = fam(mask_of([0]))
    lifted = lift_family(sem_tr(x8.body, space8), q0)
    inner = ev8.inner_join(*x8.body.parts, q0)
    assert lifted <= inner
    assert lifted.members() == {mask_of([1, 2])}
    assert inner.members() == {0, mask_of([1]), mask_of([2]),
                               mask_of([1, 2])}
    _report(7, "lemma suite: psc facts, closure, lift laws, zero violations",
            t0, 300.0)


def test_criterion_8_cross_oracle_ni():
    t0 = time.perf_counter()
    from hypersem.lang import pp_stmt
    from hypersem.noninterference import ni_hyper
    space = StateSpace((("hi", 0, 1), ("lo", 0, 1)))
    view = LowView(space, ("lo",))
    base = GenConfig(max_vars=2, max_range=1, max_space=4, space_size=4,
                     allow_choice=False, allow_nondet_atoms=False,
                     total_atoms=True)
    disagreements = 0
    for seed in range(500):
        pf = gen_program(replace(base, seed=seed))
        text = pp_stmt(pf.body).replace("x", "hi").replace("y", "lo")
        body = parse("var hi: 0..1; var lo: 0..1;\n" + text).body
        rel = sem_rel(body, space)
        a = bool(ni_relational(rel, view))
        b = bool(ni_possibilistic(rel, view))
        c = bool(ni_hyper(body, view))
        if not (a == b == c):
            disagreements += 1
    assert disagreements == 0
    _report(8, "three NI oracles agree on 500 deterministic programs",
            t0, 60.0)


def test_criterion_9_demand_vs_kleene(loop):
    t0 = time.perf_counter()
    node, space = loop

    # the loops of criteria 1-3 under the demand solver, one solve each
    checks = mism = 0
    for q in (ssc(fam(Q25_MASK)), powerset_family(space.full_mask),
              fam(Q25_MASK)):
        ev = HEval(space, cross_check=True)
        ev.eval(node, q)
        assert not ev.stats.cross_mismatches
        assert ev.stats.cross_checks >= 1
        checks += ev.stats.cross_checks

    # a slice of criterion 4's programs evaluated at the hyper level
    rng = random.Random(5)
    for seed in range(40):
        cfg = GenConfig(seed=2024 * 100003 + seed, max_vars=3, max_range=4,
                        max_space=8, allow_choice=True,
                        allow_nondet_atoms=True)
        pf = gen_program(cfg)
        sp = pf.space()
        evp = HEval(sp, cross_check=True)
        for _ in range(3):
            evp.eval(pf.body, random_downset(rng, sp.size))
        checks += evp.stats.cross_checks
        mism += len(evp.stats.cross_mismatches)

    # criterion 5's batteries already ran with cross-checking on
    checks += _cross_stats["checks"]
    mism += _cross_stats["mismatches"]

    assert mism == 0
    assert checks > 100
    _report(9, f"demand-driven loop values match the kleene oracle "
               f"({checks} loop solves)", t0, 300.0)
