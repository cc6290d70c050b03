import random

import pytest

from hypersem.errors import UnknownVariable
from hypersem.family import FamilySet, family_le, mask_of
from hypersem.hyper import HEval
from hypersem.lang import parse
from hypersem.noninterference import (LowView, NIVerdict, agr, ni_hyper,
                                      ni_possibilistic, ni_relational)
from hypersem.relation import Rel
from hypersem.semantics import sem_rel

EIGHT_PAIRS = [(0, 0), (0, 1), (1, 0), (1, 1), (2, 2), (2, 3), (3, 2), (3, 3)]
UNDERLINED = [(0, 1), (1, 1), (2, 2), (3, 2)]
KEPT = [p for p in EIGHT_PAIRS if p not in UNDERLINED]


@pytest.fixture
def view(bits):
    return LowView(bits, ("lo",))


def program(text):
    pf = parse(text)
    return pf, pf.space()


def test_classes_partition(bits, view):
    assert sorted(view.classes) == [mask_of([0, 2]), mask_of([1, 3])]
    assert sum(view.classes) == bits.full_mask


def test_agr(view):
    assert agr(0, view)
    assert agr(mask_of([0, 2]), view)  # states 00 and 10 share lo=0
    assert not agr(mask_of([0, 1]), view)  # 00 vs 01 differ on lo
    assert agr(mask_of([3]), view)


def agreement_family(view):
    """All sets lying inside one class, as a down-set."""
    return FamilySet.downset(view.classes)


def test_agreement_family(view):
    fam = agreement_family(view)
    assert fam.antichain() == set(view.classes)
    assert fam.is_subset_closed()


def test_ni_relational_copy_low(bits, view):
    pf, space = program("var hi: 0..1; var lo: 0..1; low lo; lo := lo")
    assert ni_relational(sem_rel(pf.body, space), view)


def test_ni_relational_leak(bits, view):
    pf, space = program("var hi: 0..1; var lo: 0..1; low lo; lo := hi")
    verdict = ni_relational(sem_rel(pf.body, space), view)
    assert not verdict
    s, s2, t, t2 = verdict.witness
    assert view.agrees(s, t) and not view.agrees(s2, t2)


def test_ni_relational_empty(bits, view):
    assert ni_relational(Rel.empty(bits), view)


def test_ni_possibilistic_refinement_counterexample(bits, view):
    full = Rel.from_pairs(bits, EIGHT_PAIRS)
    kept = Rel.from_pairs(bits, KEPT)
    assert ni_possibilistic(full, view)
    assert not ni_possibilistic(kept, view)
    # while the full set even fails the deterministic form
    assert not ni_relational(full, view)


def test_ni_possibilistic_vs_relational_on_partial_functions(bits, view):
    # possibilistic implies relational on partial functions, and equals
    # relational exactly when the domain does not split a ~-class
    rng = random.Random(0)
    seen_gap = False
    for _ in range(300):
        rows = [1 << rng.randrange(4) if rng.random() < 0.7 else 0
                for _ in range(4)]
        rel = Rel(bits, rows)
        r = bool(ni_relational(rel, view))
        p = bool(ni_possibilistic(rel, view))
        if p:
            assert r
        domain = sum(1 << s for s, row in enumerate(rel.rows) if row)
        saturated = all(cls & domain in (0, cls) for cls in view.classes)
        assert p == (r and saturated)
        seen_gap = seen_gap or (r and not p)
    assert seen_gap  # strictly partial counterexamples do occur


def test_ni_possibilistic_equals_relational_for_total_functions(bits, view):
    rng = random.Random(10)
    for _ in range(300):
        rows = [1 << rng.randrange(4) for _ in range(4)]
        rel = Rel(bits, rows)
        assert bool(ni_relational(rel, view)) == \
            bool(ni_possibilistic(rel, view))


def rel_to_atom(rel, space):
    from hypersem.lang import Atom, RelAtom
    pairs = []
    for s, t in rel.pairs():
        pairs.append((tuple(sorted(space.decode(s).items())),
                      tuple(sorted(space.decode(t).items()))))
    return Atom(RelAtom(tuple(pairs)))


def test_rel_hyper_agreement_random(bits, view):
    rng = random.Random(11)
    for _ in range(200):
        rows = [rng.randrange(16) if rng.random() < 0.8 else 0
                for _ in range(4)]
        rel = Rel(bits, rows)
        node = rel_to_atom(rel, bits)
        assert bool(ni_relational(rel, view)) == bool(ni_hyper(node, view))


def test_ni_hyper_examples(bits, view):
    pf, space = program("var hi: 0..1; var lo: 0..1; low lo; lo := lo")
    assert ni_hyper(pf.body, view)
    pf, space = program("var hi: 0..1; var lo: 0..1; low lo; lo := hi")
    verdict = ni_hyper(pf.body, view)
    assert not verdict
    cls, img = verdict.witness
    assert cls == mask_of([0, 2])
    assert img == mask_of([0, 3])  # {00, 11}: lo values disagree


def test_ni_hyper_generalized_views(bits):
    vin = LowView(bits, ("hi",))
    vout = LowView(bits, ("lo",))
    pf, space = program("var hi: 0..1; var lo: 0..1; lo := hi")
    assert ni_hyper(pf.body, vin, vout)
    pf, space = program("var hi: 0..1; var lo: 0..1; lo := lo")
    assert not ni_hyper(pf.body, vin, vout)


def _random_programs(n, **kw):
    from hypersem.harness import GenConfig, gen_program
    from dataclasses import replace
    base = GenConfig(max_vars=2, max_range=1, max_space=4, space_size=4,
                     total_atoms=True, **kw)
    for seed in range(n):
        pf = gen_program(replace(base, seed=seed))
        pf = type(pf)((("hi", 0, 1), ("lo", 0, 1)), ("lo",), (), (), _rename(pf))
        yield pf


def _rename(pf):
    # generated programs use x/y; rebind them onto hi/lo textually
    from hypersem.lang import pp_stmt
    text = pp_stmt(pf.body)
    text = text.replace("x", "hi").replace("y", "lo")
    return parse("var hi: 0..1; var lo: 0..1;\n" + text).body


def test_ni_cross_oracle_random_deterministic_programs(bits, view):
    checked = 0
    for pf in _random_programs(150, allow_choice=False,
                               allow_nondet_atoms=False):
        space = pf.space()
        rel = sem_rel(pf.body, space)
        a = bool(ni_relational(rel, view))
        b = bool(ni_possibilistic(rel, view))
        c = bool(ni_hyper(pf.body, view))
        assert a == b == c
        checked += 1
    assert checked == 150


def test_ni_hyper_family_route_agrees(bits, view):
    for pf in _random_programs(60, allow_choice=False,
                               allow_nondet_atoms=False):
        # the engine route: the image of the agreement down-set stays
        # inside the agreement down-set
        result = HEval(view.space).eval(pf.body, agreement_family(view))
        assert family_le(result, agreement_family(view)) == \
            bool(ni_hyper(pf.body, view))


def test_refinement_preserves_relational_oracle(bits, view):
    # relational NI is subset closed: every refinement (subrelation) of a
    # secure relation is secure
    rng = random.Random(1)
    checked = 0
    for _ in range(200):
        rows = [1 << rng.randrange(4) if rng.random() < 0.6 else 0
                for _ in range(4)]
        spec = Rel(bits, rows)
        if not ni_relational(spec, view):
            continue
        impl = Rel(bits, tuple(r if rng.random() < 0.6 else 0
                               for r in spec.rows))
        assert impl.is_subrelation(spec)
        assert ni_relational(impl, view)
        checked += 1
    assert 0 < checked < 200  # both secure and insecure specs were drawn


def test_refinement_preserves_possibilistic_counterexample(bits, view):
    # possibilistic NI is not subset closed: a secure relation has an
    # insecure refinement
    spec = Rel.from_pairs(bits, EIGHT_PAIRS)
    impl = Rel.from_pairs(bits, KEPT)
    assert impl.is_subrelation(spec)
    assert ni_possibilistic(spec, view) and not ni_possibilistic(impl, view)


def test_refinement_preserves_trivial_and_errors(bits, view):
    # every relation refines itself; the identity is not a refinement of
    # the empty relation
    rel = Rel.identity(bits)
    assert rel.is_subrelation(rel)
    assert ni_relational(rel, view)
    assert not rel.is_subrelation(Rel.empty(bits))


def test_verdict_is_truthy_wrapper():
    assert NIVerdict(True)
    assert not NIVerdict(False, (0, 0, 0, 0))


def test_undeclared_low_variable_is_unknown(bits):
    with pytest.raises(UnknownVariable):
        LowView(bits, ["zz"])
