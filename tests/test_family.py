import itertools
import random

import pytest
from hypothesis import given, strategies as st

from hypersem import _kernels
from hypersem.errors import QueryBlowup
from hypersem.family import (DOWNSET, EXPLICIT, FamilySet, family_le,
                             family_product, family_union, mask_of,
                             powerset_family, ssc, states_of, subsets_of)


def brute_ssc(members):
    out = set()
    for m in members:
        out.update(subsets_of(m))
    return out


def all_families(n):
    masks = list(range(1 << n))
    for bitsel in range(1 << len(masks)):
        yield frozenset(m for i, m in enumerate(masks) if bitsel >> i & 1)


def test_mask_helpers():
    assert mask_of([2, 5]) == 0b100100
    assert states_of(0b100100) == [2, 5]
    assert list(subsets_of(0b101)) == [0b101, 0b100, 0b001, 0b000]


def test_powerset_family_of_pair():
    fam = powerset_family(mask_of([2, 5]))
    assert fam.kind == DOWNSET
    assert fam.members() == {0, mask_of([2]), mask_of([5]), mask_of([2, 5])}


def test_powerset_family_of_empty():
    fam = powerset_family(0)
    assert fam.members() == {0}
    assert not fam.is_empty


def test_powerset_family_explicit_expansion():
    fam = powerset_family(0b111)
    assert len(fam.members()) == 8


def test_powerset_family_cap():
    assert len(powerset_family((1 << 16) - 1).members()) == 1 << 16
    fam = powerset_family((1 << 17) - 1)
    with pytest.raises(QueryBlowup, match=r"exceeds cap 65536 "):
        fam.members()


def test_ssc_examples():
    two = FamilySet.explicit([mask_of([2, 5])])
    closed = ssc(two)
    assert closed.kind == DOWNSET
    assert closed.members() == brute_ssc([mask_of([2, 5])])

    assert ssc(FamilySet.empty()).is_empty

    overlapping = FamilySet.explicit([0b011, 0b110])
    assert ssc(overlapping).members() == brute_ssc([0b011, 0b110])


def test_is_subset_closed():
    assert powerset_family(mask_of([2, 5])).is_subset_closed()
    assert FamilySet.explicit(subsets_of(mask_of([2, 5]))).is_subset_closed()
    assert not FamilySet.explicit([mask_of([2, 5])]).is_subset_closed()
    assert FamilySet.empty().is_subset_closed()


def test_family_eq_across_representations():
    down = powerset_family(mask_of([2, 5]))
    expl = FamilySet.explicit(subsets_of(mask_of([2, 5])))
    assert down == expl
    assert hash(down) == hash(expl)


def test_family_le_iterate_chain():
    # the naive-iterate chain Q1 <= Q3 from the worked loop example
    q1 = FamilySet.explicit([0, 1 << 5])
    q3 = FamilySet.explicit([0, 1 << 4, 1 << 5])
    assert family_le(q1, q3)
    assert not family_le(q3, q1)


def test_family_le_not_dominated():
    f = FamilySet.explicit([mask_of([4, 5])])
    g = FamilySet.explicit([0, 1 << 4, 1 << 5])
    assert not family_le(f, g)


def test_family_le_mixed_representations():
    down = powerset_family(0b011)
    expl = FamilySet.explicit(subsets_of(0b011))
    assert family_le(down, expl)
    assert family_le(expl, down)
    smaller = FamilySet.explicit([0b001])
    assert family_le(smaller, down)
    assert not family_le(down, smaller)
    # explicit target missing one subset
    gap = FamilySet.explicit([0b011, 0b001, 0])
    assert not family_le(down, gap)


def test_ssc_properties_exhaustive_size_3():
    for members in all_families(3):
        fam = FamilySet.explicit(members)
        closed = ssc(fam)
        assert closed.members() == brute_ssc(members)
        assert ssc(closed) == closed  # idempotent
        assert family_le(fam, closed)  # extensive


def test_ssc_monotone_exhaustive_size_2():
    fams = [FamilySet.explicit(m) for m in all_families(2)]
    for f in fams:
        for g in fams:
            if family_le(f, g):
                assert family_le(ssc(f), ssc(g))


def test_ssc_properties_random_size_4():
    rng = random.Random(7)
    for _ in range(400):
        members = {rng.randrange(16) for _ in range(rng.randint(0, 6))}
        fam = FamilySet.explicit(members)
        closed = ssc(fam)
        assert closed.members() == brute_ssc(members)
        assert ssc(closed) == closed
        extra = members | {rng.randrange(16)}
        assert family_le(closed, ssc(FamilySet.explicit(extra)))


def test_powerset_is_ssc_of_singleton():
    for m in (0, 0b1, 0b1010, 0b11011):
        assert powerset_family(m) == ssc(FamilySet.explicit([m]))


def test_union_across_representations(monkeypatch):
    a = powerset_family(0b011)
    b = FamilySet.explicit([0b100])
    u = family_union(a, b)
    assert u.members() == brute_ssc([0b011]) | {0b100}
    d = family_union(a, powerset_family(0b110))
    assert d.kind == DOWNSET
    assert d.members() == brute_ssc([0b011, 0b110])

    # n-ary union and the product against member sets over 4 states, at
    # every mix of forms, with empty parts among them
    rng = random.Random(31)
    forms = ("empty", DOWNSET, EXPLICIT)
    assert family_union() == FamilySet.empty()
    for _ in range(25):
        for kinds in itertools.chain.from_iterable(
                itertools.product(forms, repeat=n) for n in (1, 2, 3)):
            parts = [_random_family(rng, kind) for kind in kinds]
            got = family_union(*parts)
            want = set().union(*(part.members() for part in parts))
            assert got.members() == want, parts
            assert got == FamilySet.explicit(want)
            nonempty = [part for part in parts if part.sets]
            if len(nonempty) == 1:
                assert got is nonempty[0]
            if len(parts) == 2:
                a, b = parts
                got = family_product(a, b)
                want = {r | s for r in a.members() for s in b.members()}
                assert got.members() == want, parts
                assert got == FamilySet.explicit(want)

    # an explicit product of 4,097 × 4,097 pairs exceeds the pair bound
    # 2^24, and is refused before it is formed
    a = FamilySet.explicit(range(1, 4098))
    b = FamilySet.explicit(range(1 << 12, (1 << 12) + 4097))
    assert (a.kind, b.kind) == (EXPLICIT, EXPLICIT)
    monkeypatch.setattr(FamilySet, "explicit", classmethod(
        lambda cls, members: pytest.fail("the product was formed")))
    with pytest.raises(QueryBlowup, match=r"^a product of 4097 by 4097 "
                       r"members exceeds the pair bound 16777216$"):
        family_product(a, b)


def _random_family(rng, kind):
    # a family over 4 states: empty, a down-set, or explicit and nonempty
    if kind == "empty":
        return FamilySet.empty()
    if kind == DOWNSET:
        return FamilySet.downset(
            rng.randrange(16) for _ in range(rng.randint(1, 3)))
    while True:
        fam = FamilySet.explicit(rng.sample(range(16), rng.randint(1, 6)))
        if fam.kind == EXPLICIT:
            return fam


def _closed(members):
    return all((m & ~(1 << b)) in members for m in members for b in range(8))


def _closure_minus_one(tops):
    closure = sorted(brute_ssc(tops))
    return st.sampled_from(closure).map(lambda m: set(closure) - {m})


_MEMBER_SETS = st.one_of(
    st.sets(st.integers(0, 31), max_size=12),
    st.sets(st.integers(0, 31), max_size=4).map(brute_ssc),
    st.sets(st.integers(0, 31), min_size=1, max_size=4).flatmap(
        _closure_minus_one))


def _assert_canonical(members):
    fam = FamilySet.explicit(members)
    closed = bool(members) and _closed(members)
    assert (fam.kind == DOWNSET) == closed
    assert fam.sets == (set(_brute_maximal(members)) if closed else members)
    assert fam.members() == members
    assert sorted(fam.antichain()) == _brute_maximal(members)
    # the semantic key: a subset-closed family keys as its down-set
    want = ((DOWNSET, tuple(_brute_maximal(members))) if closed
            else (EXPLICIT, tuple(sorted(members))))
    assert fam.key() == want


@given(_MEMBER_SETS)
def test_explicit_stores_one_canonical_form(members):
    _assert_canonical(members)


def test_explicit_form_of_every_member_set_over_three_states():
    families = list(all_families(3))
    assert len(families) == 256
    for members in families:
        _assert_canonical(members)


def test_downset_constructor_prunes_to_maximals():
    fam = FamilySet.downset([0b001, 0b011, 0b100])
    assert fam.sets == {0b011, 0b100}
    for masks in ([0b101], iter([0b101]), [0b101, 0b101]):
        fam = FamilySet.downset(masks)
        assert (fam.kind, fam.sets) == (DOWNSET, {0b101})
        assert fam == powerset_family(0b101)
    assert FamilySet.downset([0]) == powerset_family(0)
    for masks in ([], iter([])):
        fam = FamilySet.downset(masks)
        assert fam.is_empty and fam == FamilySet.empty()


@given(st.sets(st.integers(0, 31), max_size=8))
def test_downset_explicit_equivalence(members):
    down = FamilySet.downset(members)
    expl = FamilySet.explicit(brute_ssc(members))
    assert down == expl
    assert down.members() == expl.members()


def test_contains():
    fam = powerset_family(0b011)
    assert 0b001 in fam
    assert 0b011 in fam
    assert 0b100 not in fam
    expl = FamilySet.explicit([0b011])
    assert 0b011 in expl
    assert 0b001 not in expl


def _equality_pool(rng, n):
    """Families over n states: down-sets, explicit families near their
    expansions, arbitrary explicit families, and the empty family."""
    down = FamilySet.downset(rng.randrange(1 << n)
                             for _ in range(rng.randint(1, 3)))
    expansion = sorted(down.members())
    outside = [m for m in range(1 << n) if m not in down]
    pool = [down, FamilySet.downset(rng.randrange(1 << n)
                                    for _ in range(rng.randint(1, 3))),
            FamilySet.explicit(expansion), FamilySet.empty(),
            FamilySet.explicit(rng.randrange(1 << n)
                               for _ in range(rng.randint(1, 5))),
            FamilySet.explicit(rng.sample(expansion,
                                          rng.randint(1, len(expansion))))]
    dropped = list(expansion)
    dropped.remove(rng.choice(expansion))
    pool.append(FamilySet.explicit(dropped))
    if outside:
        pool.append(FamilySet.explicit(expansion + [rng.choice(outside)]))
    return pool


def test_family_eq_matches_its_definition():
    rng = random.Random(17)
    kinds = set()
    for _ in range(300):
        pool = _equality_pool(rng, rng.randint(1, 5))
        for a in pool:
            for b in pool:
                kinds.add((a.kind, b.kind))
                same = a.key() == b.key()
                assert (a == b) == same, (a, b)
                assert (a != b) == (not same), (a, b)
                assert (a == b) == (a.members() == b.members()), (a, b)
                if same:
                    assert hash(a) == hash(b)
    assert kinds == {(x, y) for x in (DOWNSET, EXPLICIT)
                     for y in (DOWNSET, EXPLICIT)}


def _brute_maximal(masks):
    uniq = set(masks)
    return sorted(m for m in uniq
                  if not any(m != k and m & ~k == 0 for k in uniq))


def _kernel_cases():
    """Mask lists over up to 8 states, the empty list included."""
    cases = [[], [0], [5], [3, 3], [1, 3, 3, 1], [0, 0, 7], [6, 5, 3]]
    rng = random.Random(4)
    cases += [[rng.randrange(256) for _ in range(rng.randint(0, 40))]
              for _ in range(500)]
    return cases


def test_maximal_sets_matches_brute_force():
    for masks in _kernel_cases():
        assert _kernels.maximal_sets(list(masks)) == _brute_maximal(masks)


def test_closed_antichain_matches_brute_force():
    # each case as given (rarely closed), the closure of its first masks
    # (closed), and that closure less one random member (closed only if
    # that member was maximal)
    rng = random.Random(5)
    seen = set()
    for masks in _kernel_cases():
        closure = brute_ssc(masks[:3])
        less = closure - {rng.choice(sorted(closure))} if closure else closure
        for members in (set(masks), closure, less):
            want = _brute_maximal(members) if _closed(members) else None
            assert _kernels.closed_antichain(members) == want, members
            assert _kernels.closed_antichain(list(members)) == want
            seen.add((bool(members), want is None))
    assert seen == {(False, False), (True, False), (True, True)}


def _brute_below(members):
    return {x for x in members
            if any((y ^ x).bit_count() == 1 and x & ~y == 0
                   for y in members)}


def test_below_set_matches_brute_force():
    # closed, non-closed and empty member sets, as in the closed_antichain
    # test; closed_antichain is the members less their below set
    rng = random.Random(6)
    seen = set()
    for masks in _kernel_cases():
        closure = brute_ssc(masks[:3])
        less = closure - {rng.choice(sorted(closure))} if closure else closure
        for members in (set(masks), closure, less):
            below = _kernels.below_set(members)
            want = _brute_below(members) if _closed(members) else None
            assert below == want, members
            assert _kernels.below_set(list(members)) == want
            assert _kernels.is_downclosed(members) == (want is not None)
            anti = _kernels.closed_antichain(members)
            assert anti == (None if below is None
                            else sorted(members - below))
            seen.add((bool(members), want is None))
    assert seen == {(False, False), (True, False), (True, True)}


def test_union_of_closed_parts_is_members_less_their_below_sets():
    # for down-closed parts, members less the union of the below sets
    # are the maximal members of the union; union_of_parts agrees with
    # explicit on every mix of closed and non-closed parts
    rng = random.Random(7)
    for _ in range(400):
        closed = [frozenset(brute_ssc(rng.randrange(64)
                                      for _ in range(rng.randint(1, 3))))
                  for _ in range(rng.randint(1, 5))]
        union = frozenset().union(*closed)
        below = set().union(*map(_kernels.below_set, closed))
        assert sorted(union - below) == _brute_maximal(union)
        parts = list(closed)
        for _ in range(rng.randint(0, 2)):
            parts.insert(rng.randrange(len(parts) + 1), frozenset(
                rng.randrange(64) for _ in range(rng.randint(1, 6))))
        pairs = []
        for members in parts:
            below = _kernels.below_set(members)
            pairs.append(
                (members, None if below is None else frozenset(below)))
        got = FamilySet.union_of_parts(pairs)
        assert got == FamilySet.explicit(frozenset().union(*parts)), parts
