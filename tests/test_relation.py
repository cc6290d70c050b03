import random

import pytest

from hypersem import _kernels, relation
from hypersem.errors import SpaceMismatch
from hypersem.family import mask_of, states_of
from hypersem.harness import GenConfig, gen_program
from hypersem.lang import While, parse, pp_stmt
from hypersem.relation import IMAGE_TABLE_MAX_STATES, Rel
from hypersem.semantics import sem_rel
from hypersem.space import StateSpace
from support import (is_partial_function, rnd_rel, sem_rel_loop_by_kleene,
                     statements)


def body(text):
    pf = parse(text)
    return pf.body, pf.space()


# the refinement-counterexample relation from the two-bit hi/lo space:
# states are hi-major, so "10" is state 2
EIGHT_PAIRS = [(0, 0), (0, 1), (1, 0), (1, 1), (2, 2), (2, 3), (3, 2), (3, 3)]
UNDERLINED = [(0, 1), (1, 1), (2, 2), (3, 2)]


def test_compose_identity_law(x8):
    rng = random.Random(0)
    for _ in range(20):
        r = rnd_rel(rng, x8, 0.3)
        ident = Rel.identity(x8)
        assert r.compose(ident) == r
        assert ident.compose(r) == r


def test_compose_single_chain(x8):
    r = Rel.from_pairs(x8, [(2, 3)])
    s = Rel.from_pairs(x8, [(3, 4)])
    assert sorted(r.compose(s).pairs()) == [(2, 4)]


def test_compose_increment_twice(x8):
    node, space = body("var x: 0..7; x := x + 1")
    inc = sem_rel(node, space)
    twice = inc.compose(inc)
    assert sorted(twice.pairs()) == [(i, i + 2) for i in range(6)]


def test_compose_associative():
    rng = random.Random(1)
    space = StateSpace((("s", 0, 5),))
    for _ in range(30):
        a, b, c = (rnd_rel(rng, space, 0.3) for _ in range(3))
        assert a.compose(b).compose(c) == a.compose(b.compose(c))


def test_converse_involution(x8):
    rng = random.Random(2)
    for _ in range(20):
        rows = rnd_rel(rng, x8, 0.3).rows
        assert tuple(_kernels.converse_rows(
            _kernels.converse_rows(rows, 8), 8)) == rows


def test_coreflexive_empty(x8):
    assert Rel.coreflexive(x8, 0) == Rel.empty(x8)
    cor = Rel.coreflexive(x8, 0b1010)
    assert all(row & ~(1 << s) == 0 for s, row in enumerate(cor.rows))
    assert sorted(cor.pairs()) == [(1, 1), (3, 3)]


def test_rows_must_fit_the_space(x8):
    with pytest.raises(ValueError, match="expected 8 rows, got 7"):
        Rel(x8, (0,) * 7)
    with pytest.raises(ValueError, match="outside the space"):
        Rel(x8, (1 << 8,) + (0,) * 7)


def test_equal_relations_hash_equal(x8):
    inc = sem_rel(parse("var x: 0..7; x := x + 1").body, x8)
    same = Rel.from_pairs(x8, [(s, s + 1) for s in range(7)])
    assert inc == same and inc is not same
    assert hash(inc) == hash(same)
    assert len({inc, same, Rel.identity(x8)}) == 2


def test_repr_names_the_space_and_the_pairs(bits):
    assert repr(Rel(bits, [2, 0, 0, 1])) == (
        "Rel(StateSpace(hi:0..1, lo:0..1), pairs=[(0, 1), (3, 0)])")
    assert repr(Rel.empty(bits)) == (
        "Rel(StateSpace(hi:0..1, lo:0..1), pairs=[])")


def test_union_reconstructs_refinement_example(bits):
    full = Rel.from_pairs(bits, EIGHT_PAIRS)
    kept = Rel.from_pairs(bits, [p for p in EIGHT_PAIRS if p not in UNDERLINED])
    removed = Rel.from_pairs(bits, UNDERLINED)
    assert kept.union(removed) == full
    # the kept half copies hi to lo
    for s, t in kept.pairs():
        env_in = bits.decode(s)
        env_out = bits.decode(t)
        assert env_out["lo"] == env_in["hi"]


def test_space_mismatch(x8, bits):
    with pytest.raises(SpaceMismatch):
        Rel.identity(x8).compose(Rel.identity(bits))


def test_dirimg_strict_and_pointwise(x8):
    node, space = body("var x: 0..7; x := x + 1")
    inc = sem_rel(node, space)
    assert inc.dirimg(0) == 0
    assert states_of(inc.dirimg(mask_of([2, 5]))) == [3, 6]


def test_dirimg_tables_match_row_kernel(monkeypatch):
    # spaces on both sides of the 16-state limit of the subset-image
    # tables: Rel.dirimg and its transformer-level name Rel.apply read a
    # relation's two tables, built once by the first image of either one,
    # and above the limit both walk the rows
    built = []
    subset_images = relation._subset_images
    monkeypatch.setattr(relation, "_subset_images",
                        lambda rows: built.append(rows) or subset_images(rows))
    rng = random.Random(5)
    for n in (1, 2, 9, 10, 16, 17, 64):
        space = StateSpace((("s", 0, n - 1),))
        masks = ([0, space.full_mask] + [1 << s for s in range(n)]
                 + [rng.randrange(1 << n) for _ in range(40)])
        tables = 2 if n <= IMAGE_TABLE_MAX_STATES else 0
        for density in (0.1, 0.5):
            rows = rnd_rel(rng, space, density).rows
            want = [_kernels.dirimg_rows(rows, p) for p in masks]
            # before the tables exist: each mask is a new Rel's first image
            for p, image in zip(masks, want):
                for first in (Rel.dirimg, Rel.apply):
                    del built[:]
                    assert first(Rel(space, rows), p) == image
                    assert len(built) == tables
            # after: every image of one relation reads its tables
            del built[:]
            rel = Rel(space, rows)
            for image_of in (rel.apply, rel.dirimg):
                assert [image_of(p) for p in masks] == want
            assert len(built) == tables


def test_dirimg_of_loop_worked_value():
    node, space = body("var x: 0..7; while x < 4 { x := x + 1 }")
    loop = sem_rel(node, space)
    assert states_of(loop.dirimg(mask_of([2, 5]))) == [4, 5]


def rel_recover(tr):
    """The relation whose direct image tr is: s R t iff t in tr{s}."""
    return Rel(tr.space, [tr.apply(1 << s) for s in tr.space.states()])


def test_rel_recover_identity(x8):
    ident = Rel.identity(x8)
    assert rel_recover(ident) == ident


def test_rel_recover_roundtrip_random():
    rng = random.Random(3)
    for size in (2, 4, 8):
        space = StateSpace((("s", 0, size - 1),))
        for _ in range(500 // size):
            r = rnd_rel(rng, space, density=rng.random())
            assert rel_recover(r) == r


def test_rel_recover_bottom(x8):
    assert rel_recover(Rel.empty(x8)) == Rel.empty(x8)


def test_is_partial_function(x8):
    assert is_partial_function(Rel.identity(x8))
    assert not is_partial_function(Rel.from_pairs(x8, [(1, 1), (1, 2)]))
    assert is_partial_function(Rel.empty(x8))


def test_deterministic_programs_denote_partial_functions():
    for seed in range(40):
        cfg = GenConfig(seed=seed, allow_choice=False,
                        allow_nondet_atoms=False, max_space=8)
        pf = gen_program(cfg)
        space = pf.space()
        assert is_partial_function(sem_rel(pf.body, space))


def test_sem_rel_skip(x8):
    node, space = body("var x: 0..7; skip")
    assert sem_rel(node, space) == Rel.identity(space)


def test_sem_rel_loop_golden():
    node, space = body("var x: 0..7; while x < 4 { x := x + 1 }")
    loop = sem_rel(node, space)
    assert sorted(loop.pairs()) == [(0, 4), (1, 4), (2, 4), (3, 4),
                                    (4, 4), (5, 5), (6, 6), (7, 7)]


def test_sem_rel_divergence_is_empty():
    node, space = body("var x: 0..7; while true { skip }")
    assert sem_rel(node, space) == Rel.empty(space)


@pytest.mark.parametrize("deterministic", [True, False],
                         ids=["deterministic", "nondeterministic"])
def test_sem_rel_loop_is_the_least_fixpoint(deterministic):
    # the star (b; c)* ; !b against the Kleene chain at every `while` of
    # generated programs, whose atoms may be partial or relation literals
    loops = 0
    for seed in range(1000):
        cfg = GenConfig(seed=seed, max_space=12,
                        allow_choice=not deterministic,
                        allow_nondet_atoms=not deterministic)
        pf = gen_program(cfg)
        space = pf.space()
        for node in statements(pf.body):
            if isinstance(node, While):
                assert sem_rel(node, space) == \
                    sem_rel_loop_by_kleene(node, space), pp_stmt(node)
                loops += 1
    assert loops >= 700


@pytest.mark.parametrize("text", [
    "var x: 0..7; while true { skip }",
    "var x: 0..7; while false { x := x + 1 }",
    "var x: 0..63; while 0 < x { x := x - 1 }",
    "var hi: 0..7; var lo: 0..7; low lo; "
    "while 0 < hi { hi := hi - 1 ; lo := lo + 1 [] skip }",
], ids=["diverge", "exit", "countdown-64", "havoc-like-64"])
def test_sem_rel_loop_is_the_least_fixpoint_by_hand(text):
    node, space = body(text)
    assert sem_rel(node, space) == sem_rel_loop_by_kleene(node, space)


def test_dirimg_distributes():
    rng = random.Random(4)
    space = StateSpace((("s", 0, 3),))
    for _ in range(50):
        r = rnd_rel(rng, space, rng.random())
        s = rnd_rel(rng, space, rng.random())
        comp = r.compose(s)
        uni = r.union(s)
        for p in range(1 << space.size):
            assert comp.dirimg(p) == s.dirimg(r.dirimg(p))
            assert uni.dirimg(p) == r.dirimg(p) | s.dirimg(p)
    big = StateSpace((("s", 0, 5),))
    for _ in range(10):
        r = rnd_rel(rng, big, rng.random())
        s = rnd_rel(rng, big, rng.random())
        for _ in range(20):
            p = rng.randrange(1 << big.size)
            assert r.compose(s).dirimg(p) == s.dirimg(r.dirimg(p))


def test_order_reflection():
    rng = random.Random(5)
    space = StateSpace((("s", 0, 3),))
    for _ in range(60):
        r = rnd_rel(rng, space, rng.random())
        s = rnd_rel(rng, space, rng.random())
        pointwise = all(r.dirimg(p) & ~s.dirimg(p) == 0
                        for p in range(1 << space.size))
        assert pointwise == r.is_subrelation(s)


def test_loop_unrolling_law():
    from hypersem.lang import If, Seq, Skip, While
    from support import statements
    for seed in range(25):
        cfg = GenConfig(seed=seed, max_space=8)
        pf = gen_program(cfg)
        space = pf.space()
        for node in statements(pf.body):
            if not isinstance(node, While):
                continue
            unrolled = If(node.cond, Seq((node.body, node)), Skip())
            assert sem_rel(node, space) == sem_rel(unrolled, space)
