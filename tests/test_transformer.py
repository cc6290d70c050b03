import random
from collections import Counter
from itertools import product

import pytest

from hypersem._kernels import below_set, psc_scan_table
from hypersem.family import mask_of, states_of, subsets_of
from hypersem.harness import GenConfig, check_prop1, gen_program
from hypersem.lang import elaborate_atom, parse
from hypersem.relation import Rel
from hypersem.semantics import sem_rel, sem_tr
from hypersem.space import StateSpace
from hypersem.transformer import psc_check
from support import (domain, is_disjunctive, is_monotone, is_partial_function,
                     rnd_rel, table_of)


def tr_of(text):
    pf = parse(text)
    return sem_tr(pf.body, pf.space()), pf.space()


# the subset table of a monotone, non-disjunctive transformer on 3 states:
# it emits {2} only once both 0 and 1 are present in the query
COUPLED = [0b100 if p & 0b011 == 0b011 else 0 for p in range(8)]


def test_bottom_is_constant_empty(x8):
    bot = Rel.empty(x8)
    for p in range(0, 256, 17):
        assert bot.apply(p) == 0


def test_guard_filter(x8):
    tr, space = tr_of("var x: 0..7; assume x < 4")
    assert tr.apply(mask_of([2, 5])) == mask_of([2])


def test_assign_apply(x8):
    tr, space = tr_of("var x: 0..7; x := x + 1")
    assert states_of(tr.apply(mask_of([2, 5]))) == [3, 6]


def test_sem_tr_skip_identity(x8):
    tr, space = tr_of("var x: 0..7; skip")
    assert tr == Rel.identity(space)


def test_sem_tr_loop_worked_value():
    tr, space = tr_of("var x: 0..7; while x < 4 { x := x + 1 }")
    assert states_of(tr.apply(mask_of([2, 5]))) == [4, 5]


def test_sem_tr_matches_dirimg_of_sem_rel():
    for seed in range(30):
        report = check_prop1(gen_program(GenConfig(seed=seed, max_space=8)))
        assert report.failures == 0, report.first_witness


def test_sem_tr_matches_dirimg_sampled_to_64_states():
    rng = random.Random(64)
    for seed in range(8):
        cfg = GenConfig(seed=seed, max_vars=2, max_range=7, max_space=64)
        pf = gen_program(cfg)
        space = pf.space()
        rel = sem_rel(pf.body, space)
        tr = sem_tr(pf.body, space)
        for _ in range(50):
            p = rng.randrange(1 << space.size)
            assert tr.apply(p) == rel.dirimg(p)
    # and on the full-width space directly
    pf = parse("var x: 0..63; while x < 40 { x := x + 3 }")
    space = pf.space()
    rel = sem_rel(pf.body, space)
    tr = sem_tr(pf.body, space)
    for _ in range(100):
        p = rng.randrange(1 << 64)
        assert tr.apply(p) == rel.dirimg(p)


def test_sem_tr_monotone():
    for seed in range(15):
        cfg = GenConfig(seed=seed, max_space=6)
        pf = gen_program(cfg)
        space = pf.space()
        assert is_monotone(table_of(sem_tr(pf.body, space)), space.size)


def count_applies(monkeypatch):
    """Rel.apply calls, counted by the id of the relation read."""
    calls = Counter()
    apply = Rel.apply

    def counted(rel, p):
        calls[id(rel)] += 1
        return apply(rel, p)

    monkeypatch.setattr(Rel, "apply", counted)
    return calls


def test_sem_tr_loop_images_its_body_once_per_state(monkeypatch):
    calls = count_applies(monkeypatch)
    pf = parse("var x: 0..7; while x < 7 { x := x + 1 }")
    space = pf.space()
    tr = sem_tr(pf.body, space)
    body = elaborate_atom(pf.body.body.atom, space)
    assert calls[id(body)] == space.size
    # nine iterates, from bottom to the fixpoint, each applied at the 8
    # body images; the value is still the loop's
    assert sum(calls.values()) == space.size + 9 * space.size
    assert tr.apply(0b1) == 1 << 7


@pytest.mark.parametrize("k", [2, 3, 5])
def test_sem_tr_seq_images_each_part_once_per_state(k, monkeypatch):
    calls = count_applies(monkeypatch)
    pf = parse("var x: 0..7; " + "; ".join(["x := x + 1"] * k))
    space = pf.space()
    tr = sem_tr(pf.body, space)
    parts = [elaborate_atom(part.atom, space) for part in pf.body.parts]
    assert [calls[id(rel)] for rel in parts] == [space.size] * k
    assert sum(calls.values()) == k * space.size
    assert tr.apply(0b1) == 1 << k


def test_psc_partial_functions_exhaustive(s3):
    # all (n+1)^n = 64 partial functions on 3 states
    options = [0] + [1 << t for t in range(3)]
    for rows in product(options, repeat=3):
        rel = Rel(s3, rows)
        assert psc_check(rel)


def test_psc_image_iff_partial_function_exhaustive(s3):
    # for direct images the subset-image property characterizes partial
    # functions; this rules out image-backed non-function examples.  The
    # answer from the rows must also carry the brute-force scan's witness.
    rng = random.Random(7)
    cases = [Rel(s3, rows) for rows in product(range(8), repeat=3)]
    for n in range(1, 9):
        space = StateSpace((("s", 0, n - 1),))
        for _ in range(12):
            cases.append(rnd_rel(rng, space))
        # partial functions, so that the full scan runs too
        cases.append(Rel(space, [rng.choice([0, 1 << rng.randrange(n)])
                                 for _ in range(n)]))
    for rel in cases:
        res = psc_check(rel)
        assert bool(res) == is_partial_function(rel)
        assert tuple(res) == psc_scan_table(table_of(rel), rel.space.size)


def test_psc_crossing_relation_fails_with_witness(s4):
    tr = Rel.from_pairs(s4, [(0, 2), (0, 3), (1, 2), (1, 3)])
    res = psc_check(tr)
    assert not res
    # the witness is a genuine failure: r below the image of q, no exact
    # preimage inside q
    fq = tr.apply(res.q)
    assert res.r & ~fq == 0 and res.r != fq
    assert all(tr.apply(s) != res.r for s in subsets_of(res.q))


def test_psc_nonfunction_exists_among_monotone_tables():
    assert is_monotone(COUPLED, 3)
    assert not is_disjunctive(COUPLED, 3)
    assert psc_scan_table(COUPLED, 3)[0]


def test_psc_size_cap():
    # images are answered from their rows at any size
    space = StateSpace((("a", 0, 3), ("b", 0, 3), ("c", 0, 3)))
    assert psc_check(Rel.identity(space))
    crossing = Rel.from_pairs(space, [(63, 5), (63, 9)])
    assert tuple(psc_check(crossing)) == (
        False, 1 << 63, 1 << 9)


def test_subset_images_count_matches_the_below_set_walk():
    # a part's closure is decided by counting its images against the
    # subsets of the top image; the walk over every image must agree
    rng = random.Random(23)
    closed = open_ = 0
    for n in range(1, 7):
        space = StateSpace((("s", 0, n - 1),))
        rels = [Rel.empty(space), Rel.identity(space),
                Rel(space, [1] * n)]  # every state to state 0
        for _ in range(6):
            rels.append(rnd_rel(rng, space))  # mostly not functional
            rels.append(Rel(space, [rng.choice([0, 1 << rng.randrange(n)])
                                    for _ in range(n)]))
            rels.append(Rel(space, [rng.choice([0, rng.randrange(1 << n)])
                                    for _ in range(n)]))
        for rel in rels:
            for m in range(1 << n):
                images = frozenset(map(rel.apply, subsets_of(m)))
                below = below_set(images)
                part = rel.subset_images(m)
                assert part == (images, below), (rel.rows, m)
                assert part[1] is None or type(part[1]) is frozenset
                assert rel.subset_images(m) is part
                closed += below is not None
                open_ += below is None
    assert closed and open_


def test_disjunctive_restricts_to_domain():
    space = StateSpace((("s", 0, 5),))
    rng = random.Random(4)
    for _ in range(25):
        phi = rnd_rel(rng, space)
        d = domain(phi)
        for r in range(1 << space.size):
            assert phi.apply(r) == phi.apply(r & d)


def test_is_univ_disjunctive(s3):
    rng = random.Random(5)
    for _ in range(20):
        assert is_disjunctive(
            table_of(rnd_rel(rng, s3)), 3)
    assert not is_disjunctive(COUPLED, 3)


def test_psc_join_disjoint_domains(s4):
    # partial functions with disjoint domains: the join keeps the
    # subset-image property
    rng = random.Random(6)
    for _ in range(60):
        split = rng.randrange(1 << s4.size)
        rows_a = []
        rows_b = []
        for s in s4.states():
            succ = 1 << rng.randrange(s4.size) if rng.random() < 0.8 else 0
            if split >> s & 1:
                rows_a.append(succ)
                rows_b.append(0)
            else:
                rows_a.append(0)
                rows_b.append(succ)
        phi = Rel(s4, rows_a)
        psi = Rel(s4, rows_b)
        assert domain(phi) & domain(psi) == 0
        assert psc_check(phi) and psc_check(psi)
        assert psc_check(phi.union(psi))


def test_psc_join_of_partial_functions_exhaustive(s3):
    # every pair of the 64 partial functions on 3 states: the join keeps
    # the subset-image property exactly when the two agree wherever both
    # are defined, and the table scan agrees with the answer from rows
    funcs = [Rel(s3, rows)
             for rows in product([0] + [1 << t for t in range(3)], repeat=3)]
    kept = 0
    for a, b in product(funcs, repeat=2):
        joined = a.union(b)
        res = psc_check(joined)
        assert tuple(res) == psc_scan_table(table_of(joined), 3)
        agree = all(x == y or not (x and y) for x, y in zip(a.rows, b.rows))
        assert bool(res) == agree
        kept += agree
    assert 0 < kept < len(funcs) ** 2


def test_psc_join_overlapping_domains_can_fail(s4):
    phi = Rel.from_pairs(s4, [(0, 0)])
    psi = Rel.from_pairs(s4, [(0, 1)])
    assert psc_check(phi) and psc_check(psi)
    assert not psc_check(phi.union(psi))
