"""Definitional hyper evaluator over plain frozensets, for every loop variant.

Families are frozensets of masks: no down-sets, no maximal-member
shortcuts, no memo; loops are keyed by whole families and solved by
synchronized iteration from {{}}.  It is the paper engine's test oracle,
so it must not import ``hyper``, and the only implementation of the
anomalous ``naive`` and ``otimes`` variants (see ``ref_loop_system``).
A product or loop value of more than ``DEFAULT_EXPANSION_CAP`` members
raises ``QueryBlowup``, and so does a subset closure ↓p of one, before
it is enumerated: a member set of more than 16 states under a choice, or
on one side of the guard of a conditional or a paper loop.  A product of
more than ``PAIR_BOUND`` pairs is refused before it is formed.

`[]` and `if` share one join, over the (branch, mask) pairs of
``lang.join_branches``: at each member p, the n-ary product of every
branch's value at ↓(p & its mask), as ``hyper`` takes it.  The binary
definition nests a chain to the left two branches at a time; the two
agree under every variant because ``ref_eval`` is monotone in its query
(F ⊆ G gives ref(F) ⊆ ref(G)), by structural induction: atoms and skip
map members one by one, `;` composes monotone maps, and a join unites
over the query's members; a paper or naive loop's value is the limit of
an increasing chain from {{}} with a monotone right-hand side; an otimes
iterate unites over the query's members, the key each member reads
depends on that member alone, and the value is read once the whole
system is stable.  So the nested join at ↓p, the union over q ⊆ p of
a(↓q) ⊗ b(↓q), is a(↓p) ⊗ b(↓p), and by induction on the chain the
nesting is the n-ary product.
"""

import enum

from .errors import IterationBudgetExceeded, QueryBlowup
from .family import DEFAULT_EXPANSION_CAP, bounded_product, subsets_of
from .lang import (Atom, Choice, If, Seq, Skip, While, elaborate_atom,
                   eval_bool, join_branches)
from .transformer import Transformer


class LoopVariant(enum.Enum):
    PAPER = "paper"
    NAIVE = "naive"
    OTIMES = "otimes"


def _capped(family):
    if len(family) > DEFAULT_EXPANSION_CAP:
        raise QueryBlowup(f"family of {len(family)} members exceeds the "
                          f"member cap {DEFAULT_EXPANSION_CAP}")
    return family


def _down(mask):
    """Every subset of mask, refused before enumeration above the cap."""
    if 1 << mask.bit_count() > DEFAULT_EXPANSION_CAP:
        raise QueryBlowup(f"the subsets of a {mask.bit_count()}-state set "
                          f"exceed the member cap {DEFAULT_EXPANSION_CAP}")
    return frozenset(subsets_of(mask))


def loop_budget(size, nqueries):
    """Steps or updates a loop solve over nqueries unknowns may take."""
    return (1 << min(size, 20)) * nqueries + 8


def ref_eval(node, family, space, variant=LoopVariant.PAPER):
    """The value of a statement at a family given as a set of masks."""
    if not family:
        return frozenset()
    if isinstance(node, Skip):
        return frozenset(family)
    if isinstance(node, Atom):
        tr = Transformer.image(elaborate_atom(node.atom, space))
        return frozenset(tr.apply(p) for p in family)
    if isinstance(node, Seq):
        for part in node.parts:
            family = ref_eval(part, family, space, variant)
        return family
    if isinstance(node, (Choice, If)):
        *init, (last, lmask) = join_branches(node, space)
        out = set()
        for p in family:
            # the n-ary product at p, from its unit {{}}: each branch at
            # ↓(p & its mask), capped as it grows until the last branch
            val = frozenset((0,))
            for part, mask in init:
                val = _capped(frozenset(bounded_product(val, ref_eval(
                    part, _down(p & mask), space, variant))))
            out.update(bounded_product(val, ref_eval(
                last, _down(p & lmask), space, variant)))
            _capped(out)
        return frozenset(out)
    if isinstance(node, While):
        # stepping the iterates here, not in a helper, keeps a loop level
        # at two frames: this one and ref_loop_system's
        systems = ref_loop_system(node, family, space, variant)
        prev = None
        for i, vals in enumerate(ref_iterates(systems)):
            if vals == prev:
                return vals[frozenset(family)]
            # the otimes iterates need not increase, so they may cycle
            budget = loop_budget(space.size, len(vals))
            if i == budget:
                raise IterationBudgetExceeded(
                    f"loop iteration did not stabilize within {budget} steps")
            prev = vals
    raise TypeError(node)


def ref_loop_system(node, family, space, variant):
    """Family-keyed loop equations: query -> (terms, extra).

    A query's value is extra united with, for each (dep, wrap) term,
    { r | s : r in value(dep), s in wrap } (or value(dep) when wrap is
    None).  paper: one term per member p, dep = body at the subsets of
    p & guard, wrap = subsets of p & ~guard.  otimes: one term per member
    q, dep = body at {q & guard}, wrap = {q & ~guard}.  naive: one term,
    dep = body at the guard-filtered query, extra = the query filtered by
    ~guard.
    """
    bmask = eval_bool(node.cond, space)
    nb = space.full_mask & ~bmask
    systems = {}
    pending = [frozenset(family)]
    while pending:
        q = pending.pop()
        if q in systems:
            continue
        extra = frozenset()
        # plain loops, not comprehensions: on Python before 3.12 a
        # comprehension is a frame of its own around the body's ref_eval
        terms = []
        if variant is LoopVariant.NAIVE:
            y = ref_eval(node.body, frozenset(p & bmask for p in q), space,
                         variant)
            terms.append((y, None))
            extra = frozenset(p & nb for p in q)
        elif variant is LoopVariant.OTIMES:
            for p in q:
                terms.append((ref_eval(node.body, frozenset((p & bmask,)),
                                       space, variant),
                              frozenset((p & nb,))))
        else:
            for p in q:
                terms.append((ref_eval(node.body, _down(p & bmask), space,
                                       variant), _down(p & nb)))
        systems[q] = (terms, extra)
        pending.extend(y for y, _ in terms)
    return systems


def ref_iterates(systems):
    """Synchronized iterates of every query's value in a system from
    ``ref_loop_system``, from {{}}."""
    vals = {q: frozenset((0,)) if q else frozenset() for q in systems}
    while True:
        yield vals
        nxt = {}
        for q, (terms, extra) in systems.items():
            out = set(extra)
            for y, wrap in terms:
                if wrap is None:
                    out |= vals[y]
                else:
                    out.update(bounded_product(vals[y], wrap))
            nxt[q] = _capped(frozenset(out))
        vals = nxt
