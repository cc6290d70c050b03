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

A `[]` chain is joined two branches at a time, nested to the left, as
the binary definition reads.  The n-ary product that ``hyper`` takes at
each ↓p equals it when every branch is monotone in the query, as under
the paper variant; keeping the definition keeps every variant's output
independent of that fact.
"""

import enum

from .errors import IterationBudgetExceeded, QueryBlowup
from .family import DEFAULT_EXPANSION_CAP, bounded_product, subsets_of
from .lang import Atom, Choice, If, Seq, Skip, While, elaborate_atom, eval_bool
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
    if isinstance(node, Choice):
        *init, last = node.parts
        left = init[0] if len(init) == 1 else Choice(tuple(init))
        out = set()
        for p in family:
            down = _down(p)
            a = ref_eval(left, down, space, variant)
            b = ref_eval(last, down, space, variant)
            out.update(bounded_product(a, b))
            _capped(out)
        return frozenset(out)
    if isinstance(node, If):
        bmask = eval_bool(node.cond, space)
        nb = space.full_mask & ~bmask
        out = set()
        for p in family:
            a = ref_eval(node.then, _down(p & bmask), space, variant)
            b = ref_eval(node.orelse, _down(p & nb), space, variant)
            out.update(bounded_product(a, b))
            _capped(out)
        return frozenset(out)
    if isinstance(node, While):
        return ref_while(node, family, space, variant)
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
        if variant is LoopVariant.NAIVE:
            y = ref_eval(node.body, frozenset(p & bmask for p in q), space,
                         variant)
            terms = [(y, None)]
            extra = frozenset(p & nb for p in q)
        elif variant is LoopVariant.OTIMES:
            terms = [(ref_eval(node.body, frozenset((p & bmask,)), space,
                               variant), frozenset((p & nb,)))
                     for p in q]
        else:
            terms = [(ref_eval(node.body, _down(p & bmask), space, variant),
                      _down(p & nb))
                     for p in q]
        systems[q] = (terms, extra)
        pending.extend(y for y, _ in terms)
    return systems


def ref_iterates(node, family, space, variant=LoopVariant.PAPER):
    """Synchronized iterates of every query's value, from {{}}."""
    systems = ref_loop_system(node, family, space, variant)
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


def ref_while(node, family, space, variant=LoopVariant.PAPER):
    prev = None
    for i, vals in enumerate(ref_iterates(node, family, space, variant)):
        if vals == prev:
            return vals[frozenset(family)]
        # the otimes iterates need not increase, so they may cycle
        budget = (1 << min(space.size, 20)) * len(vals) + 8
        if i == budget:
            raise IterationBudgetExceeded(
                f"loop iteration did not stabilize within {budget} steps")
        prev = vals
