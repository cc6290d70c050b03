"""Program denotations at the relation and transformer levels.

``sem_rel`` uses the relation algebra; ``sem_tr`` applies each construct's
transformer rule and reads its operands only through ``apply``, so the
two share the per-space atom and guard elaborations (one relation per
atom and one mask per guard, kept by the space; see ``lang``), and
nothing else.  Atoms are direct images and every rule
keeps a map universally disjunctive, so each value is fixed by its images
of singletons and is stored as the image of the relation they form.

Loops are least fixpoints computed by Kleene iteration from the bottom
element; on a finite space both chains stabilize within size*size steps
(each strict step adds at least one pair).
"""

from functools import reduce
from operator import or_

from .errors import IterationBudgetExceeded
from .lang import (Atom, Choice, If, Seq, Skip, While, elaborate_atom,
                   eval_bool)
from .relation import Rel
from .transformer import Transformer


def neg_mask(mask, space):
    return space.full_mask & ~mask


def sem_rel(node, space):
    """Relational denotation."""
    if isinstance(node, Skip):
        return Rel.identity(space)
    if isinstance(node, Atom):
        return elaborate_atom(node.atom, space)
    if isinstance(node, Seq):
        rels = [sem_rel(part, space) for part in node.parts]
        return reduce(lambda out, rel: rel.compose(out), reversed(rels))
    if isinstance(node, Choice):
        return reduce(Rel.union, [sem_rel(part, space)
                                  for part in node.parts])
    if isinstance(node, If):
        b = eval_bool(node.cond, space)
        then = Rel.coreflexive(space, b).compose(sem_rel(node.then, space))
        els = Rel.coreflexive(space, neg_mask(b, space)).compose(
            sem_rel(node.orelse, space))
        return then.union(els)
    if isinstance(node, While):
        b = eval_bool(node.cond, space)
        guard = Rel.coreflexive(space, b)
        notb = Rel.coreflexive(space, neg_mask(b, space))
        body = sem_rel(node.body, space)
        step = guard.compose(body)
        cur = Rel.empty(space)
        budget = space.size * space.size + 2
        for _ in range(budget):
            nxt = step.compose(cur).union(notb)
            if nxt == cur:
                return cur
            cur = nxt
        raise IterationBudgetExceeded("relational loop fixpoint")
    raise TypeError(f"not a statement: {node!r}")


def _pointwise(space, rule):
    """The universally disjunctive transformer that maps each singleton
    {s} to rule({s})."""
    return Transformer.image(
        Rel(space, [rule(1 << s) for s in space.states()]))


def sem_tr(node, space):
    """Transformer denotation; extensionally the direct image of sem_rel."""
    if isinstance(node, Skip):
        return Transformer.identity(space)
    if isinstance(node, Atom):
        return Transformer.image(elaborate_atom(node.atom, space))
    if isinstance(node, Seq):
        parts = [sem_tr(part, space) for part in node.parts]
        return _pointwise(space, lambda x: reduce(
            lambda y, tr: tr.apply(y), parts, x))
    if isinstance(node, Choice):
        parts = [sem_tr(part, space) for part in node.parts]
        return _pointwise(space, lambda x: reduce(
            or_, [tr.apply(x) for tr in parts]))
    if isinstance(node, If):
        g = eval_bool(node.cond, space)
        ng = neg_mask(g, space)
        a = sem_tr(node.then, space)
        b = sem_tr(node.orelse, space)
        return _pointwise(space, lambda x: a.apply(x & g) | b.apply(x & ng))
    if isinstance(node, While):
        g = eval_bool(node.cond, space)
        ng = neg_mask(g, space)
        body = sem_tr(node.body, space)
        cur = Transformer.image(Rel.empty(space))
        budget = space.size * space.size + 2
        for _ in range(budget):
            nxt = _pointwise(space, lambda x, cur=cur: (
                (x & ng) | cur.apply(body.apply(x & g))))
            if nxt.rel == cur.rel:
                return cur
            cur = nxt
        raise IterationBudgetExceeded("transformer loop fixpoint")
    raise TypeError(f"not a statement: {node!r}")
