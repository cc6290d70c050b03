"""Program denotations at the relation and transformer levels.

``sem_rel`` uses the relation algebra; ``sem_tr`` applies each construct's
transformer rule and reads its operands only through ``apply``, so the
two share the per-space atom and guard elaborations (one relation per
atom and one mask per guard, kept by the space; see ``lang``), and
nothing else.  Atoms are direct images and every rule
keeps a map universally disjunctive, so each value is fixed by its images
of singletons and is stored as the image of the relation they form.
``;`` threads those rows through each part's ``apply`` in turn, and ``[]``
ORs each part's images of the singletons into them, so each part is
applied once per state.

Loops are least fixpoints computed by Kleene iteration from the bottom
element; on a finite space both chains stabilize within size*size steps
(each strict step adds at least one pair).  ``sem_tr`` images the loop
body at each guarded singleton once, before the iteration, so each
iterate applies only the previous iterate, once per state.
"""

from functools import reduce

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


def _pointwise(space, rows):
    """The universally disjunctive transformer that maps each singleton
    {s} to rows[s]."""
    return Transformer.image(Rel(space, rows))


def sem_tr(node, space):
    """Transformer denotation; extensionally the direct image of sem_rel."""
    if isinstance(node, Skip):
        return Transformer.identity(space)
    if isinstance(node, Atom):
        return Transformer.image(elaborate_atom(node.atom, space))
    singletons = [1 << s for s in space.states()]
    if isinstance(node, Seq):
        rows = singletons
        for part in node.parts:
            tr = sem_tr(part, space)
            rows = [tr.apply(x) for x in rows]
        return _pointwise(space, rows)
    if isinstance(node, Choice):
        rows = [0] * space.size
        for part in node.parts:
            tr = sem_tr(part, space)
            rows = [y | tr.apply(x) for x, y in zip(singletons, rows)]
        return _pointwise(space, rows)
    if isinstance(node, If):
        g = eval_bool(node.cond, space)
        ng = neg_mask(g, space)
        a = sem_tr(node.then, space)
        b = sem_tr(node.orelse, space)
        return _pointwise(space, [a.apply(x & g) | b.apply(x & ng)
                                  for x in singletons])
    if isinstance(node, While):
        g = eval_bool(node.cond, space)
        ng = neg_mask(g, space)
        body = sem_tr(node.body, space)
        # the body's image of each guarded singleton is fixed, so it is
        # taken once; each iterate applies only the previous iterate
        stay = [x & ng for x in singletons]
        step = [body.apply(x & g) for x in singletons]
        cur = Transformer.image(Rel.empty(space))
        budget = space.size * space.size + 2
        for _ in range(budget):
            nxt = _pointwise(space, [x | cur.apply(y)
                                     for x, y in zip(stay, step)])
            if nxt.rel == cur.rel:
                return cur
            cur = nxt
        raise IterationBudgetExceeded("transformer loop fixpoint")
    raise TypeError(f"not a statement: {node!r}")
