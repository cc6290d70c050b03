"""Program denotations at the relation and transformer levels.

``sem_rel`` uses the relation algebra; ``sem_tr`` applies each construct's
transformer rule and reads its operands only through ``apply``, so the
two share the per-space atom and guard elaborations (one relation per
atom and one mask per guard, kept by the space; see ``lang``) and the
join masks of ``lang.join_branches``, and nothing else.  Atoms are
direct images and every rule keeps a map universally disjunctive, so
each value is fixed by its images of singletons and is stored as the
image of the relation they form.  ``;`` threads those rows through each
part's ``apply`` in turn.

``[]`` and ``if`` share one join arm, over the (branch, mask) pairs of
``lang.join_branches``: a ``[]`` branch has the full mask, and an ``if``
reads its branches on its guard's mask and the complement.  ``sem_rel``
restricts each branch's relation to the pairs whose source lies in its
mask (``coreflexive(mask) ; R``, computed as a row filter; a loop's
step restricts its body to the guard the same way) and unites them;
``sem_tr`` ORs each branch's images of the masked singletons, so each
branch is applied once per state.

Loops are least fixpoints computed by Kleene iteration from the bottom
element; on a finite space both chains stabilize within size*size steps
(each strict step adds at least one pair).  ``sem_tr`` images the loop
body at each guarded singleton once, before the iteration, so each
iterate applies only the previous iterate, once per state.
"""

from functools import reduce

from .errors import IterationBudgetExceeded
from .lang import (Atom, Choice, If, Seq, Skip, While, elaborate_atom,
                   eval_bool, join_branches)
from .relation import Rel
from .transformer import Transformer


def _restrict(rel, mask):
    """coreflexive(mask) ; rel: the pairs of rel whose source is in mask."""
    if mask == rel.space.full_mask:
        return rel
    return Rel(rel.space, [row if mask >> s & 1 else 0
                           for s, row in enumerate(rel.rows)])


def sem_rel(node, space):
    """Relational denotation."""
    if isinstance(node, Skip):
        return Rel.identity(space)
    if isinstance(node, Atom):
        return elaborate_atom(node.atom, space)
    if isinstance(node, Seq):
        rels = [sem_rel(part, space) for part in node.parts]
        return reduce(lambda out, rel: rel.compose(out), reversed(rels))
    if isinstance(node, (Choice, If)):
        return reduce(Rel.union, [
            _restrict(sem_rel(part, space), mask)
            for part, mask in join_branches(node, space)])
    if isinstance(node, While):
        b = eval_bool(node.cond, space)
        notb = Rel.coreflexive(space, space.full_mask & ~b)
        step = _restrict(sem_rel(node.body, space), b)
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
    if isinstance(node, (Choice, If)):
        rows = [0] * space.size
        for part, mask in join_branches(node, space):
            tr = sem_tr(part, space)
            rows = [y | tr.apply(x & mask) for x, y in zip(singletons, rows)]
        return _pointwise(space, rows)
    if isinstance(node, While):
        g = eval_bool(node.cond, space)
        ng = space.full_mask & ~g
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
