"""Program denotations at the relation and transformer levels.

``sem_rel`` uses the relation algebra; ``sem_tr`` applies each construct's
transformer rule and reads its operands only through ``apply``, so the
two share the per-space atom and guard elaborations (one relation per
atom and one mask per guard, kept by the space; see ``lang``) and the
join masks of ``lang.join_branches``, and nothing else.  Atoms are
direct images and every rule keeps a map universally disjunctive, so
each value is fixed by its images of singletons: ``sem_tr`` returns the
``Rel`` they form, whose direct image it is, and an atom's value is its
elaborated relation itself.  ``;`` threads those rows through each part's
``apply`` in turn.

``[]`` and ``if`` share one join arm, over the (branch, mask) pairs of
``lang.join_branches``: a ``[]`` branch has the full mask, and an ``if``
reads its branches on its guard's mask and the complement.  ``sem_rel``
restricts each branch's relation to the pairs whose source lies in its
mask (``coreflexive(mask) ; R``, computed as a row filter; a loop's
step restricts its body to the guard the same way) and unites them;
``sem_tr`` ORs each branch's images of the masked singletons, so each
branch is applied once per state.

A loop is the least fixpoint of X = (b; c); X u !b.  ``sem_rel`` takes
the star (b; c)* ; !b (Kozen, TOPLAS 1997): from each state it walks the
guarded body's rows to the states outside the guard.  ``sem_tr`` keeps
Kleene iteration from bottom (each strict step adds a pair, so it stops
within size*size steps) and images the body at each guarded state once.
"""

from functools import reduce

from . import _kernels
from .errors import IterationBudgetExceeded
from .lang import (Atom, Choice, If, Seq, Skip, While, elaborate_atom,
                   eval_bool, join_branches)
from .relation import Rel


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
    # plain loops: a comprehension is a frame of its own on Python 3.11,
    # and would double each nesting level's share of the stack
    if isinstance(node, Seq):
        rels = []
        for part in node.parts:
            rels.append(sem_rel(part, space))
        return reduce(lambda out, rel: rel.compose(out), reversed(rels))
    if isinstance(node, (Choice, If)):
        out = None
        for part, mask in join_branches(node, space):
            rel = _restrict(sem_rel(part, space), mask)
            out = rel if out is None else out.union(rel)
        return out
    if isinstance(node, While):
        b = eval_bool(node.cond, space)
        step = _restrict(sem_rel(node.body, space), b).rows
        rows = []
        for s in space.states():
            reached = frontier = 1 << s
            while frontier := _kernels.dirimg_rows(step, frontier) & ~reached:
                reached |= frontier
            rows.append(reached & ~b)
        return Rel(space, rows)
    raise TypeError(f"not a statement: {node!r}")


def sem_tr(node, space):
    """Transformer denotation: the relation whose direct image it is,
    extensionally sem_rel, built from its operands' images alone."""
    if isinstance(node, Skip):
        return Rel.identity(space)
    if isinstance(node, Atom):
        return elaborate_atom(node.atom, space)
    singletons = [1 << s for s in space.states()]
    if isinstance(node, Seq):
        rows = singletons
        for part in node.parts:
            tr = sem_tr(part, space)
            rows = [tr.apply(x) for x in rows]
        return Rel(space, rows)
    if isinstance(node, (Choice, If)):
        rows = [0] * space.size
        for part, mask in join_branches(node, space):
            tr = sem_tr(part, space)
            rows = [y | tr.apply(x & mask) for x, y in zip(singletons, rows)]
        return Rel(space, rows)
    if isinstance(node, While):
        g = eval_bool(node.cond, space)
        ng = space.full_mask & ~g
        body = sem_tr(node.body, space)
        # the body's image of each guarded singleton is fixed, so it is
        # taken once; each iterate applies only the previous iterate
        stay = [x & ng for x in singletons]
        step = [body.apply(x & g) for x in singletons]
        cur = Rel.empty(space)
        budget = space.size * space.size + 2
        for _ in range(budget):
            nxt = Rel(space, [x | cur.apply(y) for x, y in zip(stay, step)])
            if nxt == cur:
                return cur
            cur = nxt
        # unreachable while the iterates grow: each strict step adds a pair
        raise IterationBudgetExceeded("transformer loop fixpoint")
    raise TypeError(f"not a statement: {node!r}")
