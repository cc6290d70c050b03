"""Program denotations at the relation and transformer levels.

Loops are least fixpoints computed by Kleene iteration from the bottom
element; on a finite space both chains stabilize within size*size steps
(each strict step adds at least one pair).
"""

from .errors import IterationBudgetExceeded
from .lang import (Atom, Choice, If, Seq, Skip, While, elaborate_atom,
                   eval_bool)
from .relation import Rel
from .transformer import Transformer


def neg_mask(mask, space):
    return space.full_mask & ~mask


def _seq(node, space, sem):
    """A `;` chain: its parts denoted in order, in a loop, then composed
    from the right as the chain nests, so its length costs no depth."""
    parts = []
    while isinstance(node, Seq):
        parts.append(sem(node.first, space))
        node = node.rest
    out = sem(node, space)
    for part in reversed(parts):
        out = part.compose(out)
    return out


def _choice(node, space, sem, join):
    """A `[]` chain, nested to the left by the parser: its parts denoted
    in order, in a loop, and joined from the left, so its length costs no
    depth."""
    rights = []
    while isinstance(node, Choice):
        rights.append(node.right)
        node = node.left
    out = sem(node, space)
    for right in reversed(rights):
        out = join(out, sem(right, space))
    return out


def sem_rel(node, space):
    """Relational denotation."""
    if isinstance(node, Skip):
        return Rel.identity(space)
    if isinstance(node, Atom):
        return elaborate_atom(node.atom, space)
    if isinstance(node, Seq):
        return _seq(node, space, sem_rel)
    if isinstance(node, Choice):
        return _choice(node, space, sem_rel, Rel.union)
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


def sem_tr(node, space):
    """Transformer denotation; extensionally the direct image of sem_rel."""
    if isinstance(node, Skip):
        return Transformer.identity(space)
    if isinstance(node, Atom):
        return Transformer.image(elaborate_atom(node.atom, space))
    if isinstance(node, Seq):
        return _seq(node, space, sem_tr)
    if isinstance(node, Choice):
        return _choice(node, space, sem_tr, Transformer.join)
    if isinstance(node, If):
        b = eval_bool(node.cond, space)
        tb = Transformer.image(Rel.coreflexive(space, b))
        tnb = Transformer.image(Rel.coreflexive(space, neg_mask(b, space)))
        return tb.compose(sem_tr(node.then, space)).join(
            tnb.compose(sem_tr(node.orelse, space)))
    if isinstance(node, While):
        b = eval_bool(node.cond, space)
        tb = Transformer.image(Rel.coreflexive(space, b))
        tnb = Transformer.image(Rel.coreflexive(space, neg_mask(b, space)))
        tbody = sem_tr(node.body, space)
        step = tb.compose(tbody)
        cur = Transformer.bottom(space)
        budget = space.size * space.size + 2
        for _ in range(budget):
            nxt = step.compose(cur).join(tnb)
            if nxt.extensionally_equal(cur):
                return cur
            cur = nxt
        raise IterationBudgetExceeded("transformer loop fixpoint")
    raise TypeError(f"not a statement: {node!r}")
