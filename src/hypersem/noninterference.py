"""Noninterference checks in three formulations.

A LowView partitions the states by agreement on the low variables.  The
relational and hyper checks agree on every relation; the possibilistic
check additionally demands that the domain not split an agreement class
(automatic for total denotations), so all three coincide on total
deterministic programs and are cross-tested against one another:

* relational — the four-state quantifier on the relation's rows;
* possibilistic — the simulation inequality sim;R <= R;sim;
* hyper — agreement classes stay agreement classes under the forward
  transformer (only the maximal sets, i.e. the classes, need checking).

The relational form is subset closed: every subrelation of a secure
relation is secure, so refinement preserves it (Clarkson & Schneider,
"Hyperproperties", JCS 2010).  The possibilistic form is not; removing
pairs can break it.
"""

from collections import namedtuple

from . import _kernels
from .relation import Rel
from .semantics import sem_tr


class LowView:
    """Partition of a state space by equality on chosen low variables."""

    __slots__ = ("space", "classes", "class_of")

    def __init__(self, space, low_vars):
        cols = [space.column(v) for v in low_vars]
        buckets = {}
        for s in space.states():
            key = tuple(col[s] for col in cols)
            buckets[key] = buckets.get(key, 0) | 1 << s
        classes = tuple(sorted(buckets.values()))
        class_of = [0] * space.size
        for mask in classes:
            for s in _kernels.states_of(mask):
                class_of[s] = mask
        self.space = space
        self.classes = classes
        self.class_of = tuple(class_of)

    def sim_relation(self):
        """The agreement relation as a Rel (s related to its whole class)."""
        return Rel(self.space, self.class_of)

def agr(mask, view):
    """True iff the set lies inside a single agreement class."""
    if mask == 0:
        return True
    low_bit = mask & -mask
    cls = view.class_of[low_bit.bit_length() - 1]
    return mask & ~cls == 0


NIVerdict = namedtuple("NIVerdict", "ok witness", defaults=(None,))
NIVerdict.__bool__ = lambda self: self.ok


def ni_relational(rel, view, view_out=None):
    """Deterministic-style NI: related agreeing sources force agreeing
    targets, so each class's image lies in one output class.  Witness is
    (s, s', t, t') on failure, the first of the scan over pairs of pairs."""
    out = view_out if view_out is not None else view
    leaky = sum(cls for cls in view.classes
                if not agr(_kernels.dirimg_rows(rel.rows, cls), out))
    if not leaky:
        return NIVerdict(True)
    s = next(s for s in _kernels.states_of(leaky) if rel.rows[s])
    # every (s, s') from a failing class fails: s is its lowest source
    s2 = _kernels.states_of(rel.rows[s])[0]
    t = next(t for t in _kernels.states_of(view.class_of[s])
             if rel.rows[t] & ~out.class_of[s2])
    t2 = _kernels.states_of(rel.rows[t] & ~out.class_of[s2])[0]
    return NIVerdict(False, (s, s2, t, t2))


def ni_possibilistic(rel, view, view_out=None):
    """Possibilistic NI via the simulation inequality sim;R <= R;sim."""
    out = view_out if view_out is not None else view
    lhs = view.sim_relation().compose(rel)
    rhs = rel.compose(out.sim_relation())
    # the witness is the first state with a missing successor, and its
    # lowest missing target
    for s, (row, allowed) in enumerate(zip(lhs.rows, rhs.rows)):
        missing = row & ~allowed
        if missing:
            return NIVerdict(False, (s, (missing & -missing).bit_length() - 1))
    return NIVerdict(True)


def ni_hyper(node, view, view_out=None):
    """Hyper-level NI: each agreement class maps into an agreement set.

    With view_out, checks the generalized policy agreement-in (view) to
    agreement-out (view_out).
    """
    out = view_out if view_out is not None else view
    tr = sem_tr(node, view.space)
    for cls in view.classes:
        img = tr.apply(cls)
        if not agr(img, out):
            return NIVerdict(False, (cls, img))
    return NIVerdict(True)
