"""Noninterference checks in three formulations.

A LowView partitions the states by agreement on the low variables.  The
relational and hyper checks agree on every relation; the possibilistic
check additionally demands that the domain not split an agreement class
(automatic for total denotations), so all three coincide on total
deterministic programs and are cross-tested against one another:

* relational — the four-state quantifier, checked by enumeration;
* possibilistic — the simulation inequality sim;R <= R;sim;
* hyper — agreement classes stay agreement classes under the forward
  transformer (only the maximal sets, i.e. the classes, need checking).

The relational form is subset closed: every subrelation of a secure
relation is secure, so refinement preserves it (Clarkson & Schneider,
"Hyperproperties", JCS 2010).  The possibilistic form is not; removing
pairs can break it.
"""

from dataclasses import dataclass

from . import _kernels
from .relation import Rel
from .semantics import sem_tr


class LowView:
    """Partition of a state space by equality on chosen low variables."""

    __slots__ = ("space", "low_vars", "classes", "class_of")

    def __init__(self, space, low_vars):
        low = tuple(low_vars)
        cols = [space.column(v) for v in low]
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
        self.low_vars = low
        self.classes = classes
        self.class_of = tuple(class_of)

    def agrees(self, s, t):
        return self.class_of[s] == self.class_of[t]

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


@dataclass
class NIVerdict:
    ok: bool
    witness: tuple = None

    def __bool__(self):
        return self.ok


def ni_relational(rel, view, view_out=None):
    """Deterministic-style NI: related agreeing sources force agreeing
    targets.  Witness is (s, s', t, t') on failure."""
    out = view_out if view_out is not None else view
    pairs = list(rel.pairs())
    for s, s2 in pairs:
        for t, t2 in pairs:
            if view.agrees(s, t) and not out.agrees(s2, t2):
                return NIVerdict(False, (s, s2, t, t2))
    return NIVerdict(True)


def ni_possibilistic(rel, view, view_out=None):
    """Possibilistic NI via the simulation inequality sim;R <= R;sim."""
    out = view_out if view_out is not None else view
    lhs = view.sim_relation().compose(rel)
    rhs = rel.compose(out.sim_relation())
    if lhs.is_subrelation(rhs):
        return NIVerdict(True)
    for s, t in lhs.pairs():
        if not rhs.rows[s] >> t & 1:
            return NIVerdict(False, (s, t))
    raise AssertionError("unreachable")


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
