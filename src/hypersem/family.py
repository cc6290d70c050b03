"""Sets of states and families of state sets.

A state set is an int bitmask.  A family (an element of the double
powerset) is a ``FamilySet`` in one of two canonical representations:

* ``explicit`` — the finite set of member masks;
* ``downset`` — the antichain of its subset-maximal members, denoting
  every subset of every antichain element.

Down-sets are how subset-closed families stay small: the antichain is
linear where the expansion is exponential.  Equality and ordering are
semantic, independent of representation.  Both representations are
canonical, so ``==`` decides on them directly: two families of one kind
are equal iff their stored sets are; a down-set equals an explicit family
iff its expansion, capped at the explicit family's size, is exactly that
member set.  ``key()`` (and so ``hash``) is the semantic identity: an
explicit family that is subset closed keys as its down-set.
"""

from . import _kernels
from ._kernels import states_of  # re-exported: the kernels own bit walks
from .errors import ExpansionTooLarge

DEFAULT_EXPANSION_CAP = 1 << 16

EXPLICIT = "explicit"
DOWNSET = "downset"


def subsets_of(mask):
    """Yield every submask of mask, descending, ending with 0."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def mask_of(states):
    out = 0
    for s in states:
        out |= 1 << s
    return out


class FamilySet:
    """Canonical finite family of state-set masks."""

    __slots__ = ("kind", "sets", "_key")

    def __init__(self, kind, sets):
        # not for direct use: classmethods below canonicalize
        self.kind = kind
        self.sets = sets
        self._key = None

    @classmethod
    def empty(cls):
        return cls(EXPLICIT, frozenset())

    @classmethod
    def explicit(cls, members):
        return cls(EXPLICIT, frozenset(members))

    @classmethod
    def downset(cls, sets):
        """Down-closure of the given masks, stored as their antichain."""
        anti = _kernels.maximal_sets(list(sets))
        if not anti:
            return cls.empty()
        return cls(DOWNSET, frozenset(anti))

    @property
    def is_empty(self):
        return not self.sets

    def antichain(self):
        """Maximal members (the stored antichain for down-sets)."""
        if self.kind == DOWNSET:
            return self.sets
        return frozenset(_kernels.maximal_sets(list(self.sets)))

    def members(self, cap=DEFAULT_EXPANSION_CAP):
        """Every member mask; expands a down-set, capped."""
        if self.kind == EXPLICIT:
            return self.sets
        out = _kernels.expand_downset(list(self.sets), cap)
        if out is None:
            raise ExpansionTooLarge(
                f"down-set expansion exceeds cap {cap} "
                f"(antichain {sorted(self.sets)})")
        return frozenset(out)

    def __contains__(self, mask):
        if self.kind == DOWNSET:
            return any(mask & ~m == 0 for m in self.sets)
        return mask in self.sets

    def is_subset_closed(self):
        if self.is_empty:
            return True
        if self.kind == DOWNSET:
            return True
        return _kernels.is_downclosed(self.sets)

    def normalized(self):
        """Down-set representation whenever the family is subset closed."""
        if self.kind == DOWNSET or self.is_empty:
            return self
        if self.is_subset_closed():
            return FamilySet(DOWNSET, self.antichain())
        return self

    def key(self):
        """Semantic identity: representation-independent hashable form."""
        if self._key is None:
            norm = self.normalized()
            if norm.kind == DOWNSET:
                self._key = (DOWNSET, tuple(sorted(norm.sets)))
            else:
                self._key = (EXPLICIT, tuple(sorted(norm.sets)))
        return self._key

    def __eq__(self, other):
        if not isinstance(other, FamilySet):
            return NotImplemented
        if self.kind == other.kind:
            return self.sets == other.sets
        down, expl = (self, other) if self.kind == DOWNSET else (other, self)
        # capped at the explicit side's size, so this never blows up
        out = _kernels.expand_downset(list(down.sets), len(expl.sets))
        return (out is not None and len(out) == len(expl.sets)
                and expl.sets.issuperset(out))

    def __hash__(self):
        return hash(self.key())

    def __le__(self, other):
        return family_le(self, other)

    def __repr__(self):
        body = ",".join(f"{m:#x}" for m in sorted(self.sets))
        return f"FamilySet({self.kind}:{{{body}}})"


def ssc(fam):
    """Subset closure; down-set form whenever the input is nonempty."""
    if fam.is_empty:
        return FamilySet.empty()
    if fam.kind == DOWNSET:
        return fam
    return FamilySet(DOWNSET, fam.antichain())


def powerset_family(mask):
    """The family of all subsets of one state set."""
    return FamilySet(DOWNSET, frozenset((mask,)))


def family_union(a, b):
    if a.is_empty:
        return b
    if b.is_empty:
        return a
    if a.kind == DOWNSET and b.kind == DOWNSET:
        return FamilySet.downset(a.sets | b.sets)
    return FamilySet.explicit(a.members() | b.members())


def family_le(a, b):
    """Containment of denoted families, any representation mix."""
    if a.is_empty:
        return True
    if b.kind == DOWNSET:
        # a's members are dominated by a's maximals
        return all(any(m & ~g == 0 for g in b.sets) for m in a.antichain())
    if a.kind == DOWNSET:
        return all(sub in b.sets for m in a.sets for sub in subsets_of(m))
    return a.sets <= b.sets
