"""Sets of states and families of state sets.

A state set is an int bitmask.  A family (an element of the double
powerset) is a ``FamilySet`` stored in exactly one form, chosen when it
is built:

* ``downset`` — a nonempty subset-closed family, stored as the antichain
  of its subset-maximal members, denoting every subset of every
  antichain element;
* ``explicit`` — any other family (empty, or not subset closed), stored
  as the finite set of its member masks.

Down-sets are how subset-closed families stay small: the antichain is
linear where the expansion is exponential.  ``explicit`` picks the form
in one pass over the members (``_kernels.below_set``): a nonempty set
closed under removing one state is a down-set, and its antichain is the
members less those one state smaller than another member; any other set
is kept as it is.  ``union_of_parts`` builds the union of member sets
that come with their closure data (the lift oracle's principal parts)
without that pass.  ``maximal_masks`` reduces masks to their antichain
with ``_kernels.maximal_sets``; one mask is its own antichain.
``downset`` normalizes through it, and so does the hyper engine's union
of top masks, which builds a down-set with ``of_antichain`` only when
two masks or more survive; ``antichain()`` of an explicit family hands
its members to the kernel.  A family's sets are frozensets of masks, and
the kernels take and return them as they are.  Since each family has one
stored form, ``==`` and ``hash`` compare that form (kind and stored
sets), and ``key()`` is the same pair as a sorted tuple.

The hyper semantics is built from two operations on families, and both
live here: ``family_union`` and ``family_product`` (the inner-join
product { r | s }).  Each works on antichains when every operand is a
down-set, and otherwise on member sets, expanded within
``DEFAULT_EXPANSION_CAP`` members and ``PAIR_BOUND`` pairs; past either
bound it raises ``QueryBlowup`` before the result is formed.

Most families the hyper engine builds are principal down-sets ↓{m}
(``powerset_family``), and those are built without ``downset``'s
normalization pass: the product of ↓{x} and ↓{y} is ↓{x | y}, which the
engine takes as the OR of the two top masks it carries.  One mask
is its own antichain, so the stored form is the canonical one and ``==``,
``hash`` and ``key()`` agree with the normalized family.  A union of
several down-sets hands its masks to ``maximal_masks``.
"""

from . import _kernels
from ._kernels import states_of  # re-exported: the kernels own bit walks
from .errors import QueryBlowup

DEFAULT_EXPANSION_CAP = 1 << 16
PAIR_BOUND = 1 << 24

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


def bounded_product(a, b):
    """{ r | s : r in a, s in b } over two member sets, refused before it
    is formed above PAIR_BOUND pairs: its time grows with the pairs even
    where its members stay under the cap."""
    if len(a) * len(b) > PAIR_BOUND:
        raise QueryBlowup(f"a product of {len(a)} by {len(b)} members "
                          f"exceeds the pair bound {PAIR_BOUND}")
    return (r | s for r in a for s in b)


def maximal_masks(sets):
    """The subset-maximal masks of a frozenset of masks, by
    ``_kernels.maximal_sets`` when there are two masks or more; fewer are
    their own antichain."""
    if len(sets) < 2:
        return sets
    return _kernels.maximal_sets(sets)


def mask_of(states):
    out = 0
    for s in states:
        out |= 1 << s
    return out


class FamilySet:
    """Canonical finite family of state-set masks."""

    __slots__ = ("kind", "sets")

    def __init__(self, kind, sets):
        # not for direct use outside this module: the classmethods below,
        # powerset_family and family_union build canonical forms
        self.kind = kind
        self.sets = sets

    @classmethod
    def empty(cls):
        return cls(EXPLICIT, frozenset())

    @classmethod
    def explicit(cls, members):
        """The family of exactly these masks: a down-set when nonempty and
        subset closed, else explicit."""
        sets = frozenset(members)
        below = _kernels.below_set(sets)
        if below is None or not sets:
            return cls(EXPLICIT, sets)
        return cls(DOWNSET, sets - below)

    @classmethod
    def downset(cls, sets):
        """Down-closure of the given masks, stored as their antichain."""
        sets = frozenset(sets)
        if not sets:
            return cls.empty()
        return cls(DOWNSET, maximal_masks(sets))

    @classmethod
    def of_antichain(cls, antichain):
        """The down-set of a nonempty frozenset of masks that is already
        its own antichain, as ``maximal_masks`` returns it."""
        return cls(DOWNSET, antichain)

    @classmethod
    def union_of_parts(cls, parts):
        """The family of the union of a nonempty iterable of member sets,
        each given as a pair (members, below) of frozensets, where below
        is ``_kernels.below_set(members)``: the members one state smaller
        than another member, or None when members is not down-closed.

        A union of down-closed sets is down-closed, and its antichain is
        its members less every part's below set: a member x strictly
        inside a member y of a down-closed part has, in that part, a chain
        from y down to x, so x is one state smaller than a member of it.
        When a part is not down-closed, ``explicit`` normalizes the union.
        """
        parts = iter(parts)
        members, below = next(parts)
        for part, part_below in parts:
            members = members | part
            if below is not None:
                below = None if part_below is None else below | part_below
        if below is None or not members:
            return cls.explicit(members)
        return cls(DOWNSET, members - below)

    @property
    def is_empty(self):
        return not self.sets

    def antichain(self):
        """Maximal members (the stored antichain for down-sets)."""
        if self.kind == DOWNSET:
            return self.sets
        return _kernels.maximal_sets(self.sets)

    def members(self):
        """Every member mask; expands a down-set of at most
        DEFAULT_EXPANSION_CAP members, and refuses a larger one."""
        if self.kind == EXPLICIT:
            return self.sets
        out = _kernels.expand_downset(self.sets, DEFAULT_EXPANSION_CAP)
        if out is None:
            raise QueryBlowup(
                f"down-set expansion exceeds cap {DEFAULT_EXPANSION_CAP} "
                f"(antichain {sorted(self.sets)})")
        return out

    def __contains__(self, mask):
        if self.kind == DOWNSET:
            return any(mask & ~m == 0 for m in self.sets)
        return mask in self.sets

    def is_subset_closed(self):
        return self.kind == DOWNSET or self.is_empty

    def key(self):
        """Semantic identity as a sortable, hashable tuple."""
        return (self.kind, tuple(sorted(self.sets)))

    def __eq__(self, other):
        if not isinstance(other, FamilySet):
            return NotImplemented
        return self.kind == other.kind and self.sets == other.sets

    def __hash__(self):
        return hash((self.kind, self.sets))

    def __le__(self, other):
        return family_le(self, other)

    def __repr__(self):
        body = ",".join(f"{m:#x}" for m in sorted(self.sets))
        return f"FamilySet({self.kind}:{{{body}}})"


def ssc(fam):
    """Subset closure; down-set form whenever the input is nonempty."""
    return fam if fam.kind == DOWNSET else FamilySet.downset(fam.sets)


def powerset_family(mask):
    """The family of all subsets of one state set."""
    return FamilySet(DOWNSET, frozenset((mask,)))


def family_union(*parts):
    """Union of families in one step.  One pass collects the antichain
    masks of the down-set parts, and their down-set is the union; at the
    first nonempty explicit part the union is taken over members instead.
    Empty parts are skipped, and a single nonempty part is returned as it
    is."""
    first = masks = None
    for part in parts:
        if not part.sets:
            continue
        if part.kind != DOWNSET:
            nonempty = [part for part in parts if part.sets]
            if len(nonempty) == 1:
                return nonempty[0]
            return FamilySet.explicit(
                m for part in nonempty for m in part.members())
        if first is None:
            first = part
            continue
        if masks is None:
            masks = set(first.sets)
        masks |= part.sets
    if masks is None:
        return first if first is not None else FamilySet.empty()
    return FamilySet.downset(masks)


def family_product(a, b):
    """{ r | s : r in a, s in b } on families."""
    if not a.sets or not b.sets:
        return FamilySet.empty()
    if a.kind == DOWNSET and b.kind == DOWNSET:
        return FamilySet.downset(x | y for x in a.sets for y in b.sets)
    return FamilySet.explicit(bounded_product(a.members(), b.members()))


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
