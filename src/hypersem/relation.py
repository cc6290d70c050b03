"""Binary relations on a finite state space, as per-state successor masks.

A relation is also the value of the transformer level: the paper's
transformers are the direct images of relations, so ``sem_tr`` returns
the ``Rel`` whose image it is, read through ``apply``.  This module alone
knows the layout of the subset-image tables an image is read from.
"""

from . import _kernels
from .errors import SpaceMismatch

IMAGE_TABLE_MAX_STATES = 16


def _subset_images(rows):
    """t[m] = union of rows[i] over the bits i of m, for every mask m over
    len(rows) states; equivalently t[m] = t[m & (m-1)] | rows[ctz m]."""
    t = [0]
    for row in rows:
        t += [x | row for x in t]
    return t


class Rel:
    """Immutable relation: rows[s] is the successor mask of state s.

    Up to 16 states, direct images come from two subset-image tables, one
    per half of the states, built on the first image (at most 2 x 256
    entries).  The tables live in their own slots: ``_low`` holds the
    images of the subsets of the first ``_half`` states and ``_high`` those
    of the rest, so the image of p is ``_low[p & _low_mask] | _high[p >>
    _half]``.  ``_low`` is None until the first image, and stays None above
    16 states, where an image is the row walk ``_kernels.dirimg_rows``.
    ``apply`` is ``dirimg`` under the transformer level's name.  An atom's
    relation is elaborated once per space, and ``sem_tr``, each ``HEval``
    and ``ni_hyper`` use that one object, so its tables and its lift memo
    are built once.

    ``subset_images`` (the lift oracle's principal parts with their
    closure data, see ``harness.lift_family``) keeps its answers in the
    ``_lift_parts`` slot.  The slot is set on the first call, so the many
    relations that are never lifted carry no memo, and the memo lives and
    dies with its relation: the answers depend on the rows, so no two
    relations share one.
    """

    __slots__ = ("space", "rows", "_low", "_high", "_half", "_low_mask",
                 "_lift_parts")

    def __init__(self, space, rows):
        rows = tuple(rows)
        if len(rows) != space.size:
            raise ValueError(f"expected {space.size} rows, got {len(rows)}")
        full = space.full_mask
        for r in rows:
            if r & ~full:
                raise ValueError("row has bits outside the space")
        self.space = space
        self.rows = rows
        self._low = None

    @classmethod
    def empty(cls, space):
        return cls(space, (0,) * space.size)

    @classmethod
    def identity(cls, space):
        return cls(space, tuple(1 << s for s in space.states()))

    @classmethod
    def coreflexive(cls, space, mask):
        """{ (s, s) | s in mask }."""
        return cls(space, tuple((1 << s) & mask for s in space.states()))

    @classmethod
    def from_pairs(cls, space, pairs):
        rows = [0] * space.size
        for s, t in pairs:
            rows[s] |= 1 << t
        return cls(space, rows)

    def pairs(self):
        for s, row in enumerate(self.rows):
            for t in _kernels.states_of(row):
                yield s, t

    def _check(self, other):
        if self.space != other.space:
            raise SpaceMismatch("relations over different spaces")

    def compose(self, other):
        """Forward composition: x (self;other) y iff exists z."""
        self._check(other)
        return Rel(self.space, _kernels.compose_rows(self.rows, other.rows))

    def union(self, other):
        self._check(other)
        return Rel(self.space, tuple(a | b for a, b in zip(self.rows, other.rows)))

    def dirimg(self, p):
        """Direct image of mask p."""
        low = self._low
        if low is None:
            rows = self.rows
            if len(rows) > IMAGE_TABLE_MAX_STATES:
                return _kernels.dirimg_rows(rows, p)
            half = self._half = (len(rows) + 1) // 2
            self._low_mask = (1 << half) - 1
            self._high = _subset_images(rows[half:])
            low = self._low = _subset_images(rows[:half])
        return low[p & self._low_mask] | self._high[p >> self._half]

    apply = dirimg

    def subset_images(self, mask):
        """The principal part of mask, memoized: the pair (images, below)
        of the frozenset of the images of every subset of mask, and
        ``_kernels.below_set`` of those images (the images one state
        smaller than another image) as a frozenset, or None when the
        images are not down-closed.

        The images come from the recurrence of ``_subset_images``, walked
        over mask's bits in place and without a call to ``apply`` per
        subset.  Building a row list per part for that function made the
        thm1 benchmark about 3% slower.

        Closure is decided by one count.  The last image, top, is the
        image of mask itself, and every other image is a subset of it.  So
        the images are down-closed exactly when they are all 2^|top|
        subsets of top, and then the images one state smaller than another
        image are all of them but top.
        """
        try:
            memo = self._lift_parts
        except AttributeError:
            memo = self._lift_parts = {}
        part = memo.get(mask)
        if part is None:
            rows = self.rows
            images = [0]
            m = mask
            while m:
                low = m & -m
                row = rows[low.bit_length() - 1]
                images += [x | row for x in images]
                m ^= low
            top = images[-1]
            images = frozenset(images)
            part = memo[mask] = (
                images, images - {top}
                if len(images) == 1 << top.bit_count() else None)
        return part

    def is_subrelation(self, other):
        self._check(other)
        return all(a & ~b == 0 for a, b in zip(self.rows, other.rows))

    def __eq__(self, other):
        return (isinstance(other, Rel) and self.space == other.space
                and self.rows == other.rows)

    def __hash__(self):
        return hash((self.space, self.rows))

    def __repr__(self):
        return f"Rel({self.space!r}, pairs={sorted(self.pairs())})"
