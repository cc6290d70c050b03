"""Forward predicate transformers on state-set masks.

A transformer is the direct image of a relation, which is what every
program denotes (see ``semantics.sem_tr``): the paper's transformer level
is the direct image of the relational one, and its coincidence theorem is
stated for direct images.  A transformer is combined with others only
through its ``apply``, which reads the subset-image tables of its relation
(see ``relation.Rel``) in its own frame: an image is one Python call, and
every transformer of one relation shares that relation's tables.
"""

from collections import namedtuple

from .relation import Rel

PscResult = namedtuple("PscResult", "ok q r")
PscResult.__bool__ = lambda self: self.ok


class Transformer:
    """Monotone map from state masks to state masks: the direct image of
    the relation rel.

    ``subset_images`` (the lift oracle's principal parts with their
    closure data, see ``harness.lift_family``) keeps its answers in the
    ``_lift_parts`` slot.  The slot is set on the first call, so the many
    transformers that are never lifted carry no memo, and the memo lives
    and dies with its transformer: the answers depend on rel, so no two
    transformers share one.
    """

    __slots__ = ("space", "rel", "_lift_parts")

    def __init__(self, space, rel):
        self.space = space
        self.rel = rel

    @classmethod
    def image(cls, rel):
        """Direct image of a relation."""
        return cls(rel.space, rel)

    @classmethod
    def identity(cls, space):
        return cls.image(Rel.identity(space))

    def apply(self, p):
        """Direct image of mask p, read from rel's subset-image tables in
        this one frame once ``Rel.dirimg`` has built them; until then, and
        above 16 states, it is ``rel.dirimg(p)``."""
        rel = self.rel
        low = rel._low
        if low is None:
            return rel.dirimg(p)
        return low[p & rel._low_mask] | rel._high[p >> rel._half]

    def subset_images(self, mask):
        """The principal part of mask, memoized: the pair (images, below)
        of the frozenset of the images of every subset of mask, and
        ``_kernels.below_set`` of those images (the images one state
        smaller than another image) as a frozenset, or None when the
        images are not down-closed.

        The images come from the subset-image recurrence of
        ``relation._subset_images``, walked over mask's bits in place and
        without a call to ``apply`` per subset.  Building a row list per
        part for that function made the thm1 benchmark about 3% slower.

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
            rows = self.rel.rows
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

    def __repr__(self):
        return f"Transformer(image, {self.space!r})"


def psc_check(tr):
    """Every subset of an image is the exact image of some subset.

    Returns a truthy PscResult, or a falsy one carrying the first (q, r)
    with no witness s, in the scan order of ``_kernels.psc_scan_table``.

    A direct image has the property exactly when its relation is a
    partial function, so it is answered from the rows, at any size: the
    scan's first failing pair is q = {t} for the smallest state t with two
    or more successors, and r = the successors of t minus the lowest one.
    """
    for s, row in enumerate(tr.rel.rows):
        if row & (row - 1):
            return PscResult(False, 1 << s, row & (row - 1))
    return PscResult(True, -1, -1)
