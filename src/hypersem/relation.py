"""Binary relations on a finite state space, as per-state successor masks."""

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
    per half of the states, built on first use (at most 2 x 256 entries).
    """

    __slots__ = ("space", "rows", "_images")

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
        self._images = None

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
        images = self._images
        if images is None:
            rows = self.rows
            if len(rows) > IMAGE_TABLE_MAX_STATES:
                images = ()
            else:
                half = (len(rows) + 1) // 2
                images = (_subset_images(rows[:half]),
                          _subset_images(rows[half:]), half, (1 << half) - 1)
            self._images = images
        if images:
            low, high, half, low_mask = images
            return low[p & low_mask] | high[p >> half]
        return _kernels.dirimg_rows(self.rows, p)

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
