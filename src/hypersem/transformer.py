"""Forward predicate transformers on state-set masks.

A transformer is the direct image of a relation, which is what every
program denotes (see ``semantics.sem_tr``): the paper's transformer level
is the direct image of the relational one, and its coincidence theorem is
stated for direct images.  A transformer is combined with others only
through its ``apply``.
"""

from collections import namedtuple

from .relation import Rel

PscResult = namedtuple("PscResult", "ok q r")
PscResult.__bool__ = lambda self: self.ok


class Transformer:
    """Monotone map from state masks to state masks: the direct image of
    the relation rel."""

    __slots__ = ("space", "rel")

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
        return self.rel.dirimg(p)

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
