"""Forward predicate transformers on state-set masks.

A transformer is the direct image of a relation, which is what every
program denotes (see ``semantics.sem_tr``): the paper's transformer level
is the direct image of the relational one, and its coincidence theorem is
stated for direct images.  So a transformer is represented by its
relation, a ``relation.Rel``, and applied through ``Rel.apply``, which
reads the relation's subset-image tables in one frame.  This module keeps
the subset-image property check, answered from the relation's rows.
"""

from collections import namedtuple

from .relation import Rel

# the transformer level's name for a relation read through its direct image
Transformer = Rel

PscResult = namedtuple("PscResult", "ok q r")
PscResult.__bool__ = lambda self: self.ok


def psc_check(rel):
    """Every subset of an image of rel is the exact image of some subset.

    Returns a truthy PscResult, or a falsy one carrying the first (q, r)
    with no witness s, in the scan order of ``_kernels.psc_scan_table``.

    A direct image has the property exactly when its relation is a
    partial function, so it is answered from the rows, at any size: the
    scan's first failing pair is q = {t} for the smallest state t with two
    or more successors, and r = the successors of t minus the lowest one.
    """
    for s, row in enumerate(rel.rows):
        if row & (row - 1):
            return PscResult(False, 1 << s, row & (row - 1))
    return PscResult(True, -1, -1)
