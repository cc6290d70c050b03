"""Forward predicate transformers on state-set masks.

A transformer is backed either by a relation (its direct image, which is
what every program denotes: see ``semantics.sem_tr``) or by an explicit
table over all subsets, which is how adversarial transformers for the
lemma tests are hosted.  Tables are limited to spaces of at most 16
states.  Either kind can be applied, tabulated and scanned; a transformer
is combined with others only through its ``apply``.
"""

from collections import namedtuple

from . import _kernels
from .errors import SpaceTooLarge
from .relation import Rel

TABLE_MAX_STATES = 16
PSC_MAX_STATES = 10

PscResult = namedtuple("PscResult", "ok q r")
PscResult.__bool__ = lambda self: self.ok


class Transformer:
    """Monotone map from state masks to state masks."""

    __slots__ = ("space", "rel", "table")

    def __init__(self, space, rel=None, table=None):
        if (rel is None) == (table is None):
            raise ValueError("exactly one of rel/table required")
        self.space = space
        self.rel = rel
        self.table = table

    @classmethod
    def image(cls, rel):
        """Direct image of a relation."""
        return cls(rel.space, rel=rel)

    @classmethod
    def from_table(cls, space, entries, check_monotone=True):
        if space.size > TABLE_MAX_STATES:
            raise SpaceTooLarge(
                f"table representation limited to {TABLE_MAX_STATES} states")
        entries = tuple(entries)
        if len(entries) != 1 << space.size:
            raise ValueError("table must have one entry per subset")
        tr = cls(space, table=entries)
        if check_monotone and not is_monotone(tr):
            raise ValueError("table is not monotone")
        return tr

    @classmethod
    def from_function(cls, space, fn, check_monotone=True):
        return cls.from_table(
            space, (fn(p) for p in range(1 << space.size)), check_monotone)

    @classmethod
    def identity(cls, space):
        return cls.image(Rel.identity(space))

    def apply(self, p):
        if self.rel is not None:
            return self.rel.dirimg(p)
        return self.table[p]

    def tabulate(self):
        if self.table is not None:
            return list(self.table)
        if self.space.size > TABLE_MAX_STATES:
            raise SpaceTooLarge("space too large to tabulate")
        return [self.apply(p) for p in range(1 << self.space.size)]

    def __repr__(self):
        kind = "image" if self.rel is not None else "table"
        return f"Transformer({kind}, {self.space!r})"


def dom(tr):
    """States whose singleton image is nonempty."""
    out = 0
    for s in tr.space.states():
        if tr.apply(1 << s):
            out |= 1 << s
    return out


def is_monotone(tr):
    """Check p <= q implies phi p <= phi q via single-bit additions."""
    n = tr.space.size
    if n > PSC_MAX_STATES and tr.table is None:
        raise SpaceTooLarge(f"monotonicity scan limited to {PSC_MAX_STATES} states")
    tab = tr.tabulate()
    for p in range(1 << n):
        fp = tab[p]
        for b in range(n):
            if not p >> b & 1:
                if fp & ~tab[p | 1 << b]:
                    return False
    return True


def is_univ_disjunctive(tr):
    """Strict and distributes over union; on a finite space this reduces
    to agreeing with the union of singleton images."""
    n = tr.space.size
    if n > PSC_MAX_STATES and tr.table is None:
        raise SpaceTooLarge(f"disjunctivity scan limited to {PSC_MAX_STATES} states")
    tab = tr.tabulate()
    single = [tab[1 << s] for s in range(n)]
    return all(_kernels.dirimg_rows(single, p) == tab[p]
               for p in range(1 << n))


def psc_check(tr):
    """Every subset of an image is the exact image of some subset.

    Returns a truthy PscResult, or a falsy one carrying the first (q, r)
    with no witness s, in the scan order of ``psc_scan_table``.

    A direct image has the property exactly when its relation is a
    partial function, so image-backed transformers are answered from the
    rows, at any size: the scan's first failing pair is q = {t} for the
    smallest state t with two or more successors, and r = the successors
    of t minus the lowest one.  Table-backed transformers are scanned,
    which is capped at 10 states.
    """
    if tr.rel is None:
        n = tr.space.size
        if n > PSC_MAX_STATES:
            raise SpaceTooLarge(f"psc check limited to {PSC_MAX_STATES} states")
        return PscResult(*_kernels.psc_scan_table(tr.table, n))
    for s, row in enumerate(tr.rel.rows):
        if row & (row - 1):
            return PscResult(False, 1 << s, row & (row - 1))
    return PscResult(True, -1, -1)
