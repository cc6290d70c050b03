"""Finite state spaces with mixed-radix state encoding.

A state space declares variables with inclusive integer ranges.  A state
is identified with an integer in ``[0, size)``: the mixed-radix encoding
of its variable values, declaration order most significant.  A set of
states is an int bitmask with bit ``s`` set for state ``s``; the cap on
the space size keeps every such mask inside one machine word.

The space alone does the mixed-radix arithmetic: expressions read whole
``column``s, and ``assign_rows`` builds every assignment atom's rows.
"""

from .errors import (BadDeclaration, MissingVariable, UnknownVariable,
                     ValueOutOfRange)

SIZE_CAP = 64


class StateSpace:
    """Immutable list of (name, lo, hi) variable declarations."""

    __slots__ = ("vars", "names", "size", "_weights", "_index")

    def __init__(self, variables):
        vars_ = tuple((str(n), int(lo), int(hi)) for n, lo, hi in variables)
        names = tuple(n for n, _, _ in vars_)
        if len(set(names)) != len(names):
            raise BadDeclaration(f"duplicate variable names in {names}")
        for n, lo, hi in vars_:
            if lo > hi:
                raise BadDeclaration(f"empty range for {n}: {lo}..{hi}")
        size = 1
        for _, lo, hi in vars_:
            size *= hi - lo + 1
        if size > SIZE_CAP:
            raise BadDeclaration(f"state space has {size} states, cap is {SIZE_CAP}")
        # weight of a variable = product of the range sizes to its right
        weights = []
        acc = 1
        for _, lo, hi in reversed(vars_):
            weights.append(acc)
            acc *= hi - lo + 1
        self.vars = vars_
        self.names = names
        self.size = size
        self._weights = tuple(reversed(weights))
        self._index = {n: i for i, n in enumerate(names)}

    @property
    def full_mask(self):
        """Bitmask of all states."""
        return (1 << self.size) - 1

    def states(self):
        return range(self.size)

    def var_range(self, name):
        if name not in self._index:
            raise UnknownVariable(name)
        _, lo, hi = self.vars[self._index[name]]
        return lo, hi

    def column(self, name):
        """The value of a variable at every state, as a tuple by state id."""
        lo, hi = self.var_range(name)
        w = self._weights[self._index[name]]
        n = hi - lo + 1
        return tuple(lo + s // w % n for s in range(self.size))

    def assign_rows(self, name, lows, highs):
        """Relation rows that move each state s to every in-range value of a
        variable from lows[s] to highs[s], keeping the other variables."""
        lo, hi = self.var_range(name)
        w = self._weights[self._index[name]]
        rows = []
        for s, v, a, b in zip(self.states(), self.column(name), lows, highs):
            a = max(a, lo)
            k = min(b, hi) - a + 1
            # k values from a: k bits w apart, the first at s + (a - v) * w
            rows.append(((1 << k * w) - 1) // ((1 << w) - 1) << s + (a - v) * w
                        if k > 0 else 0)
        return rows

    def encode(self, assignment):
        """Mixed-radix id of a complete in-range assignment."""
        for name in assignment:
            if name not in self._index:
                raise UnknownVariable(name)
        sid = 0
        for (name, lo, hi), w in zip(self.vars, self._weights):
            if name not in assignment:
                raise MissingVariable(name)
            v = assignment[name]
            if not lo <= v <= hi:
                raise ValueOutOfRange(f"{name}={v} outside {lo}..{hi}")
            sid += (v - lo) * w
        return sid

    def decode(self, sid):
        """Inverse of encode."""
        if not 0 <= sid < self.size:
            raise ValueOutOfRange(f"state id {sid} outside [0, {self.size})")
        out = {}
        rem = sid
        for (name, lo, _), w in zip(self.vars, self._weights):
            q, rem = divmod(rem, w)
            out[name] = lo + q
        return out

    def __eq__(self, other):
        return isinstance(other, StateSpace) and self.vars == other.vars

    def __hash__(self):
        return hash(self.vars)

    def __repr__(self):
        decls = ", ".join(f"{n}:{lo}..{hi}" for n, lo, hi in self.vars)
        return f"StateSpace({decls})"

