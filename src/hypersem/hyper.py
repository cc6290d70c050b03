"""Hyper-level semantics of the paper: monotone maps on families of state
sets.

Programs denote maps over the double powerset.  Atoms and guards lift
elementwise; a `[]` chain uses the powerset-query inner join of all its
branches at once (at each maximal member p, the product of every branch's
value at ↓p); conditionals use the guarded inner join, which splits each
member set by the guard and unions one result from each branch.

Every construct reads only the maximal members of its query, so values
are memoized per node at *atomic queries*: a memo key is a mask m and
stands for ↓{m}, the family of all subsets of m, and a node's value at a
family is the union of its values at the down-sets of the family's
antichain.  Loops answer every query from the memo.  Sequences, choices
and conditionals answer down-set queries from it and explicit ones
structurally; atoms map elementwise.  The memo and the atom and guard
caches are keyed by node identity and hold their node, so no AST node is
hashed; each atom's transformer and partial-function flag, and each
guard's mask, are computed once.

Loops are least fixpoints of the guarded-join functional.  The equation
of atomic query m depends on the antichain of the body's value at
↓{m & guard}; its value is their union times ↓{m & ~guard}.  A loop's
misses are solved together by a demand-driven worklist from the bottom
{{}}; the optional cross-check and ``loop_iterates`` use synchronized
(Kleene) iteration of the same equations.

Down-sets are the fast path: when every value in sight is subset closed,
products and unions happen on antichains.  An atom whose relation is not
a partial function lacks the subset-image property (PSC) and breaks
closure; evaluation then falls back to explicit expansion within the cap.

``happly`` and ``loop_iterates`` hand the anomalous ``naive`` and
``otimes`` variants to the definitional evaluator in ``reference``.
"""

from collections import deque
from dataclasses import dataclass, field
from functools import reduce

from . import reference
from .errors import (ExpansionTooLarge, IterationBudgetExceeded,
                     NonSubsetClosedQuery, QueryBlowup)
from .family import (DEFAULT_EXPANSION_CAP, DOWNSET, FamilySet,
                     bounded_product, powerset_family)
from .lang import Atom, Choice, If, Seq, Skip, While, elaborate_atom, eval_bool
from .reference import LoopVariant
from .transformer import Transformer

_BOTTOM = FamilySet.downset((0,))


def _members(fam, cap=DEFAULT_EXPANSION_CAP):
    try:
        return fam.members(cap)
    except ExpansionTooLarge as exc:
        raise QueryBlowup(str(exc)) from exc


@dataclass
class HyperStats:
    demand_loops_solved: int = 0
    queries_solved: int = 0
    value_updates: int = 0
    cross_checks: int = 0
    cross_mismatches: list = field(default_factory=list)


class HEval:
    """One paper-variant evaluation context: space, atom/guard caches, and
    the per-node memo of values at atomic queries."""

    def __init__(self, space, variant=LoopVariant.PAPER, *,
                 expansion_cap=DEFAULT_EXPANSION_CAP, cross_check=False):
        if variant is not LoopVariant.PAPER:
            raise ValueError(f"HEval computes the paper variant only, not "
                             f"{variant!r}; see hypersem.reference")
        self.space = space
        self.cap = expansion_cap
        self.cross_check = cross_check
        self.stats = HyperStats()
        self._atom_tr = {}
        self._guard_mask = {}
        self._memo = {}

    # ---- caches, keyed by node identity; each entry holds its node, so
    # its id is not reused while we live

    def _atom(self, node):
        """An Atom node's transformer and whether it is a partial function."""
        entry = self._atom_tr.get(id(node))
        if entry is None:
            rel = elaborate_atom(node.atom, self.space)
            entry = self._atom_tr[id(node)] = (
                node, Transformer.image(rel), rel.is_partial_function())
        return entry[1], entry[2]

    def _guard(self, cond):
        entry = self._guard_mask.get(id(cond))
        if entry is None:
            entry = self._guard_mask[id(cond)] = (
                cond, eval_bool(cond, self.space))
        return entry[1]

    # ---- family helpers

    def _map_family(self, fam, fn, preserves_closure):
        """Elementwise image { fn(p) | p in fam }."""
        if fam.is_empty:
            return FamilySet.empty()
        if fam.kind == DOWNSET and preserves_closure:
            return FamilySet.downset(fn(m) for m in fam.sets)
        return FamilySet.explicit(fn(p) for p in _members(fam, self.cap))

    def _prod(self, a, b):
        """{ r | s : r in a, s in b } on families."""
        if a.is_empty or b.is_empty:
            return FamilySet.empty()
        if a.kind == DOWNSET and b.kind == DOWNSET:
            return FamilySet.downset(x | y for x in a.sets for y in b.sets)
        return FamilySet.explicit(
            bounded_product(_members(a, self.cap), _members(b, self.cap)))

    def _union_all(self, parts):
        """Union of families in one step: one antichain reduction when
        every part is a down-set, else one member union (expanded within
        the cap)."""
        parts = [part for part in parts if not part.is_empty]
        if not parts:
            return FamilySet.empty()
        if len(parts) == 1:
            return parts[0]
        if all(part.kind == DOWNSET for part in parts):
            return FamilySet.downset({m for part in parts for m in part.sets})
        return FamilySet.explicit(
            m for part in parts for m in _members(part, self.cap))

    # ---- evaluation

    def _table(self, node):
        """The memo of one node: {mask m: value at the subsets of m}.  Keyed
        by identity; the entry holds the node, so its id is not reused
        while we live."""
        entry = self._memo.get(id(node))
        if entry is None:
            entry = self._memo[id(node)] = (node, {})
        return entry[1]

    def eval(self, node, fam):
        if fam.is_empty:
            return FamilySet.empty()
        if isinstance(node, Skip):
            return fam
        if isinstance(node, Atom):
            tr, partial = self._atom(node)
            return self._map_family(fam, tr.apply, partial)
        # loops answer every query from the memo; the other constructs
        # answer down-set queries from it, being additive over maximal
        # members, and explicit queries structurally
        if isinstance(node, While):
            rule = None
        else:
            rule, args = self._rule(node)
            if fam.kind != DOWNSET:
                return rule(*args, fam)
        memo = self._table(node)
        basis = fam.antichain()
        missing = [m for m in basis if m not in memo]
        if rule is None:
            if missing:
                self._solve_demand(node, memo, missing)
        else:
            for m in missing:
                memo[m] = rule(*args, powerset_family(m))
        return self._union_all([memo[m] for m in basis])

    def _rule(self, node):
        """A construct's structural rule as (function, leading arguments);
        the query is the last argument.  Handing it back instead of calling
        it keeps one stack frame per nesting level."""
        if isinstance(node, Seq):
            return self._seq, (node.parts,)
        if isinstance(node, Choice):
            return self.inner_join, node.parts
        if isinstance(node, If):
            return self.guarded_join, (node.cond, node.then, node.orelse)
        raise TypeError(f"not a statement: {node!r}")

    def _seq(self, parts, fam):
        for part in parts:
            fam = self.eval(part, fam)
        return fam

    def _join(self, branches, queries):
        """Union over the query tuples, one query per branch, of the
        products of the branch values."""
        return self._union_all(
            [reduce(self._prod, map(self.eval, branches, qs)) for qs in queries])

    def inner_join(self, *args):
        """Powerset-query inner join of the branch semantics; args are the
        branches, then the query.  It equals the nested binary joins
        because a join reads only its query's antichain, and ↓p's is {p}."""
        *branches, fam = args
        return self._join(branches, ((powerset_family(p),) * len(branches)
                                     for p in fam.antichain()))

    def guarded_join(self, cond, c, d, fam):
        """Split each member by the guard, then one result from each branch."""
        bmask = self._guard(cond)
        nbmask = self.space.full_mask & ~bmask
        return self._join((c, d), ((powerset_family(p & bmask),
                                    powerset_family(p & nbmask))
                                   for p in fam.antichain()))

    # ---- loop machinery: one unknown per atomic query

    def _discover(self, node, roots, known):
        """Equations of the atomic queries reachable from roots, not
        entering known.

        Each equation is (deps, wrap): the antichain of the body's value
        at the subsets of m & guard, and the subsets of m & ~guard.  Roots
        are always included.
        """
        bmask = self._guard(node.cond)
        nbmask = self.space.full_mask & ~bmask
        system = {}
        pending = list(roots)
        while pending:
            m = pending.pop()
            if m in system:
                continue
            deps = self.eval(node.body, powerset_family(m & bmask)).antichain()
            system[m] = (deps, powerset_family(m & nbmask))
            pending.extend(d for d in deps if d not in known)
        return system

    def _rhs(self, equation, value_of):
        deps, wrap = equation
        return self._prod(self._union_all(value_of(d) for d in deps), wrap)

    def _budget(self, nqueries):
        return (1 << min(self.space.size, 20)) * max(nqueries, 1) + 8

    def _kleene(self, system, memo):
        """Synchronized iterates of system from bottom; other atoms read memo."""
        cur = dict.fromkeys(system, _BOTTOM)
        while True:
            yield cur
            prev = cur
            cur = {u: self._rhs(eq, lambda d: prev[d] if d in prev else memo[d])
                   for u, eq in system.items()}

    def _kleene_limit(self, system, memo):
        budget = self._budget(len(system))
        prev = None
        for i, cur in enumerate(self._kleene(system, memo)):
            if prev is not None and all(v == prev[u] for u, v in cur.items()):
                return cur
            if i == budget:
                raise IterationBudgetExceeded(
                    f"loop iteration did not stabilize within {budget} steps")
            prev = cur

    def _solve_demand(self, node, memo, roots):
        """Worklist iteration to the least solution; memoizes every atom."""
        system = self._discover(node, roots, memo)
        vals = dict.fromkeys(system, _BOTTOM)

        def value_of(d):
            return vals[d] if d in vals else memo[d]

        rdeps = {u: set() for u in system}
        for u, (deps, _) in system.items():
            for d in deps:
                if d in rdeps:
                    rdeps[d].add(u)

        budget = self._budget(len(system))
        updates = 0
        work = deque(system)
        queued = set(system)
        while work:
            u = work.popleft()
            queued.discard(u)
            new = self._rhs(system[u], value_of)
            if new != vals[u]:
                vals[u] = new
                updates += 1
                if updates > budget:
                    raise IterationBudgetExceeded(
                        f"loop solve exceeded {budget} updates")
                for d in rdeps[u]:
                    if d not in queued:
                        queued.add(d)
                        work.append(d)

        self.stats.demand_loops_solved += 1
        self.stats.queries_solved += len(system)
        self.stats.value_updates += updates
        if self.cross_check:
            self.stats.cross_checks += 1
            limit = self._kleene_limit(system, memo)
            if not all(v == limit[u] for u, v in vals.items()):
                self.stats.cross_mismatches.append((node, system, vals, limit))
        memo.update(vals)


# ---------------------------------------------------------------- entry points

def strict_gate(fam, variant, strict):
    """Refuse an empty or non subset closed query under the paper variant,
    whose loops read maximal members only; unless strict, return what is
    wrong with it instead (None for a query the variant accepts)."""
    if variant is not LoopVariant.PAPER:
        return None
    if not fam.is_empty and fam.is_subset_closed():
        return None
    msg = ("query is empty" if fam.is_empty
           else "query is not subset closed")
    if strict:
        raise NonSubsetClosedQuery(msg)
    return msg


def happly(node, fam, space, variant=LoopVariant.PAPER, *, strict=True):
    """Hyper-level denotation of a statement applied to a query family."""
    strict_gate(fam, variant, strict)
    if variant is not LoopVariant.PAPER:
        return FamilySet.explicit(
            reference.ref_eval(node, _members(fam), space, variant))
    return HEval(space).eval(node, fam)


def loop_iterates(cond, body, fam, steps, space, variant=LoopVariant.PAPER):
    """Values of the i-th loop-functional iterate at fam, i = 0..steps."""
    if variant is not LoopVariant.PAPER:
        q = _members(fam)
        iters = reference.ref_iterates(While(cond, body), q, space, variant)
        return [FamilySet.explicit(vals[q])
                for _, vals in zip(range(steps + 1), iters)]
    ev = HEval(space)
    basis = fam.antichain()
    system = ev._discover(While(cond, body), basis, {})
    return [ev._union_all(cur[m] for m in basis)
            for _, cur in zip(range(steps + 1), ev._kleene(system, {}))]
