"""Hyper-level semantics: monotone maps on families of state sets.

Programs denote maps over the double powerset.  Atoms and guards lift
elementwise; choice uses the powerset-query inner join; conditionals use
the guarded inner join, which splits each member set by the guard and
unions one result from each branch.  Loops are least fixpoints of the
guarded-join functional, computed by a demand-driven engine:

* discover the queries the loop can reach (from a query, each chosen
  member p induces the dependency query "body semantics at the powerset
  of the guard-restricted p");
* initialise every unknown to the bottom family and re-evaluate the
  equations over current values until nothing changes.

Two deliberately anomalous loop functionals are kept behind
``LoopVariant``: the naive outer-join guess and the singleton-query
(otimes) guess.  They reproduce the known discrepancies with the
underlying transformer semantics; the otimes iteration need not be
increasing, so it runs synchronized with a cycle budget instead of a
worklist.

Down-sets are the fast path throughout: when every value in sight is
subset closed, all products and unions happen on maximal antichains.
Evaluation falls back to explicit (capped) expansion when a non-PSC atom
breaks closure; an atom's direct image has the subset-image property
(PSC) exactly when its relation is a partial function.  Maximal-member
shortcuts are sound for the paper and naive variants because every
construct is monotone in the query; the otimes variant enumerates all
members.
"""

import enum
import warnings
from collections import deque
from dataclasses import dataclass, field

from .errors import (ExpansionTooLarge, IterationBudgetExceeded,
                     NonSubsetClosedQuery, QueryBlowup)
from .family import (DEFAULT_EXPANSION_CAP, DOWNSET, FamilySet, family_le,
                     family_union, powerset_family)
from .lang import Atom, Choice, If, Seq, Skip, While, elaborate_atom, eval_bool
from .transformer import Transformer


class LoopVariant(enum.Enum):
    PAPER = "paper"
    NAIVE = "naive"
    OTIMES = "otimes"


def hyper_bottom(fam):
    """Bottom of the hyper level: empty to empty, else the family {{}}."""
    if fam.is_empty:
        return FamilySet.empty()
    return FamilySet.downset((0,))


@dataclass
class HyperStats:
    demand_loops_solved: int = 0
    queries_solved: int = 0
    value_updates: int = 0
    cross_checks: int = 0
    cross_mismatches: list = field(default_factory=list)


class HEval:
    """One evaluation context: space, loop variant, atom/guard caches, and
    the per-loop-site memo of solved queries."""

    def __init__(self, space, variant=LoopVariant.PAPER, *,
                 expansion_cap=DEFAULT_EXPANSION_CAP, cross_check=False,
                 iteration_budget=None):
        self.space = space
        self.variant = variant
        self.cap = expansion_cap
        self.cross_check = cross_check
        self.iteration_budget = iteration_budget
        self.stats = HyperStats()
        self._atom_tr = {}
        self._guard_mask = {}
        self._loop_memo = {}

    # ---- caches

    def _atom(self, atomdef):
        tr = self._atom_tr.get(atomdef)
        if tr is None:
            tr = Transformer.image(elaborate_atom(atomdef, self.space))
            self._atom_tr[atomdef] = tr
        return tr

    def _guard(self, cond):
        m = self._guard_mask.get(cond)
        if m is None:
            m = eval_bool(cond, self.space)
            self._guard_mask[cond] = m
        return m

    # ---- family helpers

    def _members(self, fam):
        try:
            return fam.members(self.cap)
        except ExpansionTooLarge as exc:
            raise QueryBlowup(str(exc)) from exc

    def _chosen(self, fam):
        """Member sets a family operator must range over."""
        if self.variant is LoopVariant.OTIMES:
            return self._members(fam)
        return fam.antichain()

    def _map_family(self, fam, fn, preserves_closure):
        """Elementwise image { fn(p) | p in fam }."""
        if fam.is_empty:
            return FamilySet.empty()
        if fam.kind == DOWNSET and preserves_closure:
            return FamilySet.downset(fn(m) for m in fam.sets)
        out = FamilySet.explicit(fn(p) for p in self._members(fam))
        return out.normalized()

    def _filter_family(self, fam, mask):
        return self._map_family(fam, lambda m: m & mask, True)

    def _prod(self, a, b):
        """{ r | s : r in a, s in b } on families."""
        if a.is_empty or b.is_empty:
            return FamilySet.empty()
        a = a.normalized()
        b = b.normalized()
        if a.kind == DOWNSET and b.kind == DOWNSET:
            return FamilySet.downset(x | y for x in a.sets for y in b.sets)
        out = FamilySet.explicit(
            x | y for x in self._members(a) for y in self._members(b))
        return out.normalized()

    @staticmethod
    def _union_all(parts):
        out = FamilySet.empty()
        for part in parts:
            out = family_union(out, part)
        return out.normalized()

    # ---- structural evaluation

    def eval(self, node, fam):
        if fam.is_empty:
            return FamilySet.empty()
        if isinstance(node, Skip):
            return fam
        if isinstance(node, Atom):
            tr = self._atom(node.atom)
            return self._map_family(
                fam, tr.apply, tr.rel.is_partial_function())
        if isinstance(node, Seq):
            return self.eval(node.rest, self.eval(node.first, fam))
        if isinstance(node, Choice):
            return self.inner_join(node.left, node.right, fam)
        if isinstance(node, If):
            return self.guarded_join(node.cond, node.then, node.orelse, fam)
        if isinstance(node, While):
            return self._eval_loop(node, fam)
        raise TypeError(f"not a statement: {node!r}")

    def inner_join(self, c, d, fam):
        """Powerset-query inner join of the two branch semantics."""
        parts = []
        for p in self._chosen(fam):
            a = self.eval(c, powerset_family(p))
            b = self.eval(d, powerset_family(p))
            parts.append(self._prod(a, b))
        return self._union_all(parts)

    def singleton_join(self, c, d, fam):
        """Singleton-query join (the otimes guess); ranges over all members."""
        parts = []
        for q in self._members(fam):
            a = self.eval(c, FamilySet.explicit((q,)))
            b = self.eval(d, FamilySet.explicit((q,)))
            parts.append(self._prod(a, b))
        return self._union_all(parts)

    def guarded_join(self, cond, c, d, fam):
        """Split each member by the guard, then one result from each branch."""
        bmask = self._guard(cond)
        nbmask = self.space.full_mask & ~bmask
        parts = []
        for p in self._chosen(fam):
            a = self.eval(c, powerset_family(p & bmask))
            b = self.eval(d, powerset_family(p & nbmask))
            parts.append(self._prod(a, b))
        return self._union_all(parts)

    # ---- loop machinery

    def _loop_system(self, node, fam):
        """Equation entries for one query of the loop functional.

        Returns (entries, extra): entries are (dep_family, combine_mask)
        pairs whose term is prod(value(dep), wrap(combine_mask)); extra
        is a constant family unioned in (naive variant only).
        """
        bmask = self._guard(node.cond)
        nbmask = self.space.full_mask & ~bmask
        if self.variant is LoopVariant.NAIVE:
            y = self.eval(node.body, self._filter_family(fam, bmask))
            return [(y, None)], self._filter_family(fam, nbmask)
        if self.variant is LoopVariant.OTIMES:
            entries = []
            for q in self._members(fam):
                y = self.eval(node.body, FamilySet.explicit((q & bmask,)))
                entries.append((y, ("single", q & nbmask)))
            return entries, FamilySet.empty()
        entries = []
        for p in self._chosen(fam):
            y = self.eval(node.body, powerset_family(p & bmask))
            entries.append((y, ("power", p & nbmask)))
        return entries, FamilySet.empty()

    def _combine(self, value, wrap):
        if wrap is None:
            return value
        kind, mask = wrap
        if kind == "power":
            return self._prod(value, powerset_family(mask))
        return self._prod(value, FamilySet.explicit((mask,)))

    def _eval_loop(self, node, fam):
        memo_key = (node, fam.key())
        hit = self._loop_memo.get(memo_key)
        if hit is not None:
            return hit
        if self.variant is LoopVariant.PAPER:
            return self._solve_demand(node, fam)
        return self._solve_synchronized(node, fam)

    def _discover(self, node, fam, use_finals):
        """Dependency-closed set of loop queries reachable from fam."""
        queries = {}
        systems = {}
        pending = [fam]
        while pending:
            q = pending.pop()
            k = q.key()
            if k in queries:
                continue
            if use_finals and (node, k) in self._loop_memo:
                continue
            queries[k] = q
            entries, extra = self._loop_system(node, q)
            systems[k] = (entries, extra)
            for dep, _ in entries:
                pending.append(dep)
        return queries, systems

    def _equation(self, systems, value_of, k):
        entries, extra = systems[k]
        parts = [self._combine(value_of(dep.key()), wrap)
                 for dep, wrap in entries]
        parts.append(extra)
        return self._union_all(parts)

    def _budget(self, nqueries):
        if self.iteration_budget is not None:
            return self.iteration_budget
        return (1 << min(self.space.size, 20)) * max(nqueries, 1) + 8

    def _solve_demand(self, node, fam):
        """Chaotic iteration to the least solution; memoizes every query."""
        queries, systems = self._discover(node, fam, use_finals=True)
        vals = {k: hyper_bottom(q) for k, q in queries.items()}

        def value_of(k):
            v = vals.get(k)
            if v is not None:
                return v
            return self._loop_memo[(node, k)]

        rdeps = {k: set() for k in queries}
        for k, (entries, _) in systems.items():
            for dep, _ in entries:
                dk = dep.key()
                if dk in rdeps:
                    rdeps[dk].add(k)

        budget = self._budget(len(queries))
        updates = 0
        work = deque(queries)
        queued = set(queries)
        while work:
            k = work.popleft()
            queued.discard(k)
            new = self._equation(systems, value_of, k)
            if new != vals[k]:
                vals[k] = new
                updates += 1
                if updates > budget:
                    raise IterationBudgetExceeded(
                        f"loop solve exceeded {budget} updates")
                for d in rdeps[k]:
                    if d not in queued:
                        queued.add(d)
                        work.append(d)

        self.stats.demand_loops_solved += 1
        self.stats.queries_solved += len(queries)
        self.stats.value_updates += updates
        if self.cross_check and queries:
            self._verify_against_kleene(node, queries, systems, vals)
        for k, v in vals.items():
            self._loop_memo[(node, k)] = v
        return value_of(fam.key())

    def _verify_against_kleene(self, node, queries, systems, vals):
        """Jacobi iteration from bottom must stabilize at the same values."""
        limit = self._jacobi(node, queries, systems)
        self.stats.cross_checks += 1
        if limit != vals:
            self.stats.cross_mismatches.append((node, queries, vals, limit))

    def _jacobi(self, node, queries, systems):
        cur = {k: hyper_bottom(q) for k, q in queries.items()}
        budget = self._budget(len(queries))

        def value_of(k):
            v = cur.get(k)
            if v is not None:
                return v
            return self._loop_memo[(node, k)]

        for _ in range(budget):
            nxt = {k: self._equation(systems, value_of, k) for k in queries}
            if nxt == cur:
                return cur
            cur = nxt
        raise IterationBudgetExceeded(f"kleene iteration exceeded {budget} steps")

    def _solve_synchronized(self, node, fam):
        """Naive/otimes loops: synchronized iteration from bottom.

        The naive chain is increasing and converges; the otimes chain may
        cycle, in which case the budget fires.
        """
        use_finals = self.variant is not LoopVariant.OTIMES
        queries, systems = self._discover(node, fam, use_finals=use_finals)
        if not queries:
            return self._loop_memo[(node, fam.key())]
        cur = {k: hyper_bottom(q) for k, q in queries.items()}
        budget = self._budget(len(queries))

        def value_of(k):
            v = cur.get(k)
            if v is not None:
                return v
            return self._loop_memo[(node, k)]

        for _ in range(budget):
            nxt = {k: self._equation(systems, value_of, k) for k in queries}
            if nxt == cur:
                break
            cur = nxt
        else:
            raise IterationBudgetExceeded(
                f"loop iteration did not stabilize within {budget} steps")
        if use_finals:
            for k, v in cur.items():
                self._loop_memo[(node, k)] = v
        else:
            self._loop_memo[(node, fam.key())] = cur[fam.key()]
        return cur[fam.key()]


# ---------------------------------------------------------------- entry points

def _strict_gate(fam, variant, strict):
    if variant is not LoopVariant.PAPER:
        return
    ok = not fam.is_empty and fam.is_subset_closed()
    if ok:
        return
    msg = ("query is empty" if fam.is_empty
           else "query is not subset closed")
    if strict:
        raise NonSubsetClosedQuery(msg)
    warnings.warn(f"{msg}; evaluating anyway", stacklevel=3)


def happly(node, fam, space, variant=LoopVariant.PAPER, *, strict=True,
           expansion_cap=DEFAULT_EXPANSION_CAP, cross_check=False, ev=None):
    """Hyper-level denotation of a statement applied to a query family."""
    if ev is None:
        ev = HEval(space, variant, expansion_cap=expansion_cap,
                   cross_check=cross_check)
    _strict_gate(fam, ev.variant, strict)
    return ev.eval(node, fam)


def inner_join_apply(c, d, fam, ev):
    return ev.inner_join(c, d, fam)


def otimes_apply(c, d, fam, ev):
    return ev.singleton_join(c, d, fam)


def guarded_join_apply(cond, c, d, fam, ev):
    return ev.guarded_join(cond, c, d, fam)


def lfp_demand(cond, body, fam, ev):
    """Demand-driven least-fixpoint value of the loop at one query."""
    if fam.is_empty:
        return FamilySet.empty()
    node = While(cond, body)
    if ev.variant is not LoopVariant.PAPER:
        raise ValueError("demand solver is the paper-variant loop semantics")
    return ev._solve_demand(node, fam)


def loop_iterates(cond, body, fam, steps, space, variant=LoopVariant.PAPER,
                  *, ev=None):
    """Values of the i-th loop-functional iterate at fam, i = 0..steps."""
    if ev is None:
        ev = HEval(space, variant)
    node = While(cond, body)
    cache = {}

    def value(i, q):
        if q.is_empty:
            return FamilySet.empty()
        key = (i, q.key())
        hit = cache.get(key)
        if hit is not None:
            return hit
        if i == 0:
            out = hyper_bottom(q)
        else:
            entries, extra = ev._loop_system(node, q)
            parts = [ev._combine(value(i - 1, dep), wrap)
                     for dep, wrap in entries]
            parts.append(extra)
            out = ev._union_all(parts)
        cache[key] = out
        return out

    return [value(i, fam) for i in range(steps + 1)]


def hrefines(c, d, queries, space, variant=LoopVariant.PAPER):
    """Pointwise containment of hyper denotations on the given queries."""
    ev_c = HEval(space, variant)
    ev_d = HEval(space, variant)
    for q in queries:
        if not q.is_subset_closed():
            raise NonSubsetClosedQuery("refinement queries must be subset closed")
        if not family_le(ev_c.eval(c, q), ev_d.eval(d, q)):
            return False
    return True
