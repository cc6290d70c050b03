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
structurally; atoms map elementwise.  Each node is compiled once per
evaluator into one entry, keyed by node identity: the node itself (so no
AST node is hashed, and its id is not reused while the entry lives), its
rule with the rule's arguments (an atom's image function and
partial-function flag, a guard's mask and its complement, the children)
and its memo.  Evaluation looks the entry up and calls its rule, with no
dispatch on the node's type; a down-set query whose antichain is one mask
is answered by one memo value, with no union.

Loops are least fixpoints of the guarded-join functional.  The equation
of atomic query m depends on the antichain of the body's value at
↓{m & guard}; its value is their union times ↓{m & ~guard}.  A loop's
misses are solved together by a demand-driven worklist from the bottom
{{}}; the optional cross-check and ``loop_iterates`` use synchronized
(Kleene) iteration of the same equations.

Unions and products of values are ``family.family_union`` and
``family.family_product``.  Down-sets are their fast path: when every
value in sight is subset closed, they work on antichains.  An atom whose
relation is not a partial function lacks the subset-image property (PSC)
and breaks closure; evaluation then falls back to explicit members,
within the family module's cap and pair bound (``QueryBlowup`` past
them).

``happly`` and ``loop_iterates`` hand the anomalous ``naive`` and
``otimes`` variants to the definitional evaluator in ``reference``.
"""

from collections import deque
from dataclasses import dataclass, field
from functools import reduce

from . import reference
from .errors import IterationBudgetExceeded, NonSubsetClosedQuery
from .family import (DOWNSET, FamilySet, family_product, family_union,
                     powerset_family)
from .lang import Atom, Choice, If, Seq, Skip, While, elaborate_atom, eval_bool
from .reference import LoopVariant
from .transformer import Transformer

_BOTTOM = FamilySet.downset((0,))


def _same(fam):
    return fam


def _map_family(fn, preserves_closure, fam):
    """Elementwise image { fn(p) | p in fam } of a nonempty family."""
    if fam.kind == DOWNSET and preserves_closure:
        return FamilySet.downset(map(fn, fam.sets))
    return FamilySet.explicit(map(fn, fam.members()))


@dataclass
class HyperStats:
    demand_loops_solved: int = 0
    queries_solved: int = 0
    value_updates: int = 0
    cross_checks: int = 0
    cross_mismatches: list = field(default_factory=list)


class HEval:
    """One paper-variant evaluation context: the space, and one compiled
    entry per statement node with the node's rule and memo."""

    def __init__(self, space, variant=LoopVariant.PAPER, *,
                 cross_check=False):
        if variant is not LoopVariant.PAPER:
            raise ValueError(f"HEval computes the paper variant only, not "
                             f"{variant!r}; see hypersem.reference")
        self.space = space
        self.cross_check = cross_check
        self.stats = HyperStats()
        self._entries = {}

    def _compile(self, node):
        """The node's entry (node, rule, args, memo), built once and keyed
        by identity; holding the node keeps its id from being reused while
        we live.  The rule is called as rule(*args, query).  Atoms and skip
        map a whole query and keep no memo; a loop has no rule, and its
        args are the guard's mask, its complement and the body."""
        if isinstance(node, Atom):
            rel = elaborate_atom(node.atom, self.space)
            entry = (node, _map_family,
                     (Transformer.image(rel).apply,
                      rel.is_partial_function()), None)
        elif isinstance(node, Skip):
            entry = (node, _same, (), None)
        elif isinstance(node, Seq):
            entry = (node, self._seq, (node.parts,), {})
        elif isinstance(node, Choice):
            entry = (node, self.inner_join, node.parts, {})
        elif isinstance(node, (If, While)):
            bmask = eval_bool(node.cond, self.space)
            masks = (bmask, self.space.full_mask & ~bmask)
            if isinstance(node, If):
                entry = (node, self._split_join,
                         masks + (node.then, node.orelse), {})
            else:
                entry = (node, None, masks + (node.body,), {})
        else:
            raise TypeError(f"not a statement: {node!r}")
        self._entries[id(node)] = entry
        return entry

    # ---- evaluation

    def eval(self, node, fam):
        if not fam.sets:
            return FamilySet.empty()
        _, rule, args, memo = (self._entries.get(id(node))
                               or self._compile(node))
        # atoms and skip map the whole query; loops answer every query from
        # the memo; the other constructs answer down-set queries from it,
        # being additive over maximal members, and explicit ones
        # structurally.  Calling the rule from here keeps one stack frame
        # per nesting level.
        if memo is None or (rule is not None and fam.kind != DOWNSET):
            return rule(*args, fam)
        basis = fam.antichain()
        vals = []
        missing = []
        for m in basis:
            val = memo.get(m)
            if val is None:
                if rule is None:
                    missing.append(m)
                    continue
                val = memo[m] = rule(*args, powerset_family(m))
            vals.append(val)
        if missing:
            self._solve_demand(node, args, memo, missing)
            vals = [memo[m] for m in basis]
        return vals[0] if len(vals) == 1 else family_union(*vals)

    def _seq(self, parts, fam):
        for part in parts:
            fam = self.eval(part, fam)
        return fam

    def _join(self, branches, queries):
        """Union over the query tuples, one query per branch, of the
        products of the branch values."""
        return family_union(
            *[reduce(family_product, map(self.eval, branches, qs))
              for qs in queries])

    def inner_join(self, *args):
        """Powerset-query inner join of the branch semantics; args are the
        branches, then the query.  It equals the nested binary joins
        because a join reads only its query's antichain, and ↓p's is {p}."""
        *branches, fam = args
        return self._join(branches, ((powerset_family(p),) * len(branches)
                                     for p in fam.antichain()))

    def _split_join(self, bmask, nbmask, c, d, fam):
        """Guarded inner join: split each maximal member by the guard's mask
        bmask and its complement nbmask, then one result from each branch."""
        return self._join((c, d), ((powerset_family(p & bmask),
                                    powerset_family(p & nbmask))
                                   for p in fam.antichain()))

    # ---- loop machinery: one unknown per atomic query

    def _discover(self, loop, roots, known):
        """Equations of the atomic queries reachable from roots, not
        entering known; loop is the args of a loop's entry.

        Each equation is (deps, wrap): the antichain of the body's value
        at the subsets of m & guard, and the subsets of m & ~guard.  Roots
        are always included.
        """
        bmask, nbmask, body = loop
        system = {}
        pending = list(roots)
        while pending:
            m = pending.pop()
            if m in system:
                continue
            deps = self.eval(body, powerset_family(m & bmask)).antichain()
            system[m] = (deps, powerset_family(m & nbmask))
            pending.extend(d for d in deps if d not in known)
        return system

    def _rhs(self, equation, value_of):
        deps, wrap = equation
        return family_product(family_union(*map(value_of, deps)), wrap)

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

    def _solve_demand(self, node, loop, memo, roots):
        """Worklist iteration to the least solution; memoizes every atom."""
        system = self._discover(loop, roots, memo)
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
            reference.ref_eval(node, fam.members(), space, variant))
    return HEval(space).eval(node, fam)


def loop_iterates(cond, body, fam, steps, space, variant=LoopVariant.PAPER):
    """Values of the i-th loop-functional iterate at fam, i = 0..steps."""
    if variant is not LoopVariant.PAPER:
        q = fam.members()
        iters = reference.ref_iterates(While(cond, body), q, space, variant)
        return [FamilySet.explicit(vals[q])
                for _, vals in zip(range(steps + 1), iters)]
    ev = HEval(space)
    basis = fam.antichain()
    _, _, loop, _ = ev._compile(While(cond, body))
    system = ev._discover(loop, basis, {})
    return [family_union(*(cur[m] for m in basis))
            for _, cur in zip(range(steps + 1), ev._kleene(system, {}))]
