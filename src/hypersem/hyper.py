"""Hyper-level semantics of the paper: monotone maps on families of state
sets.

Programs denote maps over the double powerset.  Atoms and guards lift
elementwise.  `[]` and `if` share the inner join, over the (branch,
mask) pairs of ``lang.join_branches``: at each maximal member p of the
query, the product of every branch's value at ↓(p & mask), united over
p.  A `[]` branch's mask is full; an `if` splits p by its guard, as
`(assume b; c) [] (assume !b; d)` does.  An n-ary `[]` equals the nested
binary joins because a join reads only its query's antichain, and ↓p's
is {p}; ``reference`` takes the same n-ary product under every variant,
by the monotonicity its docstring proves.

Every construct reads only the maximal members of its query, so values
are memoized per node at *atomic queries*: a memo key is a mask m and
stands for ↓{m}, the family of all subsets of m, and a node's value at a
family is the union of its values at the down-sets of the family's
antichain.  Loops answer every query from the memo.  Sequences, choices
and conditionals answer down-set queries from it and explicit ones
structurally; atoms map elementwise.  Each node is compiled once per
evaluator into one entry, keyed by node identity: the node itself (so no
AST node is hashed, and its id is not reused while the entry lives), its
rule with the rule's arguments (an atom's relation, the one object its
space keeps, imaged through ``apply``, and its PSC flag; a join's
(branch, mask) pairs; a loop's guard mask, complement and body) and its
memo.  Rules are module functions, called with the evaluator, so an
evaluator is freed when its caller drops it.  Evaluation looks the entry
up and calls its rule, with no dispatch on the node's type.  A down-set
query whose antichain is one mask m, the usual query, reads or fills the
one memo entry of m and is itself the rule's argument; a loop's memo miss
there discovers and solves the equations reachable from m.  Larger
queries look up each antichain mask and batch a loop's missing ones into
one discovery.

Loops are least fixpoints of the guarded-join functional.  The equation
of atomic query m depends on the antichain of the body's value at
↓{m & guard}; its value is their union times ↓{m & ~guard}.  ``eval``
discovers a loop's missing equations, and a demand-driven worklist that
evaluates no statement solves them from the bottom {{}}, so a construct
costs two stack frames per nesting level, as in the parser.  The optional
cross-check and ``loop_iterates`` use synchronized (Kleene) iteration of
the same equations.

Unions and products of values are ``family.family_union`` and
``family.family_product``.  Down-sets are their fast path: when every
value in sight is subset closed, they work on antichains.  A principal
value ↓{m} is built as it is (``family.powerset_family``), with no
normalization: a product of principal values is principal (see
``family``), and an atom with the subset-image property (PSC) maps ↓{m}
onto ↓{tr(m)}, as its images of subsets of m lie below tr(m) and every
subset of tr(m) is one of them.  One mask is its own antichain, so these
values compare, hash and key like normalized ones.  An atom whose
relation is not a partial function lacks PSC and breaks closure;
evaluation then falls back to explicit members, within the family
module's cap and pair bound (``QueryBlowup`` past them).

Between calls to ``eval`` a principal value ↓{t} travels as its top mask
t: a join takes the `|` of principal branch values and their union with
one ``FamilySet.downset``, and a loop equation's value is u | (m & ~guard)
from the bottom 0, u the mask of its one dependency.  A principal value
is never a one-mask ``FamilySet``, so `==` and `!=` on carried values are
exact.  ``eval`` takes and returns only ``FamilySet``s, as do memos.

``happly`` and ``loop_iterates`` hand the anomalous ``naive`` and
``otimes`` variants to the definitional evaluator in ``reference``.
"""

from collections import deque

from . import reference
from .errors import IterationBudgetExceeded, NonSubsetClosedQuery
from .family import (DOWNSET, FamilySet, family_product, family_union,
                     powerset_family)
from .lang import (Atom, Choice, If, Seq, Skip, While, elaborate_atom,
                   eval_bool, join_branches)
from .reference import LoopVariant
from .transformer import psc_check


def _map_family(ev, tr, preserves_closure, fam):
    """Elementwise image { tr(p) | p in fam } of a nonempty family."""
    if fam.kind == DOWNSET and preserves_closure:
        if len(fam.sets) == 1:
            (m,) = fam.sets
            return powerset_family(tr.apply(m))
        return FamilySet.downset(map(tr.apply, fam.sets))
    return FamilySet.explicit(map(tr.apply, fam.members()))


def _seq(ev, parts, fam):
    for part in parts:
        fam = ev.eval(part, fam)
    return fam


def _top(fam):
    """A value as the engine carries it between ``eval`` calls: the top
    mask t of a principal down-set ↓{t}, else the family itself."""
    if fam.kind == DOWNSET and len(fam.sets) == 1:
        (t,) = fam.sets
        return t
    return fam


def _family(v):
    """The family a carried value stands for."""
    return powerset_family(v) if type(v) is int else v


def _union(vals):
    """The family of the union of a nonempty list of carried values: one
    ``downset`` over top masks when every value is principal."""
    if len(vals) == 1:
        return _family(vals[0])
    if all(type(v) is int for v in vals):
        return FamilySet.downset(vals)
    return family_union(*map(_family, vals))


def _families(vals):
    return {u: powerset_family(t) for u, t in vals.items()}


def _join(ev, branches, fam):
    """Inner join over (branch, mask) pairs: at each maximal member p of
    the query, the product of every branch's value at ↓(p & its mask),
    then the union over p.  Plain loops: a comprehension (on Python 3.11)
    or a `map` would add to each nesting level's share of the stack."""
    parts = []
    for p in fam.antichain():
        val = None
        for branch, mask in branches:
            v = _top(ev.eval(branch, powerset_family(p & mask)))
            if val is None:
                val = v
            elif type(val) is int and type(v) is int:
                val |= v
            else:
                val = _top(family_product(_family(val), _family(v)))
        parts.append(val)
    return _union(parts)


class HyperStats:
    """Counters of one evaluator's loop solves, and the cross-check's
    mismatches as (node, system, values, limit)."""

    def __init__(self):
        self.demand_loops_solved = 0
        self.queries_solved = 0
        self.value_updates = 0
        self.cross_checks = 0
        self.cross_mismatches = []


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
        we live.  The rule is called as rule(self, *args, query).  Atoms and
        skip map a whole query and keep no memo; a loop has no rule, and its
        args are the guard's mask, its complement and the body."""
        if isinstance(node, Atom):
            rel = elaborate_atom(node.atom, self.space)
            entry = (node, _map_family, (rel, psc_check(rel).ok), None)
        elif isinstance(node, Skip):
            entry = (node, _seq, ((),), None)  # the empty sequence
        elif isinstance(node, Seq):
            entry = (node, _seq, (node.parts,), {})
        elif isinstance(node, (Choice, If)):
            entry = (node, _join, (join_branches(node, self.space),), {})
        elif isinstance(node, While):
            bmask = eval_bool(node.cond, self.space)
            entry = (node, None, (bmask, self.space.full_mask & ~bmask,
                                  node.body), {})
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
        # structurally.  Calling the rule, or discovering a loop's
        # equations, from here keeps two stack frames per nesting level.
        if memo is None or (rule is not None and fam.kind != DOWNSET):
            return rule(self, *args, fam)
        if len(fam.sets) == 1:  # ↓{m}, or {m} at a loop: one memo entry
            (m,) = fam.sets
            val = memo.get(m)
            if val is None:
                if rule is None:
                    self._solve_demand(node, self._discover(args, (m,), memo),
                                       memo)
                    return memo[m]
                val = memo[m] = rule(self, *args, fam)
            return val
        basis = fam.antichain()
        vals = []
        missing = []
        for m in basis:
            val = memo.get(m)
            if val is None:
                if rule is None:
                    missing.append(m)
                    continue
                val = memo[m] = rule(self, *args, powerset_family(m))
            vals.append(val)
        if missing:
            self._solve_demand(node, self._discover(args, missing, memo), memo)
            vals = [memo[m] for m in basis]
        return vals[0] if len(vals) == 1 else family_union(*vals)

    # ---- loop machinery: one unknown per atomic query

    def _discover(self, loop, roots, known):
        """Equations of the atomic queries reachable from roots, not
        entering known; loop is the args of a loop's entry.

        Each equation is (deps, wrap): the antichain of the body's value
        at the subsets of m & guard, one mask, and the mask m & ~guard.
        Roots are always included.
        """
        bmask, nbmask, body = loop
        system = {}
        pending = list(roots)
        while pending:
            m = pending.pop()
            if m in system:
                continue
            deps = self.eval(body, powerset_family(m & bmask)).antichain()
            system[m] = (deps, m & nbmask)
            pending.extend(d for d in deps if d not in known)
        return system

    def _rhs(self, equation, vals, memo):
        """The equation's value as a mask, reading its unknown from vals or
        the atomic query's family from memo.  Every construct maps a family
        with a greatest member to one, so the body's value at ↓{m & guard}
        has one maximal member, the equation one dependency, and every
        loop value, from the bottom 0 up, a top mask."""
        (d,), wrap = equation
        return (vals[d] if d in vals else _top(memo[d])) | wrap

    def _kleene(self, system, memo):
        """Synchronized iterates of system from bottom, as masks; other
        atoms read memo."""
        cur = dict.fromkeys(system, 0)
        while True:
            yield cur
            cur = {u: self._rhs(eq, cur, memo) for u, eq in system.items()}

    def _kleene_limit(self, system, memo):
        budget = reference.loop_budget(self.space.size, len(system))
        prev = None
        for i, cur in enumerate(self._kleene(system, memo)):
            if cur == prev:
                return cur
            if i == budget:
                # unreachable unless monotonicity breaks: values only grow
                # from bottom, at most 2^n times per unknown, which stays
                # within loop_budget up to 20 states
                raise IterationBudgetExceeded(
                    f"loop iteration did not stabilize within {budget} steps")
            prev = cur

    def _solve_demand(self, node, system, memo):
        """Worklist iteration to the least solution, over masks from the
        bottom 0; memoizes every atom as a family."""
        vals = dict.fromkeys(system, 0)
        rdeps = {u: set() for u in system}
        for u, (deps, _) in system.items():
            for d in deps:
                if d in rdeps:
                    rdeps[d].add(u)

        budget = reference.loop_budget(self.space.size, len(system))
        updates = 0
        work = deque(system)
        queued = set(system)
        while work:
            u = work.popleft()
            queued.discard(u)
            new = self._rhs(system[u], vals, memo)
            if new != vals[u]:
                vals[u] = new
                updates += 1
                if updates > budget:
                    # unreachable unless monotonicity breaks: values only
                    # grow from bottom, at most 2^n times per unknown,
                    # which stays within loop_budget up to 20 states
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
            if vals != limit:
                self.stats.cross_mismatches.append(
                    (node, system, _families(vals), _families(limit)))
        memo.update(_families(vals))


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
        iters = reference.ref_iterates(reference.ref_loop_system(
            While(cond, body), q, space, variant))
        return [FamilySet.explicit(vals[q])
                for _, vals in zip(range(steps + 1), iters)]
    ev = HEval(space)
    basis = fam.antichain()
    _, _, loop, _ = ev._compile(While(cond, body))
    system = ev._discover(loop, basis, {})
    return [_union([cur[m] for m in basis])
            for _, cur in zip(range(steps + 1), ev._kleene(system, {}))]
