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
there walks from m and finds the equations it reaches as it goes.  Larger
queries look up each antichain mask; a loop batches its roots into one
walk, which passes over those already in the memo.

Loops are least fixpoints of the guarded-join functional.  The equation
of atomic query m reads the body's value at ↓{m & guard}.  Every
construct maps a family with a greatest member to one, so that value
has one maximal member d(m), and the equation is val(m) = val(d(m)) |
w(m) over top masks from the bottom 0, with the wrap w(m) = m & ~guard;
a d(m) outside the system reads its memo value.  ``eval`` hands a loop's
roots to ``HEval._solve``, which reads each equation's body value when
its walk first reaches the unknown (a top-down solve) and solves the
system in closed form, so a loop, like every construct, costs two stack
frames per nesting level (``eval``, ``_solve``), as in the parser.

The closed form.  Follow m's path m, d(m), d(d(m)), ... .  By induction
on k, the k-th Kleene iterate at m is the OR of the wraps of the first k
unknowns on the path, and of the memo value at which the path leaves the
system if it does so within k steps.  The iterates grow with k, so their
limit is the OR of the wraps of every unknown the path visits, and of
that memo value.  Each unknown has one dependency, so a path either
leaves the system or ends in one cycle, round which it goes for ever:
every unknown of a cycle takes the OR of the cycle's wraps, and any other
unknown its wrap | its dependency's value.  The solve walks from each
root, the last first, and reads each unknown's equation as it reaches
it, until it meets a memo value, an unknown an earlier walk solved, or
its own path; it gives a cycle closed on its path the OR of the cycle's
wraps, and walks back along the path ORing in each wrap.  Every unknown
lies on the walk that found it, so one pass both finds and solves the
system: Tarjan's SCC fold on a graph where each node has one successor.
The optional cross-check and ``loop_iterates`` iterate the same
equations synchronously (Kleene).

Unions and products of other values are ``family.family_union`` and
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

Memos hold a value as the engine carries it: a principal down-set ↓{t}
as its top mask t, any other value as its ``FamilySet``; rules return
carried values.  A join takes the `|` of principal branch values, and a
loop equation's value is u | (m & ~guard) from the bottom 0, u the mask
of its one dependency.  A union of top masks (a join's over its query's
antichain, ``eval``'s over a multi-mask query's, a PSC atom's images of
a multi-mask down-set) is reduced by ``family.maximal_masks`` and stays
a mask when one survives; only a non-principal union builds a
``FamilySet``, from the reduced antichain.
A principal value is never a one-mask ``FamilySet``, so `==` and `!=` on
carried values are exact.  A rule reads a child's value at ↓{m} with
``HEval._hit`` first, which answers from the child's memo, a PSC atom's
image of m, or m itself for `skip`; only a rule run enters ``eval``.
``eval`` converts at its boundary: it takes and returns only
``FamilySet``s, and each evaluator interns one ``FamilySet`` per mask,
which serves every principal query it passes and every principal value
``eval`` returns.

``happly`` and ``loop_iterates`` hand the anomalous ``naive`` and
``otimes`` variants to the definitional evaluator in ``reference``.
"""

from . import reference
from .errors import IterationBudgetExceeded, NonSubsetClosedQuery
from .family import (DOWNSET, FamilySet, family_product, family_union,
                     maximal_masks, powerset_family)
from .lang import (Atom, Choice, If, Seq, Skip, While, elaborate_atom,
                   eval_bool, join_branches)
from .reference import LoopVariant
from .transformer import psc_check


def _map_family(ev, tr, preserves_closure, fam):
    """Elementwise image { tr(p) | p in fam } of a nonempty family,
    carried."""
    if fam.kind == DOWNSET and preserves_closure:
        if len(fam.sets) == 1:
            (m,) = fam.sets
            return tr.apply(m)
        return _union_of_tops(frozenset(map(tr.apply, fam.sets)))
    return _top(FamilySet.explicit(map(tr.apply, fam.members())))


def _seq(ev, parts, fam):
    """The parts in order, each principal value read with ``_hit`` first."""
    val = _top(fam)
    for part in parts:
        if type(val) is int:
            v = ev._hit(part, val)
            val = (_top(ev.eval(part, ev._principal[val])) if v is None
                   else v)
        else:
            val = _top(ev.eval(part, val))
    return val


def _top(fam):
    """A value as the engine carries it: the top mask t of a principal
    down-set ↓{t}, else the family itself."""
    if fam.kind == DOWNSET and len(fam.sets) == 1:
        (t,) = fam.sets
        return t
    return fam


def _family(v):
    """The family a carried value stands for."""
    return powerset_family(v) if type(v) is int else v


def _union_of_tops(masks):
    """The union of ↓{t} over a nonempty frozenset of masks t, carried:
    the one maximal mask, else the down-set of the antichain."""
    top = maximal_masks(masks)
    if len(top) == 1:
        (t,) = top
        return t
    return FamilySet.of_antichain(top)


def _union(vals):
    """The union of a nonempty list of carried values, carried: over top
    masks when every value is principal."""
    if len(vals) == 1:
        return vals[0]
    for v in vals:
        if type(v) is not int:
            return _top(family_union(*map(_family, vals)))
    return _union_of_tops(frozenset(vals))


def _join(ev, branches, fam):
    """Inner join over (branch, mask) pairs: at each maximal member p of
    the query, the product of every branch's value at ↓(p & its mask),
    then the union over p.  Plain loops: a comprehension (on Python 3.11)
    or a `map` would add to each nesting level's share of the stack."""
    parts = []
    for p in fam.antichain():
        val = None
        for branch, mask in branches:
            q = p & mask
            v = ev._hit(branch, q)
            if v is None:
                v = _top(ev.eval(branch, ev._principal[q]))
            if val is None:
                val = v
            elif type(val) is int and type(v) is int:
                val |= v
            else:
                val = _top(family_product(_family(val), _family(v)))
        parts.append(val)
    return _union(parts)


class _Interned(dict):
    """One principal family ↓{m} per mask m, built at its first use."""

    __slots__ = ()

    def __missing__(self, m):
        fam = self[m] = powerset_family(m)
        return fam


class HyperStats:
    """Counters of one evaluator's loop solves, and the cross-check's
    mismatches as (node, system, values, limit), where values and limit
    map each unknown to a top mask.  The closed-form solve
    updates no value, so ``value_updates`` reads 0; it is kept only for
    the benchmark's ``hyper.loop.updates`` total."""

    def __init__(self):
        self.demand_loops_solved = 0
        self.queries_solved = 0
        self.value_updates = 0
        self.cross_checks = 0
        self.cross_mismatches = []


class HEval:
    """One paper-variant evaluation context: the space, one compiled
    entry per statement node with the node's rule and memo, and one
    interned principal family per mask used."""

    def __init__(self, space, variant=LoopVariant.PAPER, *,
                 cross_check=False):
        if variant is not LoopVariant.PAPER:
            raise ValueError(f"HEval computes the paper variant only, not "
                             f"{variant!r}; see hypersem.reference")
        self.space = space
        self.cross_check = cross_check
        self.stats = HyperStats()
        self._entries = {}
        self._principal = _Interned()

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
        # structurally.  Calling the rule, or solving a loop, from here
        # keeps two stack frames per nesting level.
        if memo is None or (rule is not None and fam.kind != DOWNSET):
            val = rule(self, *args, fam)
        elif len(fam.sets) == 1:  # ↓{m}, or {m} at a loop: one memo entry
            (m,) = fam.sets
            val = memo.get(m)
            if val is None:
                if rule is None:
                    self._solve(node, args, (m,), memo)
                    val = memo[m]
                else:
                    val = memo[m] = rule(self, *args, fam)
        else:
            basis = fam.antichain()
            if rule is None and not memo.keys() >= basis:  # a loop's miss
                self._solve(node, args, basis, memo)
            vals = []
            for m in basis:
                val = memo.get(m)
                if val is None:
                    val = memo[m] = rule(self, *args, self._principal[m])
                vals.append(val)
            val = _union(vals)
        return self._principal[val] if type(val) is int else val

    def _hit(self, node, m):
        """The node's carried value at ↓{m} when it needs no rule run: its
        memo entry, a PSC atom's image of m, or m for skip; else None.
        It returns before its caller enters ``eval``, so a nesting level
        keeps two stack frames."""
        _, rule, args, memo = (self._entries.get(id(node))
                               or self._compile(node))
        if memo is not None:
            return memo.get(m)
        if rule is _map_family:
            tr, psc = args
            return tr.apply(m) if psc else None
        return m  # skip

    # ---- loop machinery: one unknown per atomic query

    def _kleene(self, system, memo):
        """Synchronized iterates of system from bottom, as masks; a
        dependency outside system reads memo."""
        cur = dict.fromkeys(system, 0)
        while True:
            yield cur
            cur = {u: (cur[d] if d in cur else memo[d]) | wrap
                   for u, (d, wrap) in system.items()}

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

    def _solve(self, node, loop, roots, memo):
        """Solve the loop's equations reachable from the roots, in closed
        form (see the module docstring), reading each when the walk first
        reaches its unknown; loop is the args of the node's entry.  Roots
        in the memo are passed over, the others walked from the last.
        Memoizes every unknown's mask and returns the system, unknown m to
        (dep, wrap): the one maximal member of the body's value at the
        subsets of m & guard, and m & ~guard, in the order the walks met
        them."""
        bmask, nbmask, body = loop
        system = {}
        vals = {}
        for u in reversed(list(roots)):
            path = []  # the unknowns this walk met, in order
            while u not in memo and u not in system:
                q = u & bmask
                v = self._hit(body, q)
                if v is None:
                    v = _top(self.eval(body, self._principal[q]))
                (dep,) = (v,) if type(v) is int else v.antichain()
                system[u] = (dep, u & nbmask)
                path.append(u)
                u = dep
            if u in vals:
                val = vals[u]
            elif u in memo:
                val = memo[u]
            else:
                # a cycle closed on the path: the OR of its wraps, which
                # the walk back gives each of its unknowns
                val = 0
                for c in path[path.index(u):]:
                    val |= system[c][1]
            for c in reversed(path):
                val |= system[c][1]
                vals[c] = val
        self.stats.demand_loops_solved += 1
        self.stats.queries_solved += len(system)
        if self.cross_check:
            self.stats.cross_checks += 1
            limit = self._kleene_limit(system, memo)
            if vals != limit:
                self.stats.cross_mismatches.append(
                    (node, system, vals, limit))
        memo.update(vals)
        return system


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
    node = While(cond, body)
    _, _, loop, _ = ev._compile(node)
    system = ev._solve(node, loop, basis, {})
    return [_family(_union([cur[m] for m in basis]))
            for _, cur in zip(range(steps + 1), ev._kleene(system, {}))]
