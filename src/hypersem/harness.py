"""Random program generation, down-set enumeration, differential oracles.

Most generated loops are ``while v < bound { body; v := v + 1 }``, where
v is a program variable frozen for the body: its assignments and havocs
leave v alone, a nested loop picks another variable, and in total mode
its relation literals pass v through, so termination is structural
(outside total mode a relation literal may still reset v).  The rest are
constant-guarded: 15% of loops, and every loop once no variable is left
unfrozen, are ``while false { body }`` or, outside total mode and in 3
of 10 cases, ``while true { skip }``.  Semantics never needs termination
(the fixpoints exist regardless), but stabilization is fast.  Every
battery is reproducible from its seed.

Each differential battery checks one program in one function that
returns the ``DiffReport`` of that trial: ``check_prop1`` (relational
image vs transformer) and ``check_thm1`` (hyper value vs elementwise
lift, two-sided; nothing else compares the two).  ``diff_prop1`` and
``diff_thm1`` generate programs and fold each trial into one report with
``DiffReport.add``; tests call the checks directly.  The noninterference
battery's check is ``cli.ni_verdicts``, the verdicts ``check-ni`` prints.
"""

import random
from dataclasses import dataclass, replace
from itertools import product

from . import _kernels
from .errors import SpaceTooLarge
from .family import DEFAULT_EXPANSION_CAP, DOWNSET, FamilySet, ssc
from .hyper import HEval
from .lang import (Assign, Assume, Atom, BoolBin, BoolConst, Choice, Cmp,
                   Havoc, If, IntBin, IntConst, IntVar, NondetAssign,
                   ProgramFile, RelAtom, Seq, Skip, While, pp_program,
                   pp_stmt)
from .semantics import sem_rel, sem_tr

_VAR_NAMES = ("x", "y", "z", "w", "v", "u")
_MAX_DEPTH = 3  # statement nesting of generated program bodies


# The one dataclass in the package: callers vary a config with
# dataclasses.replace.
@dataclass(frozen=True)
class GenConfig:
    seed: int = 0
    max_vars: int = 2
    max_range: int = 4
    allow_choice: bool = True
    allow_nondet_atoms: bool = True
    max_space: int = 10
    space_size: int = None  # exact space size when set
    # restrict atoms to ones that cannot get stuck, so denotations are
    # total wherever loops terminate (the three NI forms then coincide)
    total_atoms: bool = False


class DiffReport:
    def __init__(self):
        self.trials = 0
        self.failures = 0
        self.first_witness = None
        self.strict_cases = 0
        self.cross_checks = 0

    def record_failure(self, witness):
        self.failures += 1
        if self.first_witness is None:
            self.first_witness = witness

    def add(self, item):
        """Fold one trial's report into this battery's."""
        self.trials += item.trials
        self.failures += item.failures
        if self.first_witness is None:
            self.first_witness = item.first_witness
        self.strict_cases += item.strict_cases
        self.cross_checks += item.cross_checks


# ---------------------------------------------------------------- generator

def _factorizations(n, max_factors, max_factor):
    """All ways to write n as an ordered product of in-bound factors."""
    if n == 1:
        return [()]
    out = []
    for f in range(2, min(n, max_factor) + 1):
        if n % f == 0 and max_factors > 0:
            for rest in _factorizations(n // f, max_factors - 1, max_factor):
                out.append((f,) + rest)
    return out


def _pick_decls(rng, cfg):
    nvars = max(1, cfg.max_vars)
    max_factor = cfg.max_range + 1
    if cfg.space_size is not None:
        opts = _factorizations(cfg.space_size, nvars, max(max_factor, 2))
        if not opts:
            opts = [(cfg.space_size,)]
        factors = rng.choice(opts) or (1,)  # one state: one 0..0 variable
    else:
        factors = []
        size = 1
        for _ in range(rng.randint(1, nvars)):
            f = rng.randint(2, max_factor)
            if size * f > cfg.max_space:
                break
            factors.append(f)
            size *= f
        if not factors:
            factors = [min(cfg.max_space, max_factor)]
    names = list(_VAR_NAMES[:len(factors)])
    return tuple((n, 0, f - 1) for n, f in zip(names, factors))


class _Gen:
    def __init__(self, cfg, rng, decls):
        self.cfg = cfg
        self.rng = rng
        self.decls = decls
        self.names = [n for n, _, _ in decls]
        self.ranges = {n: (lo, hi) for n, lo, hi in decls}

    def iexpr(self, depth):
        r = self.rng
        if depth <= 0 or r.random() < 0.5:
            if r.random() < 0.5:
                return IntConst(r.randint(0, self.cfg.max_range))
            return IntVar(r.choice(self.names))
        op = r.choice(("+", "-", "*"))
        return IntBin(op, self.iexpr(depth - 1), self.iexpr(depth - 1))

    def bexpr(self, depth):
        r = self.rng
        if depth <= 0 or r.random() < 0.6:
            roll = r.random()
            if roll < 0.1:
                return BoolConst(r.random() < 0.5)
            op = r.choice(("=", "!=", "<", "<=", ">", ">="))
            return Cmp(op, self.iexpr(1), self.iexpr(1))
        if r.random() < 0.3:
            return BoolBin(r.choice(("&&", "||")),
                           self.bexpr(depth - 1), self.bexpr(depth - 1))
        return self.bexpr(depth - 1)

    def atom(self, frozen):
        r = self.rng
        writable = [n for n in self.names if n not in frozen]
        if self.cfg.total_atoms:
            return self.total_atom(writable, frozen)
        roll = r.random()
        if roll < 0.15:
            return Atom(Assume(self.bexpr(1)))
        if self.cfg.allow_nondet_atoms and roll < 0.30 and writable:
            v = r.choice(writable)
            if r.random() < 0.5:
                return Atom(Havoc(v))
            return Atom(NondetAssign(v, self.iexpr(0), self.iexpr(0)))
        if roll < 0.36:
            return Atom(self.rel_atom())
        if not writable:
            return Skip()
        v = r.choice(writable)
        return Atom(Assign(v, self.iexpr(1)))

    def total_atom(self, writable, frozen):
        """Stuck-free deterministic atoms only: in-range constants, copies
        into enclosing ranges, products of 0..1 variables, total relation
        literals that leave loop counters alone."""
        r = self.rng
        if not writable:
            return Skip()
        if r.random() < 0.2:
            return Atom(self.total_rel_atom(frozen))
        v = r.choice(writable)
        lo, hi = self.ranges[v]
        options = [IntConst(r.randint(lo, hi))]
        for n in self.names:
            nlo, nhi = self.ranges[n]
            if lo <= nlo and nhi <= hi:
                options.append(IntVar(n))
        bitvars = [n for n in self.names if self.ranges[n] == (0, 1)]
        if bitvars and lo <= 0 and hi >= 1:
            options.append(IntBin("*", IntVar(r.choice(bitvars)),
                                  IntVar(r.choice(bitvars))))
        return Atom(Assign(v, r.choice(options)))

    def total_rel_atom(self, frozen=frozenset()):
        r = self.rng
        envs = [tuple(sorted(zip(self.names, vals))) for vals in product(
            *(range(lo, hi + 1) for _, lo, hi in self.decls))]
        pairs = []
        for src in envs:
            dst = r.choice(envs)
            if frozen:
                # counters must pass through unchanged
                src_map = dict(src)
                dst = tuple(sorted((n, src_map[n] if n in frozen else v)
                                   for n, v in dst))
            pairs.append((src, dst))
        return RelAtom(tuple(sorted(pairs)))

    def rel_atom(self):
        r = self.rng
        npairs = r.randint(0, 3)
        pairs = []
        used_src = set()
        for _ in range(npairs):
            src = tuple(sorted((n, r.randint(lo, hi))
                               for n, (lo, hi) in self.ranges.items()))
            if not self.cfg.allow_nondet_atoms:
                if src in used_src:
                    continue
                used_src.add(src)
            dst = tuple(sorted((n, r.randint(lo, hi))
                               for n, (lo, hi) in self.ranges.items()))
            pairs.append((src, dst))
        return RelAtom(tuple(pairs))

    def stmt(self, depth, frozen):
        r = self.rng
        if depth <= 0:
            return self.atom(frozen)
        roll = r.random()
        if roll < 0.30:
            return self.atom(frozen)
        if roll < 0.50:
            return Seq((self.stmt(depth - 1, frozen),
                        self.stmt(depth - 1, frozen)))
        if roll < 0.62 and self.cfg.allow_choice:
            return Choice((self.stmt(depth - 1, frozen),
                           self.stmt(depth - 1, frozen)))
        if roll < 0.80:
            return If(self.bexpr(depth), self.stmt(depth - 1, frozen),
                      self.stmt(depth - 1, frozen))
        return self.loop(depth, frozen)

    def loop(self, depth, frozen):
        r = self.rng
        counters = [n for n in self.names if n not in frozen]
        if not counters or r.random() < 0.15:
            # divergence-flavoured loops are fine: the fixpoints are finite.
            # In total mode divergence would make the denotation partial,
            # so only the vacuous loop is allowed there.
            diverge = not self.cfg.total_atoms and r.random() >= 0.7
            guard = BoolConst(diverge)
            body = Skip() if diverge else self.stmt(depth - 1, frozen)
            return While(guard, body)
        v = r.choice(counters)
        lo, hi = self.ranges[v]
        bound = r.randint(lo, hi)
        guard = Cmp("<", IntVar(v), IntConst(bound))
        inner = self.stmt(depth - 1, frozen | {v})
        step = Atom(Assign(v, IntBin("+", IntVar(v), IntConst(1))))
        return While(guard, Seq((inner, step)))


def gen_program(cfg):
    """Reproducible random program honoring the config flags."""
    rng = random.Random(cfg.seed)
    decls = _pick_decls(rng, cfg)
    g = _Gen(cfg, rng, decls)
    body = g.stmt(_MAX_DEPTH, frozenset())
    return ProgramFile(decls, (), (), (), body)


# ---------------------------------------------------------------- down-sets

def enumerate_downsets(n):
    """Every nonempty subset-closed family over n states, exactly once.

    Enumerated as the nonempty antichains of the subset lattice, in a
    fixed DFS order.  Limited to n <= 5, checked when called.
    """
    if n > 5:
        raise SpaceTooLarge("down-set enumeration limited to 5 states")
    masks = list(range(1 << n))

    def rec(start, chosen):
        for i in range(start, len(masks)):
            m = masks[i]
            if any(m & ~c == 0 or c & ~m == 0 for c in chosen):
                continue
            nxt = chosen + [m]
            yield FamilySet.downset(nxt)
            yield from rec(i + 1, nxt)

    return rec(0, [])


def random_downset(rng, n):
    """Random nonempty subset-closed family over n states."""
    k = rng.randint(1, 3)
    masks = [rng.randrange(1 << n) for _ in range(k)]
    return FamilySet.downset(masks)


def lift_family(tr, fam):
    """Elementwise image { phi p | p in fam }, in its one stored form.

    A down-set is the union of the principal down-sets of its antichain
    elements, so its members are imaged one antichain element m at a time:
    ``tr.subset_images(m)`` gives the images of all subsets of m with
    their closure data, from the memo of tr (a ``Rel``, read as its direct
    image) or, on a miss, from the subset-image recurrence.  Every member
    is still imaged, with no monotonicity shortcut.  A part's closure
    costs one count: each image lies inside tr(m), itself an image, so the
    part is down-closed exactly when it has 2^|tr(m)| images, and then
    every image but tr(m) is one state smaller than another.
    ``FamilySet.union_of_parts`` unions the parts; when every part is
    down-closed it reads the antichain off their closure data, without a
    pass over the union's members.

    Explicit families, and down-sets whose antichain spans more subsets
    than the expansion cap, go member by member, so ``QueryBlowup`` is
    raised exactly where ``members`` raises it.  The span sum(2^|m|) is
    summed only when the coarser bound len(antichain) * 2^(space size)
    exceeds the cap; below the cap that bound alone decides.
    """
    sets = fam.sets
    if fam.kind != DOWNSET or (
            len(sets) << tr.space.size > DEFAULT_EXPANSION_CAP
            and sum(1 << m.bit_count() for m in sets)
            > DEFAULT_EXPANSION_CAP):
        return FamilySet.explicit(map(tr.apply, fam.members()))
    return FamilySet.union_of_parts(map(tr.subset_images, sets))


# ---------------------------------------------------------------- oracles

def check_prop1(pf):
    """One program's direct image of the relational denotation vs its
    transformer denotation, exhaustive over every subset; any gap is a bug.
    Returns the report of this one trial.

    The relational side is the definitional image, the union of sem_rel's
    rows over the states of p (``_kernels.dirimg_rows``), so the subset-image
    tables that ``tr.apply`` reads are checked against the bit walk."""
    report = DiffReport()
    space = pf.space()
    rows = sem_rel(pf.body, space).rows
    tr = sem_tr(pf.body, space)
    report.trials = 1
    for p in range(1 << space.size):
        a = _kernels.dirimg_rows(rows, p)
        b = tr.apply(p)
        if a != b:
            report.record_failure(
                f"program:\n{pp_program(pf)}\np={p:#x} rel-image={a:#x} "
                f"transformer={b:#x}")
            break
    return report


def diff_prop1(cfg, trials=200):
    """check_prop1 on trials generated programs."""
    report = DiffReport()
    for t in range(trials):
        report.add(check_prop1(
            gen_program(replace(cfg, seed=cfg.seed * 100003 + t))))
    return report


def check_thm1(pf, queries, *, cross_check=False):
    """One program's hyper denotation vs the elementwise lift of its
    transformer denotation, at each query in turn, stopping at the first
    failure.  Returns the report of this one trial.

    The oracle is two-sided for every program, lift(Q) <= hyper(Q) <=
    ssc(lift(Q)) at a subset-closed Q, and equality where the relation is
    a partial function; a query whose values differ within these bounds
    is a strict case.  With cross_check, each loop value the demand
    solver finds is re-solved by Kleene iteration, and every mismatching
    loop solve counts as a failure; the witness names the first one's
    loop and its first query whose two values differ.
    """
    report = DiffReport()
    space = pf.space()
    tr = sem_tr(pf.body, space)
    ev = HEval(space, cross_check=cross_check)
    report.trials = 1
    for q in queries:
        got = ev.eval(pf.body, q)
        want = lift_family(tr, q)
        if got == want:
            continue
        if not want <= got <= ssc(want):
            report.record_failure(
                f"program:\n{pp_program(pf)}\nquery={q!r}\n"
                f"hyper={got!r}\nlift={want!r}")
            break
        report.strict_cases += 1
    if cross_check:
        mismatches = ev.stats.cross_mismatches
        report.cross_checks = ev.stats.cross_checks
        if mismatches:
            node, _, vals, limit = mismatches[0]
            m = next(u for u, v in vals.items() if v != limit[u])
            report.record_failure(
                f"program:\n{pp_program(pf)}\nloop={pp_stmt(node)}\n"
                f"query={FamilySet.downset((m,))!r}\ndemand={vals[m]!r}\n"
                f"kleene={limit[m]!r}")
            report.failures += len(mismatches) - 1
    return report


def diff_thm1(cfg, trials=100, queries=None, *, cross_check=False):
    """check_thm1 on trials generated choice-free programs with
    deterministic atoms, at the given queries or else at 100 random
    down-sets per program."""
    report = DiffReport()
    for t in range(trials):
        seed = cfg.seed * 499979 + t
        pf = gen_program(replace(cfg, seed=seed, allow_choice=False,
                                 allow_nondet_atoms=False))
        battery = queries
        if battery is None:
            rng = random.Random(seed ^ 0x5EED)
            size = pf.space().size
            battery = [random_downset(rng, size) for _ in range(100)]
        report.add(check_thm1(pf, battery, cross_check=cross_check))
    return report


# ---------------------------------------------------------------- searches

def search_ssc_necessity(seed=0, trials=200, size=4):
    """Sample one query on each of trials deterministic programs, skip
    those that are subset closed, and return (mismatches, checked): of the
    checked non-closed queries, the number where ``check_thm1`` finds the
    fixpoint and the lift differ."""
    rng = random.Random(seed)
    mismatches = checked = 0
    for t in range(trials):
        cfg = GenConfig(seed=seed * 31 + t, allow_choice=False,
                        allow_nondet_atoms=False, max_space=size,
                        space_size=size)
        pf = gen_program(cfg)
        space = pf.space()
        members = [rng.randrange(1 << space.size)
                   for _ in range(rng.randint(1, 3))]
        q = FamilySet.explicit(members)
        if q.is_subset_closed():
            continue
        checked += 1
        report = check_thm1(pf, [q])
        mismatches += report.failures + report.strict_cases
    return mismatches, checked
