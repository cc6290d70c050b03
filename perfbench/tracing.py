"""Out-of-program tracing for the traced benchmark run.

Each layer's public functions are wrapped from outside the program, by
replacing the name where the caller looks it up: the method on its class
(``HEval.eval``, ``FamilySet.key``, ``Rel.dirimg``, ...), the function in
``hypersem._kernels`` that the modules call through, and every module-level
binding of a function a module imported by name (``hypersem.hyper.psc_check``,
``hypersem.cli.parse``, ...).  ``uninstall`` puts every original back.

Every call through a wrapper is one span (name, parent, start, end), kept in
four flat arrays until the run ends.  ``metrics`` then derives each layer's
calls and self time (the span's time minus the time of its child spans).
The benchmark opens role spans of its own, ``role.setup``,
``role.engine`` (the code under test) and ``role.oracle`` (the reference
and the comparison), so kernel time can be split by which side spent it.

The wrappers also keep a few operation counts where the work happens; all
counts are deterministic for a given seed.
"""

import sys
import time
from array import array
from collections import defaultdict

CONSTRUCTS = ("Atom", "Seq", "Choice", "If", "While", "Skip")
KERNELS = ("dirimg_rows", "compose_rows", "converse_rows", "maximal_sets",
           "expand_downset", "is_downclosed", "psc_scan_table")
ROLES = ("setup", "engine", "oracle")
_MISSING = object()

# (span name, function location, only the outermost of nested calls)
_FUNCTIONS = (
    ("family.union", "family.family_union", False),
    ("transformer.psc_check", "transformer.psc_check", False),
    ("semantics.sem_rel", "semantics.sem_rel", True),
    ("semantics.sem_tr", "semantics.sem_tr", True),
    ("lang.parse", "lang.parse", False),
    ("lang.elaborate_atom", "lang.elaborate_atom", False),
    ("lang.eval_bool", "lang.eval_bool", False),
    ("lang.pp_stmt", "lang.pp_stmt", True),
    ("noninterference.ni_relational", "noninterference.ni_relational", False),
    ("noninterference.ni_possibilistic", "noninterference.ni_possibilistic",
     False),
    ("noninterference.ni_hyper", "noninterference.ni_hyper", False),
    ("cli.main", "cli.main", False),
    ("cli.build_parser", "cli.build_parser", False),
    ("notation.format_state", "notation.format_state", False),
    ("notation.format_state_set", "notation.format_state_set", False),
    ("notation.format_family", "notation.format_family", False),
    ("harness.gen_program", "harness.gen_program", False),
    ("harness.lift_family", "harness.lift_family", False),
)

# (span name, class location, attribute)
_METHODS = (
    ("family.downset", "family.FamilySet", "downset"),
    ("family.members", "family.FamilySet", "members"),
    ("family.key", "family.FamilySet", "key"),
    ("transformer.apply", "transformer.Transformer", "apply"),
    ("relation.compose", "relation.Rel", "compose"),
    ("relation.dirimg", "relation.Rel", "dirimg"),
)


def _count_expansion(counters, args, out):
    if args[0].kind == "downset":
        counters["family.members.expansions"] += 1


def _count_row_ors(counters, args, out):
    counters["kernels.dirimg_rows.row_ors"] += args[1].bit_count()


def _count_in_sets(counters, args, out):
    counters["kernels.maximal_sets.in_sets"] += len(args[0])


def _count_out_members(counters, args, out):
    if out is not None:
        counters["kernels.expand_downset.out_members"] += len(out)


_COUNTERS = {
    "family.members": _count_expansion,
    "kernels.dirimg_rows": _count_row_ors,
    "kernels.maximal_sets": _count_in_sets,
    "kernels.expand_downset": _count_out_members,
}

_SPANNED = ([f"hyper.eval.{c}" for c in CONSTRUCTS]
            + [name for name, _, _ in _METHODS]
            + [name for name, _, _ in _FUNCTIONS])


def layer_metrics():
    """Names and units of every per-layer metric, in report order."""
    out = []
    for name in _SPANNED:
        out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
    out += [("hyper.eval.distinct_keys", "count"),
            ("hyper.eval.distinct_ratio", "ratio"),
            ("hyper.loop.solves", "count"), ("hyper.loop.queries", "count"),
            ("hyper.loop.updates", "count"),
            ("hyper.loop.cross_checks", "count"),
            ("family.members.expansions", "count")]
    for k in KERNELS:
        out += [(f"kernels.{k}.calls", "count"), (f"kernels.{k}.self_s", "s"),
                (f"kernels.{k}.self_s.engine", "s"),
                (f"kernels.{k}.self_s.oracle", "s")]
    out += [("kernels.dirimg_rows.row_ors", "count"),
            ("kernels.maximal_sets.in_sets", "count"),
            ("kernels.expand_downset.out_members", "count")]
    out += [(f"role.{r}.s", "s") for r in ROLES]
    out += [("trace.spans", "count"), ("trace.overhead", "ratio")]
    return out


def _resolve(path):
    mod, _, attr = path.rpartition(".")
    return getattr(sys.modules["hypersem." + mod], attr)


class _RoleSpan:
    """Context manager opening one role span; not reentrant."""

    __slots__ = ("tracer", "nid", "i")

    def __init__(self, tracer, nid):
        self.tracer = tracer
        self.nid = nid

    def __enter__(self):
        t = self.tracer
        self.i = len(t.ends)
        t.names.append(self.nid)
        t.parents.append(t.cur)
        t.ends.append(0.0)
        t.cur = self.i
        t.starts.append(time.perf_counter())

    def __exit__(self, *exc):
        t = self.tracer
        t.ends[self.i] = time.perf_counter()
        t.cur = t.parents[self.i]


class Tracer:
    """Span recorder; ``install`` wraps the layers, ``uninstall`` restores."""

    def __init__(self):
        self.span_names = []
        self._nids = {}
        self.names = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.cur = -1
        self.paused = False
        self.counters = defaultdict(int)
        self.eval_keys = 0
        self._item_keys = set()
        self._active = defaultdict(int)
        self._saved = []
        self.setup, self.engine, self.oracle = (
            _RoleSpan(self, self._nid(f"role.{r}")) for r in ROLES)

    def _nid(self, name):
        nid = self._nids.get(name)
        if nid is None:
            nid = self._nids[name] = len(self.span_names)
            self.span_names.append(name)
        return nid

    # ---- wrapping

    def _wrap(self, fn, name, top_level=False):
        nid = self._nid(name)
        count = _COUNTERS.get(name)
        names, parents, starts, ends = (self.names, self.parents,
                                        self.starts, self.ends)
        active = self._active
        counters = self.counters
        perf = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.paused or (top_level and active[nid]):
                return fn(*args, **kwargs)
            i = len(ends)
            names.append(nid)
            parents.append(tracer.cur)
            ends.append(0.0)
            tracer.cur = i
            active[nid] += 1
            starts.append(perf())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = perf()
                tracer.cur = parents[i]
                active[nid] -= 1
            if count is not None:
                count(counters, args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_eval(self, fn):
        """HEval.eval: one span name per construct, plus the distinct
        (evaluator, node, query key) count.  Computing the key is tracer
        work, so it runs paused inside a span of its own that no layer's
        self time includes."""
        by_type = {c: self._nid(f"hyper.eval.{c}") for c in CONSTRUCTS}
        book = self._nid("trace.bookkeeping")
        names, parents, starts, ends = (self.names, self.parents,
                                        self.starts, self.ends)
        keys = self._item_keys
        perf = time.perf_counter
        tracer = self

        def wrapper(ev, node, fam):
            if tracer.paused:
                return fn(ev, node, fam)
            t0 = perf()
            tracer.paused = True
            try:
                cached = getattr(fam, "_key", _MISSING)
                keys.add((id(ev), id(node), fam.key()))
                if cached is not _MISSING:
                    fam._key = cached  # leave the family's key cache as found
            finally:
                tracer.paused = False
            names.append(book)
            parents.append(tracer.cur)
            starts.append(t0)
            ends.append(perf())
            i = len(ends)
            names.append(by_type.get(type(node).__name__)
                         or tracer._nid(f"hyper.eval.{type(node).__name__}"))
            parents.append(tracer.cur)
            ends.append(0.0)
            tracer.cur = i
            starts.append(perf())
            try:
                return fn(ev, node, fam)
            finally:
                ends[i] = perf()
                tracer.cur = parents[i]

        wrapper.__wrapped__ = fn
        return wrapper

    def _replace(self, owner, attr, new):
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self):
        from hypersem import _kernels

        hyper = sys.modules["hypersem.hyper"]
        self._replace(hyper.HEval, "eval", self._wrap_eval(hyper.HEval.eval))
        for name, cls_path, attr in _METHODS:
            cls = _resolve(cls_path)
            raw = vars(cls)[attr]
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(raw.__func__, name))
            else:
                new = self._wrap(raw, name)
            self._replace(cls, attr, new)
        for name, path, top_level in _FUNCTIONS:
            fn = _resolve(path)
            new = self._wrap(fn, name, top_level)
            for mod_name, mod in list(sys.modules.items()):
                if (mod_name.partition(".")[0] != "hypersem"
                        or mod_name.startswith("hypersem._kernels")):
                    continue
                for attr, val in list(vars(mod).items()):
                    if val is fn:
                        self._replace(mod, attr, new)
        # the pure kernels call each other directly; only calls through
        # the backend-selecting package are layer boundaries
        for k in KERNELS:
            self._replace(_kernels, k,
                          self._wrap(getattr(_kernels, k), f"kernels.{k}"))

    def uninstall(self):
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)

    def end_item(self):
        self.eval_keys += len(self._item_keys)
        self._item_keys.clear()

    # ---- results

    def metrics(self, hyper_stats, overhead):
        """Per-layer metrics as {name: value}, in layer_metrics() order."""
        n = len(self.ends)
        names, parents, starts, ends = (self.names, self.parents,
                                        self.starts, self.ends)
        role_ids = {self._nid(f"role.{r}"): r for r in ROLES}
        role_of = array("i", [-1]) * n
        for i in range(n):
            nid = names[i]
            p = parents[i]
            if nid in role_ids:
                role_of[i] = nid
            elif p >= 0:
                role_of[i] = role_of[p]
        child = array("d", [0.0]) * n
        calls = defaultdict(int)
        self_s = defaultdict(float)
        role_incl = defaultdict(float)
        for i in range(n - 1, -1, -1):
            d = ends[i] - starts[i]
            p = parents[i]
            if p >= 0:
                child[p] += d
            key = (names[i], role_of[i])
            calls[key] += 1
            self_s[key] += d - child[i]
            if names[i] in role_ids:
                role_incl[role_ids[names[i]]] += d

        def total(table, name, role=None):
            nid = self._nids.get(name)
            return sum(v for (k, r), v in table.items()
                       if k == nid and (role is None or r == role))

        out = {}
        for name in _SPANNED:
            out[f"{name}.calls"] = total(calls, name)
            out[f"{name}.self_s"] = total(self_s, name)
        eval_calls = sum(out[f"hyper.eval.{c}.calls"] for c in CONSTRUCTS)
        out["hyper.eval.distinct_keys"] = self.eval_keys
        out["hyper.eval.distinct_ratio"] = (self.eval_keys / eval_calls
                                            if eval_calls else 0.0)
        out["hyper.loop.solves"] = hyper_stats["solves"]
        out["hyper.loop.queries"] = hyper_stats["queries"]
        out["hyper.loop.updates"] = hyper_stats["updates"]
        out["hyper.loop.cross_checks"] = hyper_stats["cross_checks"]
        out["family.members.expansions"] = self.counters[
            "family.members.expansions"]
        engine = self._nid("role.engine")
        oracle = self._nid("role.oracle")
        for k in KERNELS:
            name = f"kernels.{k}"
            out[f"{name}.calls"] = total(calls, name)
            out[f"{name}.self_s"] = total(self_s, name)
            out[f"{name}.self_s.engine"] = total(self_s, name, engine)
            out[f"{name}.self_s.oracle"] = total(self_s, name, oracle)
        for c in ("kernels.dirimg_rows.row_ors",
                  "kernels.maximal_sets.in_sets",
                  "kernels.expand_downset.out_members"):
            out[c] = self.counters[c]
        for r in ROLES:
            out[f"role.{r}.s"] = role_incl[r]
        out["trace.spans"] = n
        out["trace.overhead"] = overhead
        return out

    def dump_spans(self, path):
        """Write every span as one tab-separated line:
        index, parent index, name, start, end (perf_counter seconds)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tparent\tname\tstart\tend\n")
            for i in range(len(self.ends)):
                fh.write(f"{i}\t{self.parents[i]}\t"
                         f"{self.span_names[self.names[i]]}\t"
                         f"{self.starts[i]!r}\t{self.ends[i]!r}\n")
