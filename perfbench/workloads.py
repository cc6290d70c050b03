"""The four benchmark workloads: how each builds its inputs and checks an item.

An *item* is one generated program put through its workload's oracle.  A
*pass* is one battery of items, built from a battery seed before any item
of it is timed.  Each workload mirrors the repo's own differential
battery (``diff_thm1``, ``diff_prop1``, criterion 8) and is as strict as
the acceptance tests: equality for thm1 and prop1, containment for nondet,
three-way agreement plus the exit code for ni_cli.  The reasons for each
workload are in README.md next to this file.

``run_item`` returns ``(ok, checks, payload, stats)``: whether every check
passed, how many oracle comparisons were made, the item's outputs (hashed
into the run's digest), and the ``HyperStats`` of the evaluator, if any.
A workload may also define ``stage(item)``, run untimed before the item.
"""

import contextlib
import io
import os
import random
from array import array
from dataclasses import replace

from hypersem import cli, harness, hyper, lang, semantics
from hypersem.harness import GenConfig


def scaled(n, scale):
    return max(1, round(n * scale))


class _HyperDifferential:
    """Hyper denotation against the elementwise lift of the transformer
    denotation, with the demand-vs-Kleene cross-check on (diff_thm1)."""

    deterministic = True

    def __init__(self, scale, workdir):
        self.scale = scale

    def _program(self, cfg, t):
        seed = cfg.seed * 499979 + t
        if self.deterministic:
            sub = replace(cfg, seed=seed, allow_choice=False,
                          allow_nondet_atoms=False)
        else:
            sub = replace(cfg, seed=seed, allow_choice=True)
        return seed, harness.gen_program(sub)

    def _sampled(self, cfg, trials, samples):
        out = []
        for t in range(scaled(trials, self.scale)):
            seed, pf = self._program(cfg, t)
            rng = random.Random(seed ^ 0x5EED)
            size = cfg.space_size
            out.append((pf, [harness.random_downset(rng, size)
                             for _ in range(samples)]))
        return out

    def run_item(self, item, roles):
        pf, queries = item
        with roles.oracle:
            space = pf.space()
            tr = semantics.sem_tr(pf.body, space)
        with roles.engine:
            ev = hyper.HEval(space, hyper.LoopVariant.PAPER, cross_check=True)
        ok = True
        payload = []
        for q in queries:
            with roles.engine:
                got = ev.eval(pf.body, q)
            with roles.oracle:
                want = harness.lift_family(tr, q)
                if self.deterministic:
                    good = got == want
                    payload.append(got.key())
                else:
                    good = want <= got
                    payload.append((got.key(), got != want))
            ok = ok and good
        ok = ok and not ev.stats.cross_mismatches
        return ok, len(queries) + ev.stats.cross_checks, payload, ev.stats


class Thm1(_HyperDifferential):
    """Criterion 5's theorem differential on deterministic, choice-free
    programs: all 167 down-sets at 4 states, 100 sampled ones at 5-8."""

    def __init__(self, scale, workdir):
        super().__init__(scale, workdir)
        self._downsets4 = None

    def build(self, bseed):
        if self._downsets4 is None:
            self._downsets4 = list(harness.enumerate_downsets(4))
        cfg4 = GenConfig(seed=bseed, space_size=4, max_range=3)
        items = [(self._program(cfg4, t)[1], self._downsets4)
                 for t in range(scaled(100, self.scale))]
        for size, trials in ((5, 13), (6, 13), (7, 13), (8, 11)):
            cfg = GenConfig(seed=bseed * 10 + size, space_size=size,
                            max_range=4)
            items += self._sampled(cfg, trials, 100)
        return items


class Nondet(_HyperDifferential):
    """The same engine on programs with choice, havoc, nondeterministic
    assignment and relation literals; the oracle is containment."""

    deterministic = False

    def build(self, bseed):
        items = []
        for size in (6, 8, 10):
            cfg = GenConfig(seed=bseed * 100 + size, space_size=size,
                            max_space=size, max_range=4)
            items += self._sampled(cfg, 40, 20)
        return items


class Prop1:
    """Relational direct image against the transformer denotation at
    exactly 10 states, exhaustive over all 2^10 subsets (diff_prop1)."""

    def __init__(self, scale, workdir):
        self.scale = scale

    def build(self, bseed):
        cfg = GenConfig(seed=bseed, max_vars=3, max_range=4, max_space=10,
                        space_size=10)
        return [harness.gen_program(replace(cfg, seed=cfg.seed * 100003 + t))
                for t in range(scaled(200, self.scale))]

    def run_item(self, pf, roles):
        with roles.engine:
            space = pf.space()
            rel = semantics.sem_rel(pf.body, space)
            tr = semantics.sem_tr(pf.body, space)
        with roles.oracle:
            images = array("Q")
            ok = True
            for p in range(1 << space.size):
                a = rel.dirimg(p)
                b = tr.apply(p)
                ok = ok and a == b
                images.append(b)
        return ok, len(images), images.tobytes(), None


_NI_FORMS = ("rel", "poss", "hyper")


class NiCli:
    """Criterion 8's deterministic hi/lo programs checked in-process by
    ``hypersem check-ni FILE --form all``.

    Items are program texts.  ``stage`` writes an item's text to a new
    ``.imp`` file just before the item is timed and deletes the previous
    one.  Creating 500 files during set-up took 0.2-0.5 s on a shared ext4
    disk and drifted through a session, and rewriting one file in place
    forces a flush on close (about 0.5 ms); a new file that is deleted
    before writeback costs about 0.05 ms.
    """

    def __init__(self, scale, workdir):
        self.scale = scale
        self.workdir = workdir
        self.path = None
        self._staged = 0
        os.makedirs(workdir, exist_ok=True)

    def build(self, bseed):
        base = GenConfig(max_vars=2, max_range=1, max_space=4, space_size=4,
                         allow_choice=False, allow_nondet_atoms=False,
                         total_atoms=True)
        texts = []
        for j in range(scaled(500, self.scale)):
            pf = harness.gen_program(replace(base, seed=bseed * 500 + j))
            body = lang.pp_stmt(pf.body).replace("x", "hi").replace("y", "lo")
            texts.append(f"var hi: 0..1;\nvar lo: 0..1;\nlow lo;\n{body}\n")
        return texts

    def stage(self, text):
        self._staged += 1
        path = os.path.join(self.workdir, f"p{self._staged}.imp")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        if self.path is not None:
            os.remove(self.path)
        self.path = path

    def run_item(self, text, roles):
        out = io.StringIO()
        with roles.engine, contextlib.redirect_stdout(out):
            code = cli.main(["check-ni", self.path, "--form", "all"])
        with roles.oracle:
            lines = out.getvalue().splitlines()
            forms = tuple(line.split(":", 1)[0] for line in lines)
            verdicts = {line.split(":", 1)[1].split()[0] for line in lines}
            ok = (forms == _NI_FORMS and len(verdicts) == 1
                  and code == (0 if verdicts == {"secure"} else 1))
        return ok, 1, (lines, code), None


WORKLOADS = {"thm1": Thm1, "nondet": Nondet, "prop1": Prop1, "ni_cli": NiCli}
