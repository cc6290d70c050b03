#!/usr/bin/env python3
"""Run one benchmark workload in this fresh process, closed loop, no threads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: it imports ``hypersem`` from ``src/``
and refuses to run without it.  Workloads: thm1, nondet, prop1, ni_cli
(see README.md).

Untraced (``--trace 0``): builds pass 0's inputs, then runs passes, each a
fresh battery built from (seed, pass index), item after item until
``--seconds`` have gone by; a pass is never cut short.  Every item is
checked by its oracle.  Prints the end-to-end metrics, with item and
set-up times scaled to a nominal machine speed (see ``ItemClock``).

Traced (``--trace 1``): wraps every layer, builds pass 0 and runs it once
traced, then unwraps and reruns pass 0 untraced until ``--seconds`` have
gone by, for the tracing overhead.  Prints the per-layer metrics.

The second-to-last line of output is ``record {...}``: the full result,
with the pass-0 output digest, oracle counts, git SHA, kernel backend,
nproc, Python version and seed.  The last line is the result object
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0 only
if every oracle check passed.
"""

import argparse
import collections
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")
SETUP_SAMPLES = 7
SETUP_PROBES = 3
PROBE_NOMINAL_S = 2e-4
PROBE_WINDOW = 5
CHILD_TIMEOUT_S = 120

END_TO_END = (("items_per_s", "1/s"), ("item_ms_p50", "ms"),
              ("item_ms_p90", "ms"), ("peak_rss_mb", "MB"), ("setup_s", "s"))


def load_hypersem():
    """Import hypersem from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "hypersem", "__init__.py")):
        sys.exit(f"error: no hypersem package under {SRC}")
    sys.path.insert(0, SRC)
    import hypersem
    import hypersem.cli  # noqa: F401  (CLI setup is part of set-up time)

    where = os.path.realpath(hypersem.__file__)
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        sys.exit(f"error: imported hypersem from {where}, not {SRC}")
    return hypersem


def battery_seed(seed, pass_index):
    return seed * 1_000_003 + pass_index


def git_sha():
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.isfile(ref_file):
            with open(ref_file, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


class _Untraced:
    setup = engine = oracle = contextlib.nullcontext()


def _probe_work():
    """Fixed pure-Python work (bit loops, tuple-keyed dict, frozenset
    hashing, a keyed sort) that no hypersem change can speed up."""
    seen = {}
    acc = 0
    for i in range(100):
        m = (i * 2654435761) & 0x3FF
        while m:
            low = m & -m
            acc ^= low.bit_length()
            m ^= low
        key = (i & 15, acc & 7)
        seen[key] = seen.get(key, 0) + 1
        acc += hash(frozenset((i, acc & 31))) & 0xFF
    return acc + len(sorted(seen, key=lambda k: (seen[k], k)))


def time_probe():
    t0 = time.perf_counter()
    _probe_work()
    return time.perf_counter() - t0


def at_nominal_speed(seconds, probe_times):
    """Scale a wall time to a machine where the probe takes PROBE_NOMINAL_S."""
    return seconds * PROBE_NOMINAL_S / statistics.median(probe_times)


class ItemClock:
    """Per-item times, in wall seconds and at the nominal machine speed.

    A shared machine's speed drifts by tens of percent over seconds.  So
    a fixed probe is timed after every item, and each item's wall time is
    scaled by PROBE_NOMINAL_S over the median of the last PROBE_WINDOW
    probe times: the item time on a machine where the probe takes
    PROBE_NOMINAL_S.  Only hypersem changes move the scaled times; the
    wall times are kept in the record as well.
    """

    def __init__(self):
        self.wall = []
        self.scaled = []
        self.probes = []
        self._recent = collections.deque(maxlen=PROBE_WINDOW)
        self._probe()

    def _probe(self):
        d = time_probe()
        self.probes.append(d)
        self._recent.append(d)

    def record(self, seconds):
        self._probe()
        self.wall.append(seconds)
        self.scaled.append(at_nominal_speed(seconds, self._recent))


def run_pass(wl, items, roles, digest, totals, clock=None, on_item=None):
    """Run and check every item of one pass; returns the pass wall time."""
    perf = time.perf_counter
    stage = getattr(wl, "stage", None)
    t_pass = perf()
    for item in items:
        if stage is not None:
            stage(item)
        t0 = perf()
        try:
            ok, checks, payload, stats = wl.run_item(item, roles)
        except Exception as exc:  # an item that raises is a failed item
            traceback.print_exc()
            ok, checks, payload, stats = False, 1, repr(exc), None
        t_item = perf() - t0
        if clock is not None:
            clock.record(t_item)
        totals["items"] += 1
        totals["checks"] += checks
        totals["failed"] += not ok
        if stats is not None:
            totals["solves"] += stats.demand_loops_solved
            totals["queries"] += stats.queries_solved
            totals["updates"] += stats.value_updates
            totals["cross_checks"] += stats.cross_checks
        if digest is not None:
            digest.update(payload if isinstance(payload, bytes)
                          else repr(payload).encode())
        if on_item is not None:
            on_item()
    return perf() - t_pass


def _new_totals():
    return dict.fromkeys(("items", "checks", "failed", "solves", "queries",
                          "updates", "cross_checks"), 0)


def _item_metrics(times):
    p90 = statistics.quantiles(times, n=10)[8] if len(times) > 1 else times[0]
    return {"items_per_s": len(times) / sum(times),
            "item_ms_p50": statistics.median(times) * 1e3,
            "item_ms_p90": p90 * 1e3}


def setup_samples(args, own_setup):
    """Set-up times (wall, at nominal speed) of fresh processes: this one
    plus SETUP_SAMPLES - 1 children run one after another."""
    samples = [own_setup]
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--scale", repr(args.scale)]
    for _ in range(SETUP_SAMPLES - 1):
        res = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=CHILD_TIMEOUT_S, check=True, cwd=ROOT)
        wall, scaled = res.stdout.split()[-2:]
        samples.append((float(wall), float(scaled)))
    return samples


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="multiply every battery's program count (tests)")
    ap.add_argument("--spans", help="traced run: write every span to this "
                                    "tab-separated file")
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    # set-up is timed from here, with probes before and after it
    setup_start = ([time_probe() for _ in range(SETUP_PROBES)],
                   time.perf_counter())
    hypersem = load_hypersem()
    import tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {', '.join(WORKLOADS)}")
    workdir = os.path.join(WORK, str(os.getpid()))
    try:
        return _run(args, hypersem, tracing, WORKLOADS[args.workload],
                    workdir, setup_start)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)


def _run(args, hypersem, tracing, wl_cls, workdir, setup_start):
    wl = wl_cls(args.scale, workdir)
    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    with (tracer.setup if tracer else contextlib.nullcontext()):
        items0 = wl.build(battery_seed(args.seed, 0))
    probes, t_setup = setup_start
    setup_wall = time.perf_counter() - t_setup
    probes += [time_probe() for _ in range(SETUP_PROBES)]
    own_setup = (setup_wall, at_nominal_speed(setup_wall, probes))
    if args.setup_only:
        print(*map(repr, own_setup))
        return 0

    totals = _new_totals()
    digest = hashlib.blake2b(digest_size=16)
    perf = time.perf_counter
    if tracer is None:
        setup = setup_samples(args, own_setup)
        clock = ItemClock()
        t_start = perf()
        pass_index = 0
        items = items0
        while True:
            run_pass(wl, items, _Untraced, digest if pass_index == 0 else None,
                     totals, clock)
            if pass_index == 0:
                pass0_digest = digest.hexdigest()
            pass_index += 1
            if perf() - t_start >= args.seconds:
                break
            items = wl.build(battery_seed(args.seed, pass_index))
        metrics = dict(_item_metrics(clock.scaled),
                       peak_rss_mb=resource.getrusage(
                           resource.RUSAGE_SELF).ru_maxrss / 1024,
                       setup_s=statistics.median(s for _, s in setup))
        units = dict(END_TO_END)
        wall_setup_s = statistics.median(w for w, _ in setup)
        extra = {"passes": pass_index,
                 "wall": dict(_item_metrics(clock.wall), setup_s=wall_setup_s),
                 "setup_samples": setup,
                 "probe_ms_median": statistics.median(clock.probes) * 1e3}
    else:
        pass_totals = _new_totals()
        traced_s = run_pass(wl, items0, tracer, digest, pass_totals,
                            on_item=tracer.end_item)
        pass0_digest = digest.hexdigest()
        tracer.uninstall()
        totals = dict(pass_totals)
        untraced = []
        t_start = perf()
        while True:
            check = hashlib.blake2b(digest_size=16)
            untraced.append(run_pass(wl, items0, _Untraced, check, totals))
            if check.hexdigest() != pass0_digest:
                totals["failed"] += 1  # tracing changed an output
            if perf() - t_start >= args.seconds:
                break
        overhead = traced_s / statistics.median(untraced)
        metrics = tracer.metrics(pass_totals, overhead)
        units = dict(tracing.layer_metrics())
        extra = {"untraced_passes": len(untraced), "traced_pass_s": traced_s,
                 "untraced_pass_s": untraced}
        if args.spans:
            tracer.dump_spans(args.spans)

    correct = totals["failed"] == 0
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "scale": args.scale,
        "git_sha": git_sha(), "backend": hypersem.kernel_backend(),
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "items_per_pass": len(items0), "items": totals["items"],
        "digest": pass0_digest,
        "oracle": {"items": totals["items"], "checks": totals["checks"],
                   "failed": totals["failed"]},
        "fail_frac": totals["failed"] / totals["items"],
        "metrics": metrics, "units": units, **extra,
    }
    result = {"correct": correct, "attempted": totals["items"],
              "failed": totals["failed"],
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in metrics.items()}}
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
