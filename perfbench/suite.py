#!/usr/bin/env python3
"""Run every benchmark workload, or compare two saved sets of results.

    python3 perfbench/suite.py run [--seeds 0 1 ...] [--seconds S] [--trace]
                                   [--out FILE]
    python3 perfbench/suite.py compare BASE.json NEW.json

``run`` starts one fresh ``run.py`` process per workload and seed, prints
every end-to-end metric by name with its unit (the median over the seeds
given), plus the failure fraction, item count and output digest, and exits
1 if any oracle check failed.  With ``--trace`` it prints the per-layer
table instead, the tracing overhead included.  ``--out`` saves the full
records as JSON.

``compare`` refuses results taken on different kernel backends.  It checks
that outputs are bit-identical (the same digest for the same workload,
seed, scale and trace mode) and, for traced results, that every count is
equal; then it compares each end-to-end metric's median against the bound
in BENCHMARK.json.  It exits 1 on a digest or count mismatch or a metric
worse than its bound.

Run from the root of a checkout.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 900


def contract():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_one(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(int(trace))]
    res = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                         timeout=RUN_TIMEOUT_S)
    records = [line[len("record "):] for line in res.stdout.splitlines()
               if line.startswith("record ")]
    if not records:
        sys.stderr.write(res.stderr)
        raise SystemExit(f"error: {workload} seed {seed} produced no result "
                         f"(exit {res.returncode})")
    record = json.loads(records[-1])
    record["exit_code"] = res.returncode
    return record


def _num(v):
    if isinstance(v, str):
        return v
    if isinstance(v, int) or float(v).is_integer():
        return f"{int(v)}"
    return f"{v:.6g}"


def _table(rows, workloads):
    width = max(len(r[0]) for r in rows) + 2
    print(f"{'':<{width}}" + "".join(f"{w:>16}" for w in workloads))
    for label, cells in rows:
        print(f"{label:<{width}}" + "".join(f"{_num(c):>16}" for c in cells))


def cmd_run(args):
    spec = contract()
    names = [w["name"] for w in spec["workloads"]]
    records = [run_one(w, s, args.seconds, args.trace)
               for w in names for s in args.seeds]
    by_wl = {w: [r for r in records if r["workload"] == w] for w in names}
    first = records[0]
    print(f"backend={first['backend']} git={first['git_sha'][:12]} "
          f"nproc={first['nproc']} python={first['python']} "
          f"seeds={args.seeds} seconds={args.seconds}")
    metric_names = list(first["units"])
    rows = []
    for m in metric_names:
        label = f"{m} ({first['units'][m]})"
        rows.append((label, [statistics.median(r["metrics"][m]
                                               for r in by_wl[w])
                             for w in names]))
    rows.append(("fail_frac (ratio)",
                 [max(r["fail_frac"] for r in by_wl[w]) for w in names]))
    rows.append(("items (count)",
                 [sum(r["items"] for r in by_wl[w]) for w in names]))
    rows.append(("digest seed " + str(args.seeds[0]),
                 [by_wl[w][0]["digest"][:12] for w in names]))
    _table(rows, names)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"runs": records}, fh, indent=1, sort_keys=True)
    failed = [f"{r['workload']} seed {r['seed']}" for r in records
              if r["exit_code"] != 0 or r["oracle"]["failed"]]
    if failed:
        print("oracle failures: " + ", ".join(failed))
        return 1
    return 0


def _load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["runs"]


def cmd_compare(args):
    base, new = _load(args.base), _load(args.new)
    backends = {r["backend"] for r in base} | {r["backend"] for r in new}
    if len(backends) != 1:
        print(f"refusing to compare results from different kernel backends: "
              f"{sorted(backends)}")
        return 2
    bad = 0

    def key(r):
        return (r["workload"], r["seed"], r["scale"], r["trace"])

    new_by_key = {key(r): r for r in new}
    for b in base:
        n = new_by_key.get(key(b))
        if n is None:
            continue
        label = "{} seed {} trace {}".format(b["workload"], b["seed"],
                                             b["trace"])
        if b["digest"] != n["digest"]:
            print(f"{label}: outputs differ ({b['digest']} vs {n['digest']})")
            bad += 1
        counts = [m for m, u in b["units"].items()
                  if u == "count" and b["metrics"][m] != n["metrics"][m]]
        for m in counts:
            print(f"{label}: {m} {b['metrics'][m]} -> {n['metrics'][m]}")
        bad += len(counts)

    spec = contract()
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        lower = metric["better"] == "lower"
        for wl in [w["name"] for w in spec["workloads"]]:
            b_vals = [r["metrics"][name] for r in base
                      if r["workload"] == wl and name in r["metrics"]]
            n_vals = [r["metrics"][name] for r in new
                      if r["workload"] == wl and name in r["metrics"]]
            if not b_vals or not n_vals:
                continue
            b_med, n_med = statistics.median(b_vals), statistics.median(n_vals)
            change = (n_med - b_med) / b_med
            worse = change if lower else -change
            verdict = "worse than bound" if worse > bound else "within bound"
            bad += worse > bound
            print(f"{wl:<8}{name:<14}{b_med:>12.6g}{n_med:>12.6g}"
                  f"{change:>+9.1%}  bound {bound:.0%}  {verdict} "
                  f"(runs {len(b_vals)} vs {len(n_vals)})")
    return 1 if bad else 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("run", help="run every workload and print the metrics")
    p.add_argument("--seeds", type=int, nargs="+", default=[0])
    p.add_argument("--seconds", type=float,
                   default=None, help="default: run_seconds in BENCHMARK.json")
    p.add_argument("--trace", action="store_true",
                   help="traced runs: print the per-layer metrics")
    p.add_argument("--out", help="write every record to this JSON file")
    p = sub.add_parser("compare", help="compare two files written by --out")
    p.add_argument("base")
    p.add_argument("new")
    args = ap.parse_args(argv)
    if args.cmd == "run":
        if args.seconds is None:
            args.seconds = contract()["run_seconds"]
        return cmd_run(args)
    return cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())
