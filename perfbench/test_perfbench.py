"""The benchmark's own checks; run with ``python -m pytest perfbench -q``.

Every workload runs at a tiny size, twice untraced and twice traced, in
fresh processes: outputs (digests) and every count must repeat exactly,
and no oracle may fail.  A deliberately wrong oracle result must be counted
and must make the run exit non-zero.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import suite  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = [w["name"] for w in suite.contract()["workloads"]]
TINY = "0.03"


def bench(workload, trace, *extra, cwd=ROOT, script=None):
    cmd = [sys.executable, script or os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", "3", "--seconds", "0",
           "--trace", str(trace), "--scale", TINY, *extra]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd,
                          timeout=300)


def parse(res):
    lines = res.stdout.splitlines()
    assert lines[-2].startswith("record "), res.stdout + res.stderr
    return json.loads(lines[-2][len("record "):]), json.loads(lines[-1])


def counts(record):
    return {m: v for m, v in record["metrics"].items()
            if record["units"][m] == "count"}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_runs_repeat_exactly(workload):
    runs = {t: [parse(bench(workload, t)) for _ in range(2)] for t in (0, 1)}
    for (record, result) in runs[0] + runs[1]:
        assert result["correct"] and result["failed"] == 0
        assert record["fail_frac"] == 0
        assert result["attempted"] >= 1
    digests = {r["digest"] for r, _ in runs[0] + runs[1]}
    assert len(digests) == 1, "outputs changed between runs or under tracing"
    (t1, _), (t2, _) = runs[1]
    assert counts(t1) == counts(t2)
    assert counts(t1)["trace.spans"] > 0
    end_to_end = dict(run.END_TO_END)
    for record, result in runs[0]:
        assert set(result["metrics"]) == set(end_to_end)
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert set(runs[1][0][1]["metrics"]) == {n for n, _ in
                                             tracing.layer_metrics()}


@pytest.mark.parametrize("workload, target, attr", [
    ("thm1", "hypersem.harness", "lift_family"),
    ("ni_cli", "hypersem.cli", "ni_hyper"),
])
def test_wrong_oracle_result_fails_the_run(workload, target, attr,
                                           monkeypatch, capsys):
    run.load_hypersem()
    from hypersem.family import FamilySet
    from hypersem.noninterference import NIVerdict

    wrong = {"lift_family": lambda tr, fam: FamilySet.empty(),
             "ni_hyper": lambda *a, **k: NIVerdict(True)}[attr]
    monkeypatch.setattr(sys.modules[target], attr, wrong)
    code = run.main(["--workload", workload, "--seed", "0", "--seconds", "0",
                     "--trace", "0", "--scale", "0.1"])
    lines = capsys.readouterr().out.splitlines()
    record = json.loads(lines[-2][len("record "):])
    result = json.loads(lines[-1])
    assert code == 1
    assert not result["correct"]
    assert result["failed"] > 0
    assert record["fail_frac"] == result["failed"] / result["attempted"]


def test_spans_file_gives_the_reported_self_times(tmp_path):
    spans = tmp_path / "spans.tsv"
    record, _ = parse(bench("nondet", 1, "--spans", str(spans)))
    rows = [line.split("\t") for line in spans.read_text().splitlines()[1:]]
    child = [0.0] * len(rows)
    self_s = {}
    calls = {}
    for i in range(len(rows) - 1, -1, -1):
        _, parent, name, start, end = rows[i]
        d = float(end) - float(start)
        if int(parent) >= 0:
            child[int(parent)] += d
        self_s[name] = self_s.get(name, 0.0) + d - child[i]
        calls[name] = calls.get(name, 0) + 1
    assert len(rows) == record["metrics"]["trace.spans"]
    for name in ("hyper.eval.If", "family.downset", "kernels.maximal_sets",
                 "transformer.apply"):
        assert calls[name] == record["metrics"][f"{name}.calls"]
        assert self_s[name] == pytest.approx(
            record["metrics"][f"{name}.self_s"], rel=1e-6)


def test_contract_lists_the_metrics_the_runs_print():
    spec = suite.contract()
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == (
        tracing.layer_metrics())
    run.load_hypersem()
    from workloads import WORKLOADS as defined
    assert WORKLOADS == list(defined)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "_work"))
    res = bench("thm1", 0, cwd=tmp_path,
                script=str(tmp_path / "perfbench" / "run.py"))
    assert res.returncode != 0
    assert '"correct"' not in res.stdout


def test_compare_refuses_mixed_backends(tmp_path, capsys):
    paths = []
    for backend in ("pure", "native"):
        p = tmp_path / f"{backend}.json"
        p.write_text(json.dumps({"runs": [{"backend": backend}]}))
        paths.append(str(p))
    assert suite.main(["compare", *paths]) == 2
    assert "different kernel backends" in capsys.readouterr().out
