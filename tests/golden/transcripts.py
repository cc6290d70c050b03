"""Golden CLI transcripts: a fixed list of ``hypersem`` commands and what
each printed when the list was last recorded.

Each entry of ``cli.json`` holds a command's argv, exit code, stdout and
stderr.  An output of more than ``SHORT`` lines is stored as its line
count, first line and SHA-256, so the file stays small and a change still
shows.  ``tests/test_golden.py`` replays every entry through
``hypersem.cli.main``.  To re-record after an intended output change, run
from the root of a checkout

    PYTHONPATH=src python tests/golden/transcripts.py

which rewrites ``cli.json`` and prints the diff against the old file.
"""

import contextlib
import difflib
import hashlib
import io
import json
import os
import pathlib
import sys

from hypersem.cli import main

ROOT = pathlib.Path(__file__).resolve().parents[2]
GOLDEN = pathlib.Path(__file__).with_name("cli.json")
SHORT = 4

# the loop programs' queries: one root, two roots with separate paths, two
# roots where the second lies on the first's path, and one that is not
# subset closed
_QUERIES = {
    "programs/loop.imp": ("[[],[{x=2}]]", "[[],[{x=2}],[{x=5}]]",
                          "[[],[{x=2}],[{x=3}]]", "[[{x=2}],[{x=5}]]"),
    "programs/cycle.imp": (
        "[[],[{x=0,y=0}]]", "[[],[{x=0,y=0}],[{x=2,y=0}]]",
        "[[],[{x=0,y=0}],[{x=1,y=0}],[{x=1,y=1}],[{x=1,y=0},{x=1,y=1}]]",
        "[[{x=0,y=0},{x=1,y=0}]]"),
}


def commands():
    """Every recorded argv, in file order."""
    for path in sorted(p.relative_to(ROOT).as_posix()
                       for p in (ROOT / "programs").glob("*.imp")):
        yield ["parse", path]
        yield ["check-ni", path, "--form", "all"]
        yield ["psc", path]
    for path, queries in _QUERIES.items():
        for variant in ("paper", "naive", "otimes"):
            for q in queries:
                yield ["eval", path, "--level", "hyper", "--variant", variant,
                       "--input", q]
                yield ["eval", path, "--level", "hyper", "--variant", variant,
                       "--antichain", "--no-strict-ssc", "--input", q]
                yield ["iterates", path, "--variant", variant, "--query", q,
                       "--steps", "4"]
    for seed in ("0", "3"):
        for size in ("4", "6", "8"):
            for extra in ([], ["--cross-check"]):
                yield ["diff", "--thm1", *extra, "--trials", "5",
                       "--seed", seed, "--size", size]
    yield ["diff", "--prop1"]
    yield ["diff", "--search", "ssc-necessity"]


def _text(s):
    """An output as stored: itself when short, else its digest."""
    lines = s.splitlines()
    if len(lines) <= SHORT:
        return s
    return {"lines": len(lines), "first": lines[0],
            "sha256": hashlib.sha256(s.encode()).hexdigest()}


def record(argv):
    """One entry: run argv through ``main`` from the checkout's root."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(list(argv))
            except SystemExit as exc:  # argparse's usage errors
                code = exc.code
    finally:
        os.chdir(cwd)
    return {"argv": list(argv), "exit": code, "stdout": _text(out.getvalue()),
            "stderr": _text(err.getvalue())}


def dump(entries):
    return json.dumps(entries, indent=1, ensure_ascii=False) + "\n"


if __name__ == "__main__":
    old = GOLDEN.read_text(encoding="utf-8") if GOLDEN.exists() else ""
    new = dump([record(argv) for argv in commands()])
    GOLDEN.write_text(new, encoding="utf-8")
    sys.stdout.writelines(difflib.unified_diff(
        old.splitlines(True), new.splitlines(True), "cli.json (old)",
        "cli.json (new)"))
