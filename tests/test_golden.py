"""Replay the golden CLI transcripts of ``tests/golden/cli.json``."""

import json

from golden.transcripts import GOLDEN, commands, dump, record


def test_golden_transcripts_replay():
    entries = json.loads(GOLDEN.read_text(encoding="utf-8"))
    # the file records exactly the command list, in order
    assert [e["argv"] for e in entries] == list(commands())
    changed = [e for e in entries if record(e["argv"]) != e]
    assert not changed, (
        f"{len(changed)} of {len(entries)} transcripts changed, first:\n"
        + dump([changed[0], record(changed[0]["argv"])]))
