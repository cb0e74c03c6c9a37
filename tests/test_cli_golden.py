"""Golden CLI corpus: every recorded invocation replays byte-identical.

``cli_golden.json`` holds, for each argv, the exit code and the sha256 of
stdout and of stderr, recorded by ``tests/record_cli_golden.py``.  This
test replays every entry in-process through ``zhangliu.cli.main`` and never
re-records the manifest; an intended output change re-runs the script and
names the entries it changed.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

from zhangliu.cli import main

MANIFEST = Path(__file__).with_name("cli_golden.json")

# argparse wraps its usage and error text to the terminal width
COLUMNS = "80"


def capture(argv: list[str]) -> dict:
    """Run the CLI on argv in-process; the exit code and output digests."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    digest = lambda s: hashlib.sha256(s.encode()).hexdigest()  # noqa: E731
    return {"argv": list(argv), "exit": code, "stdout": digest(out.getvalue()), "stderr": digest(err.getvalue())}


def test_every_golden_entry_replays_byte_identical(monkeypatch):
    monkeypatch.setenv("COLUMNS", COLUMNS)
    entries = json.loads(MANIFEST.read_text())
    changed = [" ".join(e["argv"]) for e in entries if capture(e["argv"]) != e]
    assert not changed, f"{len(changed)} of {len(entries)} entries changed, first: {changed[:5]}"
