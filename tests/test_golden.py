"""Golden-bytes gate: recorded CLI invocations replayed byte for byte.

Each case in golden/cli_cases.json is an argv with the stdout, stderr and
exit code that ``pointnull`` produced for it. The replay runs in-process
through cli.main with the terminal width pinned, since argparse wraps its
usage lines to the width it finds. A case changes only as a deliberate
correction named in CHANGES.md; to add one, append its argv with the
outputs ``capture`` returns for it.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from pointnull.cli import main

CASES = json.loads((Path(__file__).parent / "golden" / "cli_cases.json").read_text("utf-8"))


def capture(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"argv": list(argv), "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.mark.parametrize("case", CASES, ids=[" ".join(c["argv"]) or "<none>" for c in CASES])
def test_golden(case, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert capture(case["argv"]) == case


def test_corpus_covers_every_subcommand_format_and_exit_code():
    commands = ("report", "paradox", "severity", "binomial", "score", "simulate", "paper-check")
    ok = [c["argv"] for c in CASES if c["code"] == 0]
    for command in commands:
        for fmt in ("json", "csv", "table"):
            assert any(a[0] == command and fmt in a for a in ok), (command, fmt)
    assert {c["code"] for c in CASES} == {0, 1, 2}
