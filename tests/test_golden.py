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
import re
from pathlib import Path

import pytest

from pointnull.cli import _SUBCOMMANDS, main

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


# The one wording of a value beyond the doubles: the quantity, the record
# fields it comes from, and its log10 size.
BEYOND = re.compile(
    r"error: (.+) from ((?:\w+, )*(?:\w+ and )?\w+) lies beyond the largest double, at 10\^(\S+)\n"
)
# Fields no flag of their own name sets: report's and score's t may come from
# --xbar, and a severity row's theta1 comes from the grid.
UNFLAGGED = {("report", "t"), ("score", "t"), ("severity", "theta1")}
REFUSALS = [c for c in CASES if "largest double" in c["stderr"]]


@pytest.mark.parametrize("case", REFUSALS, ids=[" ".join(c["argv"]) for c in REFUSALS])
def test_refusal_beyond_the_doubles_names_fields_the_call_sets(case):
    # each field maps to its subcommand's flag, -- + name with - for _, which
    # the call passed or whose default the quantity reads
    assert case["code"] == 2 and (match := BEYOND.fullmatch(case["stderr"])), case["stderr"]
    command, given = case["argv"][0], case["argv"][1:]
    defaults = {}
    for entry in _SUBCOMMANDS[command][2]:
        group = entry[1:] if isinstance(entry[0], bool) else (entry,)
        defaults.update((flag[0], flag[2]) for flag in group)
    for field in re.split(r", | and ", match[2]):
        if (command, field) in UNFLAGGED:
            continue
        flag = "--" + field.replace("_", "-")
        assert flag in defaults, (field, command)
        passed = any(token == flag or token.startswith(flag + "=") for token in given)
        assert passed or defaults[flag] is not None, (field, given)
