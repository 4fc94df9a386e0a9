"""README transcripts: every `$ pointnull` line replays to the output shown.

A transcript is a `$ pointnull ...` line inside a fenced block and the lines
under it, up to the next `$` line or the fence. The command runs in-process
through cli.main with the terminal width pinned, as the golden corpus does.
A `...` line in a transcript stands for any run of output lines, including
none; every other line must be the real output line.
"""

import re
import shlex
from pathlib import Path

import pytest
from test_golden import capture

README = Path(__file__).parent.parent / "README.md"


def transcripts(text: str) -> list[tuple[str, list[str]]]:
    found = []
    fenced, current = False, None
    for line in text.splitlines():
        if line.startswith("```"):
            fenced = not fenced
            current = None
        elif fenced and line.startswith("$ "):
            current = [] if line.startswith("$ pointnull ") else None
            if current is not None:
                found.append((line[2:], current))
        elif fenced and current is not None:
            current.append(line)
    return found


def pattern(lines: list[str]) -> str:
    return "".join(r"(?:.*\n)*" if line == "..." else re.escape(line) + "\n" for line in lines)


TRANSCRIPTS = transcripts(README.read_text("utf-8"))


def test_readme_has_the_transcripts():
    assert len(TRANSCRIPTS) == 10


@pytest.mark.parametrize("command, shown", TRANSCRIPTS, ids=[c for c, _ in TRANSCRIPTS])
def test_transcript_is_the_real_output(command, shown, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    got = capture(shlex.split(command)[1:])
    assert (got["code"], got["stderr"]) == (0, "")
    assert re.fullmatch(pattern(shown), got["stdout"]), got["stdout"]
