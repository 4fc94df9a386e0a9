"""Start-up guard: the closed forms load neither numpy nor statistics.

numpy is imported inside the sweep functions and statistics inside
std_normal_quantile, so a module-level import of either puts its load time
back on every closed-form call. Each case runs in a fresh interpreter,
since this test process has long since imported both.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pointnull

SRC = str(Path(pointnull.__file__).resolve().parents[1])
WATCHED = ("numpy", "statistics")


def loaded_after(code: str) -> list[str]:
    """The watched modules present in sys.modules after code runs in a fresh
    interpreter, read from the last stdout line."""
    probe = f"{code}\nimport sys\nprint(json.dumps([m for m in {WATCHED!r} if m in sys.modules]))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", "import json\n" + probe],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def after_main(argv: list[str]) -> list[str]:
    return loaded_after(f"from pointnull import cli\nassert cli.main({argv!r}) == 0")


@pytest.mark.parametrize("module", ["pointnull", "pointnull.cli"])
def test_import_loads_neither(module):
    assert loaded_after(f"import {module}") == []


@pytest.mark.parametrize(
    "argv",
    [
        ["report", "--t", "1.96", "--n", "16818"],
        ["paradox", "--t", "1.96"],
        ["binomial", "--n", "527135", "--x", "106298", "--theta0", "0.2"],
        ["score", "--rule", "hyvarinen", "--t", "1.5", "--n", "40", "--alt", "flat"],
        ["paper-check"],
    ],
    ids=lambda argv: argv[0],
)
def test_closed_form_subcommand_loads_neither(argv):
    assert after_main(argv) == []


def test_severity_loads_statistics_only():
    # std_normal_quantile, severity's level-to-z step, is statistics' one user
    assert after_main(["severity", "--n", "100", "--xbar", "0.2"]) == ["statistics"]


@pytest.mark.parametrize("kind", ["consistency", "score-consistency", "uniformity"])
def test_simulate_loads_numpy(kind):
    argv = ["simulate", "--kind", kind, "--reps", "100", "--n-grid", "10,100"]
    assert "numpy" in after_main(argv)


def test_rng_stream_works_after_a_bare_import():
    code = "import pointnull\nassert pointnull.RngStream(1).normals(3).shape == (3,)"
    assert "numpy" in loaded_after(code)
