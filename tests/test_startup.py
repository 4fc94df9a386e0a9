"""Start-up guard: the closed forms load neither numpy nor statistics.

numpy is imported inside the sweep functions, statistics inside
std_normal_quantile and json inside render_json, so a module-level import
of any of them puts its load time back on calls that never use it. Each
case runs in a fresh interpreter, since this test process has long since
imported all three.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import pointnull

SRC = str(Path(pointnull.__file__).resolve().parents[1])
WATCHED = ("numpy", "statistics")


def loaded_after(code: str, watched: tuple[str, ...] = WATCHED) -> list[str]:
    """The watched modules present in sys.modules after code runs in a fresh
    interpreter, read from the last stdout line (space-separated, so the
    probe itself imports nothing)."""
    probe = f"{code}\nimport sys\nprint(' '.join(m for m in {watched!r} if m in sys.modules))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1].split()


def after_main(argv: list[str], watched: tuple[str, ...] = WATCHED) -> list[str]:
    return loaded_after(f"from pointnull import cli\nassert cli.main({argv!r}) == 0", watched)


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


@pytest.mark.parametrize("fmt, loaded", [("csv", []), ("table", []), ("json", ["json"])])
def test_only_json_output_loads_json(fmt, loaded):
    argv = ["report", "--t", "1.96", "--n", "16818", "--format", fmt]
    assert after_main(argv, watched=("json",)) == loaded
