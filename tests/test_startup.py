"""Start-up guard: a closed-form call loads only what its subcommand runs.

numpy is imported inside the sweep functions, statistics inside
std_normal_quantile and json inside render_json, so a module-level import
of any of them puts its load time back on calls that never use it. The
records are plain classes, so no call loads dataclasses or the inspect
machinery it pulls in. The package namespace and cli's library names are
lazy: ``import pointnull`` loads no submodule, and each call loads only the
modules its handler binds. Each case runs in a fresh interpreter, since
this test process has long since imported everything.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import pointnull

SRC = str(Path(pointnull.__file__).resolve().parents[1])
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
WATCHED = ("numpy", "statistics", "dataclasses", "inspect")
SUBMODULES = tuple(
    f"pointnull.{name}"
    for name in ("_record", "numerics", "normal", "binomial", "paradox", "severity", "scores", "cli")
)
CLOSED_FORM = [
    ["report", "--t", "1.96", "--n", "16818"],
    ["paradox", "--t", "1.96"],
    ["severity", "--n", "100", "--xbar", "0.2"],
    ["binomial", "--n", "527135", "--x", "106298", "--theta0", "0.2"],
    ["score", "--rule", "hyvarinen", "--t", "1.5", "--n", "40", "--alt", "flat"],
    ["paper-check"],
]


def simulate_argv(kind: str) -> list[str]:
    return ["simulate", "--kind", kind, "--reps", "100", "--n-grid", "10,100"]


# The library modules each call loads beyond cli, the record helper, numerics
# and normal, which every library module builds on: report loads none of
# paradox, scores, severity and binomial, and only a score-consistency
# sweep loads scores.
OWN_MODULES = {
    "report": (CLOSED_FORM[0], ()),
    "paradox": (CLOSED_FORM[1], ("paradox",)),
    "severity": (CLOSED_FORM[2], ("severity",)),
    "binomial": (CLOSED_FORM[3], ("binomial",)),
    "score": (CLOSED_FORM[4], ("scores",)),
    "paper-check": (CLOSED_FORM[5], ("binomial", "paradox", "scores")),
    "simulate-uniformity": (simulate_argv("uniformity"), ("paradox",)),
    "simulate-consistency": (simulate_argv("consistency"), ("paradox",)),
    "simulate-score-consistency": (simulate_argv("score-consistency"), ("paradox", "scores")),
}


def loaded_after(code: str, watched: tuple[str, ...] = WATCHED) -> list[str]:
    """The watched modules present in sys.modules after code runs in a fresh
    interpreter, read from the last stdout line (space-separated, so the
    probe itself imports nothing)."""
    probe = f"{code}\nimport sys\nprint(' '.join(m for m in {watched!r} if m in sys.modules))"
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        env=ENV,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1].split()


def after_main(argv: list[str], watched: tuple[str, ...] = WATCHED) -> list[str]:
    return loaded_after(f"from pointnull import cli\nassert cli.main({argv!r}) == 0", watched)


def imported_by_module_run(argv: list[str]) -> set[str]:
    """The modules a ``python -m pointnull.cli`` process imports with an import
    statement, as the benchmark runs it, read from -X importtime so the
    process runs unaltered. (importlib.import_module calls go unlogged.)"""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "pointnull.cli", *argv],
        env=ENV,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    lines = [line for line in proc.stderr.splitlines() if line.startswith("import time:")]
    return {line.rpartition("|")[2].strip() for line in lines}


@pytest.mark.parametrize("module", ["pointnull", "pointnull.cli"])
def test_import_loads_neither(module):
    assert loaded_after(f"import {module}") == []


@pytest.mark.parametrize("argv", [a for a in CLOSED_FORM if a[0] != "severity"], ids=lambda a: a[0])
def test_closed_form_subcommand_loads_neither(argv):
    assert after_main(argv) == []


@pytest.mark.parametrize("argv", CLOSED_FORM, ids=lambda a: a[0])
def test_closed_form_module_run_loads_no_dataclasses(argv):
    imported = imported_by_module_run(argv)
    assert "pointnull.numerics" in imported  # the probe sees the library's imports
    assert imported.isdisjoint({"dataclasses", "inspect"})


def test_package_import_loads_no_submodule():
    assert loaded_after("import pointnull", SUBMODULES) == []


@pytest.mark.parametrize("argv, own", OWN_MODULES.values(), ids=list(OWN_MODULES))
def test_subcommand_loads_only_its_table_modules(argv, own):
    expected = {"pointnull.cli", "pointnull._record", "pointnull.numerics", "pointnull.normal"}
    expected |= {f"pointnull.{name}" for name in own}
    assert set(after_main(argv, SUBMODULES)) == expected


def test_severity_loads_statistics_only():
    # std_normal_quantile, severity's level-to-z step, is statistics' one user
    assert after_main(["severity", "--n", "100", "--xbar", "0.2"]) == ["statistics"]


@pytest.mark.parametrize("kind", ["consistency", "score-consistency", "uniformity"])
def test_simulate_loads_numpy(kind):
    assert "numpy" in after_main(simulate_argv(kind))


def test_rng_stream_works_after_a_bare_import():
    code = "import pointnull\nassert pointnull.RngStream(1).normals(3).shape == (3,)"
    assert "numpy" in loaded_after(code)


@pytest.mark.parametrize("fmt, loaded", [("csv", []), ("table", []), ("json", ["json"])])
def test_only_json_output_loads_json(fmt, loaded):
    argv = ["report", "--t", "1.96", "--n", "16818", "--format", fmt]
    assert after_main(argv, watched=("json",)) == loaded
