"""Start-up guard: a closed-form call loads only what its subcommand runs.

numpy is imported inside the sweep functions and json inside render_json,
so a module-level import of either puts its load time back on calls that
never use it. std_normal_quantile takes NormalDist's routine from
_statistics, so no call loads statistics (with fractions and decimal). The
records are plain classes, so no call loads dataclasses or the inspect
machinery it pulls in. The package namespace and cli's library names are
lazy: ``import pointnull`` loads no submodule, and each call loads only the
modules that define the names its handler calls, and only its own handler
module. Code that only some calls run sits in a private module that loads
with its caller: the p-value sweeps' order statistics (_order_stats) and
the Hyvarinen kernel (_hyvarinen). A valid call parses from cli's flag
table without argparse. With no bytecode cache, every loaded line is
compiled on every call, so each call has a budget of loaded source lines.
Each case runs in a fresh interpreter, since this test process has long
since imported everything.
"""

import os
import statistics
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import pointnull
from pointnull.numerics import std_normal_quantile

SRC = str(Path(pointnull.__file__).resolve().parents[1])
# each process runs as the benchmark runs a call, writing no bytecode
ENV = dict(
    os.environ,
    PYTHONDONTWRITEBYTECODE="1",
    PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])),
)
WATCHED = ("numpy", "statistics", "dataclasses", "inspect")
SUBMODULES = tuple(
    f"pointnull.{name}"
    for name in (
        "_record", "numerics", "normal", "binomial", "paradox", "_order_stats", "severity",
        "scores", "_hyvarinen", "cli",
    )
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


# A valid call parses from cli's flag table; argparse, and the gettext and
# locale it loads, are for help and usage errors only.
PARSER_MODULES = ("argparse", "gettext", "locale", "__future__")
VALID_CALLS = CLOSED_FORM + [simulate_argv(k) for k in ("consistency", "uniformity", "score-consistency")]


# The library modules each call loads beyond cli, the record helper and
# numerics, which every library module builds on. binomial takes p_value from
# numerics and loads no normal; report loads none of paradox, scores,
# severity and binomial; the p-value sweeps' order statistics load only for
# the consistency and uniformity sweeps, and the Hyvarinen kernel only for
# --rule hyvarinen and the score sweep, which alone of the sweeps loads scores.
OWN_MODULES = {
    "report": (CLOSED_FORM[0], ("normal",)),
    "paradox": (CLOSED_FORM[1], ("normal", "paradox")),
    "severity": (CLOSED_FORM[2], ("normal", "severity")),
    "binomial": (CLOSED_FORM[3], ("binomial",)),
    "score": (CLOSED_FORM[4], ("normal", "scores", "_hyvarinen")),
    "score-log": (
        ["score", "--rule", "log", "--t", "1.96", "--n", "100", "--tau", "1"], ("normal", "scores"),
    ),
    "paper-check": (CLOSED_FORM[5], ("normal", "binomial", "paradox", "scores")),
    "simulate-uniformity": (simulate_argv("uniformity"), ("normal", "paradox", "_order_stats")),
    "simulate-consistency": (simulate_argv("consistency"), ("normal", "paradox", "_order_stats")),
    "simulate-score-consistency": (
        simulate_argv("score-consistency"), ("normal", "paradox", "scores", "_hyvarinen"),
    ),
}

# pointnull source each call loads, summed over its loaded modules' files,
# and so compiled on every call. A budget is the measured count; it is
# lowered as code leaves a call, never raised.
SOURCE_LINES = {
    "report": 935,
    "paradox": 1251,
    "severity": 1050,
    "binomial": 802,
    "score": 1244,
    "score-log": 1172,
    "paper-check": 1671,
    "simulate-uniformity": 1454,
    "simulate-consistency": 1454,
    "simulate-score-consistency": 1592,
}


def last_line(code: str) -> str:
    """The last stdout line of code run in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=ENV,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def loaded_after(code: str, watched: tuple[str, ...] = WATCHED) -> list[str]:
    """The watched modules present in sys.modules after code runs in a fresh
    interpreter, read from the last stdout line (space-separated, so the
    probe itself imports nothing)."""
    return last_line(
        f"{code}\nimport sys\nprint(' '.join(m for m in {watched!r} if m in sys.modules))"
    ).split()


def after_main(argv: list[str], watched: tuple[str, ...] = WATCHED) -> list[str]:
    return loaded_after(f"from pointnull import cli\nassert cli.main({argv!r}) == 0", watched)


# Put on PYTHONPATH, this sitecustomize prints the pointnull modules loaded
# when the process ends, from an atexit hook, which cli's exit runs.
LOADED_AT_EXIT = """\
import atexit
import sys

atexit.register(lambda: print(*(m for m in sys.modules if m.startswith("pointnull")), file=sys.stderr))
"""


@pytest.fixture(scope="module")
def module_run(tmp_path_factory):
    """The pointnull modules a ``python -m pointnull.cli`` process of argv has
    loaded when it ends, the process run as the benchmark runs it."""
    site = tmp_path_factory.mktemp("site")
    (site / "sitecustomize.py").write_text(LOADED_AT_EXIT, "utf-8")
    env = dict(ENV, PYTHONPATH=os.pathsep.join([str(site), ENV["PYTHONPATH"]]))

    def loaded(argv: list[str]) -> set[str]:
        proc = subprocess.run(
            [sys.executable, "-m", "pointnull.cli", *argv], env=env, capture_output=True, text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        return set(proc.stderr.splitlines()[-1].split())

    return loaded


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


@pytest.mark.parametrize("argv", CLOSED_FORM, ids=lambda a: a[0])
def test_closed_form_subcommand_loads_neither(argv):
    assert after_main(argv) == []


@pytest.mark.parametrize("argv", CLOSED_FORM, ids=lambda a: a[0])
def test_closed_form_module_run_loads_no_dataclasses(argv):
    imported = imported_by_module_run(argv)
    assert "pointnull.numerics" in imported  # the probe sees the library's imports
    assert imported.isdisjoint({"dataclasses", "inspect"})


@pytest.mark.parametrize("argv", VALID_CALLS, ids=lambda a: a[0] if a[0] != "simulate" else a[2])
def test_valid_call_loads_no_argparse(argv):
    assert after_main(argv, PARSER_MODULES) == []


@pytest.mark.parametrize("argv", VALID_CALLS, ids=lambda a: a[0] if a[0] != "simulate" else a[2])
def test_valid_module_run_imports_no_argparse(argv):
    assert imported_by_module_run(argv).isdisjoint(PARSER_MODULES)


@pytest.mark.parametrize("argv, code", [(["--help"], 0), (["report", "--t", "1.96"], 2)])
def test_help_and_usage_error_load_argparse(argv, code):
    quiet = "contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO())"
    loaded = loaded_after(
        f"import contextlib, io\nfrom pointnull import cli\nwith {quiet}:\n"
        f"    assert cli.main({argv!r}) == {code}",
        PARSER_MODULES,
    )
    assert loaded == ["argparse", "gettext", "locale"]


def test_package_import_loads_no_submodule():
    assert loaded_after("import pointnull", SUBMODULES) == []


@pytest.mark.parametrize("argv, own", OWN_MODULES.values(), ids=list(OWN_MODULES))
def test_subcommand_loads_only_its_table_modules(argv, own):
    expected = {"pointnull.cli", "pointnull._record", "pointnull.numerics"}
    expected |= {f"pointnull.{name}" for name in own}
    assert set(after_main(argv, SUBMODULES)) == expected


@pytest.mark.parametrize("argv, own", OWN_MODULES.values(), ids=list(OWN_MODULES))
def test_module_run_loads_only_its_table_modules(argv, own, module_run):
    # as the in-process call above: binomial loads no normal, a log score no
    # Hyvarinen kernel, paradox no sweep engine
    expected = {"pointnull", "pointnull._record", "pointnull.numerics"}
    expected |= {f"pointnull.{name}" for name in own}
    assert {m for m in module_run(argv) if not m.startswith("pointnull.commands")} == expected


@pytest.mark.parametrize("argv", [a for a, _ in OWN_MODULES.values()], ids=list(OWN_MODULES))
def test_subcommand_loads_only_its_handler_module(argv, module_run):
    own = f"pointnull.commands.{argv[0].replace('-', '_')}"
    loaded = module_run(argv)
    assert {m for m in loaded if m.startswith("pointnull.commands.")} == {own}


@pytest.mark.parametrize("argv", [a for a, _ in OWN_MODULES.values()], ids=list(OWN_MODULES))
def test_module_run_compiles_cli_once(argv, module_run):
    # the running cli is __main__; a pointnull.cli module would be a second copy
    loaded = module_run(argv)
    assert "pointnull.numerics" in loaded and "pointnull.cli" not in loaded


@pytest.mark.parametrize("call", SOURCE_LINES)
def test_call_loads_at_most_its_source_line_budget(call):
    code = (
        "import contextlib, io, sys\n"
        "from pointnull import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main({OWN_MODULES[call][0]!r}) == 0\n"
        "mods = [m for name, m in sys.modules.items() if name.partition('.')[0] == 'pointnull']\n"
        "print(sum(len(open(m.__file__, 'rb').read().splitlines()) for m in mods))"
    )
    assert int(last_line(code)) <= SOURCE_LINES[call]


@settings(max_examples=2000, deadline=None, derandomize=True, database=None)
@given(st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True))
def test_quantile_is_normal_dist_inv_cdf_bit_for_bit(p):
    assert std_normal_quantile(p).hex() == statistics.NormalDist().inv_cdf(p).hex()


@pytest.mark.parametrize("kind", ["consistency", "score-consistency", "uniformity"])
def test_simulate_loads_numpy(kind):
    assert "numpy" in after_main(simulate_argv(kind))


@pytest.mark.parametrize("kind", ["consistency", "score-consistency", "uniformity"])
def test_simulate_loads_no_numpy_ma(kind):
    # np.median's nan check reads np.ma, whose import costs about as much as
    # a warm 3e5-replicate consistency sweep; the sweeps take medians without it
    assert after_main(simulate_argv(kind), ("numpy.ma",)) == []
    assert "numpy.ma" not in imported_by_module_run(simulate_argv(kind))


def test_rng_stream_works_after_a_bare_import():
    code = "import pointnull\nassert pointnull.RngStream(1).normals(3).shape == (3,)"
    assert "numpy" in loaded_after(code)


@pytest.mark.parametrize("fmt, loaded", [("csv", []), ("table", []), ("json", ["json"])])
def test_only_json_output_loads_json(fmt, loaded):
    argv = ["report", "--t", "1.96", "--n", "16818", "--format", fmt]
    assert after_main(argv, watched=("json",)) == loaded
