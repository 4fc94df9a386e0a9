"""Start-up guard: a closed-form call loads only what its subcommand and format run.

numpy is imported inside the sweep functions, so a module-level import of it
puts its load time back on calls that never use it. Each output format's
renderer sits in a module that only that format loads: the JSON writer in
_json_writer, which writes json.dumps's bytes itself, so no call loads json
(whose import compiles regexes), and the csv and table renderers in _text.
std_normal_quantile takes NormalDist's routine from
_statistics, so no call loads statistics (with fractions and decimal). The
records are plain classes, so no call loads dataclasses or the inspect
machinery it pulls in. The package namespace and cli's library names are
lazy: ``import pointnull`` loads no submodule, and each call loads only the
modules that define the names its handler calls, and only its own handler
module. Code that only some calls run sits in a private module that loads
with its caller: the p-value sweeps' order statistics (_order_stats) and
the Hyvarinen kernel (_hyvarinen). A valid call parses from cli's flag
table without argparse, which with its helpers sits in _usage. With no
bytecode cache, every loaded line is compiled on every call, so each call
has a budget of loaded source lines in each output format.
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
        "scores", "_hyvarinen", "cli", "_json_writer", "_text", "_usage",
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
# cli's own parser takes a space-form value that starts with "-" where it
# reads as a number, such as -3.1e-05, which argparse would read as a flag.
NEGATIVE = ["report", "--t", "-3.1e-05", "--n", "16818", "--theta0", "-1"]
VALID_CALLS = CLOSED_FORM + [simulate_argv(k) for k in ("consistency", "uniformity", "score-consistency")]
VALID_CALLS += [NEGATIVE]


# The library modules each call loads, in its default format, beyond cli,
# the record helper and numerics, which every library module builds on.
# binomial takes p_value from numerics and loads no normal; report loads none
# of paradox, scores, severity and binomial; the p-value sweeps' order
# statistics load only for the consistency and uniformity sweeps, and the
# Hyvarinen kernel only for --rule hyvarinen, --rule sprenger-kl and the score sweep, which alone
# of the sweeps loads scores. Each call also loads its default format's
# renderer: _json_writer for json, _text for csv and table.
OWN_MODULES = {
    "report": (CLOSED_FORM[0], ("normal", "_json_writer")),
    "paradox": (CLOSED_FORM[1], ("normal", "paradox", "_text")),
    "severity": (CLOSED_FORM[2], ("normal", "severity", "_text")),
    "binomial": (CLOSED_FORM[3], ("binomial", "_json_writer")),
    "score": (CLOSED_FORM[4], ("normal", "scores", "_hyvarinen", "_json_writer")),
    "score-log": (
        ["score", "--rule", "log", "--t", "1.96", "--n", "100", "--tau", "1"],
        ("normal", "scores", "_json_writer"),
    ),
    "paper-check": (CLOSED_FORM[5], ("normal", "binomial", "paradox", "scores", "_text")),
    "simulate-uniformity": (simulate_argv("uniformity"), ("normal", "paradox", "_order_stats", "_text")),
    "simulate-consistency": (simulate_argv("consistency"), ("normal", "paradox", "_order_stats", "_text")),
    "simulate-score-consistency": (
        simulate_argv("score-consistency"), ("normal", "paradox", "scores", "_hyvarinen", "_text"),
    ),
}

FORMATS = ("json", "csv", "table")
# pointnull source each call loads in each output format, summed over its
# loaded modules' files, and so compiled on every call: the closed-form calls
# in every format, the sweeps in their default csv. A budget is the measured
# count; it is lowered as code leaves a call, never raised.
SOURCE_LINES = {
    ("report", "json"): 844,
    ("report", "csv"): 863,
    ("report", "table"): 863,
    ("paradox", "json"): 1152,
    ("paradox", "csv"): 1171,
    ("paradox", "table"): 1171,
    ("severity", "json"): 957,
    ("severity", "csv"): 976,
    ("severity", "table"): 976,
    ("binomial", "json"): 716,
    ("binomial", "csv"): 735,
    ("binomial", "table"): 735,
    ("score", "json"): 1129,
    ("score", "csv"): 1148,
    ("score", "table"): 1148,
    ("score-log", "json"): 1043,
    ("score-log", "csv"): 1062,
    ("score-log", "table"): 1062,
    ("paper-check", "json"): 1530,
    ("paper-check", "csv"): 1549,
    ("paper-check", "table"): 1549,
    ("simulate-uniformity", "csv"): 1371,
    ("simulate-consistency", "csv"): 1371,
    ("simulate-score-consistency", "csv"): 1488,
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


def valid_call_id(argv: list[str]) -> str:
    return "negative-values" if argv is NEGATIVE else argv[0] if argv[0] != "simulate" else argv[2]


@pytest.mark.parametrize("argv", VALID_CALLS, ids=valid_call_id)
def test_valid_call_loads_no_argparse(argv):
    assert after_main(argv, PARSER_MODULES) == []


@pytest.mark.parametrize("argv", VALID_CALLS, ids=valid_call_id)
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


@pytest.mark.parametrize("call, fmt", SOURCE_LINES, ids="-".join)
def test_call_loads_at_most_its_source_line_budget(call, fmt):
    code = (
        "import contextlib, io, sys\n"
        "from pointnull import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main({[*OWN_MODULES[call][0], '--format', fmt]!r}) == 0\n"
        "mods = [m for name, m in sys.modules.items() if name.partition('.')[0] == 'pointnull']\n"
        "print(sum(len(open(m.__file__, 'rb').read().splitlines()) for m in mods))"
    )
    assert int(last_line(code)) <= SOURCE_LINES[call, fmt]


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


# Each format loads only its own renderer, and no call loads json (nor its C
# helper _json, which the JSON writer takes only for a string json would escape).
@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("argv", CLOSED_FORM, ids=lambda a: a[0])
def test_each_format_loads_only_its_renderer_and_no_json(argv, fmt):
    argv = [*argv, "--format", fmt]
    renderer = "pointnull._json_writer" if fmt == "json" else "pointnull._text"
    watched = ("json", "_json", "pointnull._json_writer", "pointnull._text")
    assert after_main(argv, watched) == [renderer]
    imported = imported_by_module_run(argv)
    assert "pointnull.numerics" in imported  # the probe sees the library's imports
    assert imported.isdisjoint({"json", "_json"})
