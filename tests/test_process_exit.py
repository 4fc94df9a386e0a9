"""Process exit: a ``python -m pointnull.cli`` process ends as soon as its
output is flushed, with the bytes and exit code of the in-process call, and
every other host keeps the plain exit.

cli.console_entry ends the process with os._exit once main's output is out,
where the interpreter itself runs pointnull: ``python -m pointnull.cli`` or
the installed script. test_golden replays in-process, so it never reaches
that exit; here recorded cases run as processes. Every process here runs
with PYTHONDONTWRITEBYTECODE=1, as the benchmark runs each call, whatever
the calling environment sets. The sitecustomize.py below, put on
PYTHONPATH, registers an atexit hook and holds an object whose __del__ only
interpreter teardown runs: a process that ends by os._exit prints the
hook's line and not the teardown line.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from test_golden import CASES

import pointnull
from pointnull import cli

SRC = str(Path(pointnull.__file__).resolve().parents[1])
COMMANDS = ("report", "paradox", "severity", "binomial", "score", "simulate", "paper-check")
REPORT = ["report", "--t", "1.96", "--n", "10", "--format", "csv"]

SITECUSTOMIZE = """\
import atexit
import sys


class Teardown:
    def __del__(self):
        sys.stderr.write("teardown\\n")


marker = Teardown()
atexit.register(sys.stderr.write, "atexit hook\\n")
"""
HOOK_ONLY = "atexit hook\n"
HOOK_AND_TEARDOWN = "atexit hook\nteardown\n"


def first(predicate) -> dict:
    return next(case for case in CASES if predicate(case))


# Edge calls, each a recorded case: sigma^2/n underflowing to 0 still
# answers, and so do the scores where sigma^2/n + tau^2 overflows or
# sigma^2/n underflows; a severity grid of three adjacent doubles, where Phi
# ties two neighbours, answers; the KS step's erfc above one chunk of 4096,
# and an off-null sweep's binary-search counts and median window, at 1e5
# replicates; a subnormal posterior is printed, not rounded to 0; B01, t and
# xbar beyond the largest double, and a handler's own refusal, each exit 2
# with one named line; the value "--" is a usage error; the KL score reads
# an overflowing t in units of sem and answers.
EDGE_CALLS = [
    "paper-check --format json",
    "severity --n 100 --xbar 0.2",
    "severity --n 100 --xbar 0.2 --grid-lo 0.1 --grid-hi 0.10000000000000003 --grid-points 3",
    "report --t 1.96 --n 10 --sigma 1e-200 --format csv",
    "score --rule log --t 1.96 --n 100 --tau 1e200",
    "simulate --kind score-consistency --sigma 1e-200 --reps 10 --n-grid 4",
    "simulate --kind uniformity --reps 100000 --noncentrality 0.2",
    "simulate --kind consistency --reps 100000 --theta-true 0.3",
    "report --t 1.96",
    "report --t=-- --n 4",
    "report --t 1.96 --n 10000 --tau 1e308",
    "report --t 40 --n 10 --format csv",
    "score --rule log --t 1 --n 10 --alt flat --tau 1",
    "report --theta0=-3.8e259 --sigma=2.2e-289 --n=608249 --xbar=1.2e-225",
    "report --sigma=1e300 --n=1 --t=1e10",
    "score --rule log --sigma=1e300 --n=1 --t=1e10 --tau 1",
    "score --rule sprenger-kl --theta0 0 --xbar 1e300 --sigma 1e-10 --n 1 --tau 1e-200",
]

# One recorded case per subcommand and format, one per exit code, the two
# argparse paths, help and a usage error, that the flag table leaves to
# pointnull._usage, and the edge calls.
REPLAYED = [
    first(lambda c, cmd=cmd, fmt=fmt: c["code"] == 0 and c["argv"][0] == cmd and fmt in c["argv"])
    for cmd in COMMANDS
    for fmt in ("json", "csv", "table")
] + [
    first(lambda c: c["code"] == 1),
    first(lambda c: c["code"] == 2),
    first(lambda c: "--help" in c["argv"]),
    first(lambda c: c["stderr"].startswith("usage:")),
]
REPLAYED += [
    first(lambda c, argv=call.split(): c["argv"] == argv)
    for call in EDGE_CALLS
    if call.split() not in [c["argv"] for c in REPLAYED]
]


def environment(*paths: str, **extra: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONINSPECT"}
    env.update(extra, COLUMNS="80", PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [*paths, SRC, os.environ.get("PYTHONPATH")]))
    return env


def run(args: list[str], env: dict, **kwargs) -> subprocess.CompletedProcess:
    """args run by this interpreter, with stdout and stderr decoded."""
    kwargs.setdefault("stdout", subprocess.PIPE)
    proc = subprocess.run(
        [sys.executable, *args], env=env, stdin=subprocess.DEVNULL, stderr=subprocess.PIPE,
        timeout=120, **kwargs,
    )
    decode = lambda data: data.decode("utf-8") if data is not None else None  # noqa: E731
    return subprocess.CompletedProcess(proc.args, proc.returncode, decode(proc.stdout), decode(proc.stderr))


@pytest.fixture
def hooks(tmp_path):
    """A PYTHONPATH entry whose sitecustomize marks the atexit hooks and teardown."""
    site = tmp_path / "site"
    site.mkdir()
    (site / "sitecustomize.py").write_text(SITECUSTOMIZE, "utf-8")
    return str(site)


@pytest.mark.parametrize("case", REPLAYED, ids=[" ".join(c["argv"]) for c in REPLAYED])
def test_module_run_replays_the_golden_bytes(case):
    proc = run(["-m", "pointnull.cli", *case["argv"]], environment())
    assert (proc.returncode, proc.stdout, proc.stderr) == (case["code"], case["stdout"], case["stderr"])


def test_replayed_cases_cover_every_subcommand_format_and_exit_code():
    assert len({tuple(c["argv"]) for c in REPLAYED}) == len(REPLAYED)
    assert {c["code"] for c in REPLAYED} == {0, 1, 2}


def test_out_file_is_the_same_calls_stdout(tmp_path):
    target = tmp_path / "crossing.csv"
    argv = ["-m", "pointnull.cli", "paradox", "--t", "1.96"]
    direct = run(argv, environment())
    written = run([*argv, "--out", str(target)], environment())
    assert (written.returncode, written.stdout, written.stderr) == (0, "", "")
    assert direct.returncode == 0 and direct.stdout
    assert target.read_text("utf-8") == direct.stdout


def test_module_run_ends_after_the_atexit_hooks_without_teardown(hooks):
    proc = run(["-m", "pointnull.cli", *REPORT], environment(hooks))
    assert (proc.returncode, proc.stderr) == (0, HOOK_ONLY)
    assert proc.stdout == run(["-m", "pointnull.cli", *REPORT], environment()).stdout


def test_console_script_ends_after_the_atexit_hooks_without_teardown(hooks, tmp_path):
    # the [project.scripts] wrapper that pip writes, run as python <script> args
    script = tmp_path / "pointnull"
    script.write_text("import sys\nfrom pointnull.cli import console_entry\nsys.exit(console_entry())\n")
    proc = run([str(script), *REPORT], environment(hooks))
    assert (proc.returncode, proc.stderr) == (0, HOOK_ONLY)
    assert proc.stdout == run(["-m", "pointnull.cli", *REPORT], environment()).stdout


HOSTS = ["cProfile", "runpy", "script host", "interpreter flag", "PYTHONINSPECT"]


@pytest.mark.parametrize("host", HOSTS)
def test_other_hosts_keep_the_plain_exit(hooks, tmp_path, host):
    extra = {"PYTHONINSPECT": "1"} if host == "PYTHONINSPECT" else {}
    # a script that runs a module the way coverage run -m does: its own
    # arguments before -m, the module's after, run as __main__
    script = tmp_path / "host.py"
    script.write_text(
        "import runpy, sys\n"
        "sys.argv = sys.argv[sys.argv.index('-m') + 1 :]\n"
        "runpy.run_module(sys.argv[0], run_name='__main__', alter_sys=True)\n"
    )
    args = {
        "cProfile": ["-m", "cProfile", "-o", str(tmp_path / "p.prof"), "-m", "pointnull.cli", *REPORT],
        "script host": [str(script), "run", "-m", "pointnull.cli", *REPORT],
        "runpy": [
            "-c",
            "import runpy, sys\n"
            f"sys.argv = ['pointnull', *{REPORT!r}]\n"
            "runpy.run_module('pointnull.cli', run_name='__main__', alter_sys=True)\n",
        ],
        "interpreter flag": ["-B", "-m", "pointnull.cli", *REPORT],
        "PYTHONINSPECT": ["-m", "pointnull.cli", *REPORT],
    }[host]
    proc = run(args, environment(hooks, **extra))
    expected = run(["-m", "pointnull.cli", *REPORT], environment())
    if host == "cProfile":
        # cProfile writes its file after cli returns, so cli must not end the process there
        assert (tmp_path / "p.prof").stat().st_size > 0
    # PYTHONINSPECT turns a plain sys.exit(0) into exit 1 once stdin is at EOF
    plain = run(["-c", "import sys\nsys.exit(0)"], environment(**extra))
    assert proc.returncode == plain.returncode, proc.stderr
    assert proc.stdout.startswith(expected.stdout)
    assert proc.stderr.endswith(HOOK_AND_TEARDOWN)
    assert proc.stderr.count("atexit hook") == 1


def test_interactive_flag_still_reaches_the_prompt(hooks):
    proc = run(["-i", "-m", "pointnull.cli", *REPORT], environment(hooks))
    expected = run(["-m", "pointnull.cli", *REPORT], environment())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expected.stdout
    # with -i, sys.exit prints SystemExit and the prompt reads stdin to EOF
    assert "SystemExit: 0\n>>> " in proc.stderr
    assert proc.stderr.endswith(HOOK_AND_TEARDOWN)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_failed_flush_ends_as_the_plain_exit_does():
    # block-buffered stdout keeps the text until the flush, which fails on a
    # full device; the plain exit's own flush fails again and exits 120
    env = {k: v for k, v in environment().items() if k != "PYTHONUNBUFFERED"}
    with open("/dev/full", "wb") as full:
        proc = run(["-m", "pointnull.cli", *REPORT], env, stdout=full)
        plain = run(["-c", "import sys\nsys.stdout.write('x')\nsys.exit(0)"], env, stdout=full)
    assert plain.returncode == 120 and "Errno 28" in plain.stderr
    assert (proc.returncode, proc.stderr) == (plain.returncode, plain.stderr)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_failed_unbuffered_write_is_one_error_line():
    # unbuffered stdout fails at main's write, not at the flush after it
    with open("/dev/full", "wb") as full:
        proc = run(["-m", "pointnull.cli", *REPORT], environment(PYTHONUNBUFFERED="1"), stdout=full)
    assert (proc.returncode, proc.stderr) == (1, "error: cannot write stdout: No space left on device\n")


@pytest.mark.parametrize("entry", [(), ("-m", "pointnull.cli")])
def test_entry_in_another_host_returns_mains_code(capsys, monkeypatch, entry):
    def refuse(code):
        raise AssertionError(f"os._exit({code}) under pytest")

    monkeypatch.setattr(os, "_exit", refuse)
    monkeypatch.setattr(sys, "argv", ["pointnull", "report", "--t", "1.96"])
    assert cli.console_entry(*entry) == 2
    assert capsys.readouterr().err.startswith("usage:")
    monkeypatch.setattr(sys, "argv", ["pointnull", *REPORT])
    assert cli.console_entry(*entry) == 0
    assert capsys.readouterr().out.startswith("# format_version=1 command=report\n")
