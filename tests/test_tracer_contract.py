"""The benchmark tracer's contract with the lazy CLI namespace.

bench/tracer.py replaces attributes of pointnull.cli with counting wrappers
and counts a call only when cli makes it through that attribute. cli binds
its library names on first use, so every name the tracer wraps must still
resolve as a cli attribute, loading must never rebind a replaced one, and
the handlers must call what the attribute holds. Were any of these lost,
the per-layer counts would read 0 while every other test passed.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pointnull
from pointnull import cli

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
SRC = str(Path(pointnull.__file__).resolve().parents[1])


def wrapped_cli_names() -> list[str]:
    """The cli attributes in the tracer's WRAPPED table, read without running it."""
    for node in ast.parse(TRACER.read_text("utf-8")).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["WRAPPED"]:
            return [name for caller, name, _ in ast.literal_eval(node.value) if caller == "cli"]
    raise AssertionError("WRAPPED not found in bench/tracer.py")


def test_every_wrapped_cli_name_resolves_in_a_fresh_interpreter():
    names = wrapped_cli_names()
    assert "crossing_sample_size" in names and "main" in names
    probe = (
        "import pointnull.cli as cli\n"
        f"for name in {names!r}:\n"
        "    fn = getattr(cli, name)\n"
        "    assert callable(fn) and fn.__module__.startswith('pointnull.'), name\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize(
    "name, argv",
    [
        ("crossing_sample_size", ["paradox", "--t", "1.96"]),
        ("severity_curve", ["severity", "--n", "100", "--xbar", "0.2"]),
        ("binomial_bf_flat", ["binomial", "--n", "527135", "--x", "106298", "--theta0", "0.2"]),
    ],
)
def test_main_calls_the_replaced_attribute(name, argv, monkeypatch):
    original = getattr(cli, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, name, counting)
    assert cli.main(argv) == 0
    assert len(calls) == 1
    assert getattr(cli, name) is counting
