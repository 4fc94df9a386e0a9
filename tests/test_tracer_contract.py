"""The benchmark tracer's contract with the library's module attributes.

bench/tracer.py replaces attributes of pointnull's modules with counting
wrappers, one per (caller, name) pair in its WRAPPED table, plus RngStream
on each module in RNG_USERS, and counts a call only when the caller makes it
through that attribute. Every such attribute must therefore still resolve
on its module, even where the module keeps the import only for the tracer.
cli binds each library name on first use, which must never rebind a
replaced one, and the handlers must call what the attribute holds.
Were any of these lost, the per-layer counts would read 0, or installing
the tracer would fail, while every other test passed.
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


def tracer_table(name: str) -> tuple:
    """A module-level table of bench/tracer.py, read without running it."""
    for node in ast.parse(TRACER.read_text("utf-8")).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == [name]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not found in bench/tracer.py")


def wrapped_pairs() -> list[tuple[str, str]]:
    """Every (caller module, attribute) the tracer replaces."""
    pairs = [(caller, name) for caller, name, _ in tracer_table("WRAPPED")]
    return pairs + [(caller, "RngStream") for caller in tracer_table("RNG_USERS")]


def test_every_wrapped_attribute_resolves_in_a_fresh_interpreter():
    pairs = wrapped_pairs()
    assert ("cli", "main") in pairs and ("paradox", "RngStream") in pairs
    probe = (
        "import importlib\n"
        f"for caller, name in {pairs!r}:\n"
        "    fn = getattr(importlib.import_module('pointnull.' + caller), name)\n"
        "    assert callable(fn) and fn.__module__.startswith('pointnull.'), (caller, name)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr


# One call that reaches each library name the tracer wraps on cli. main is
# the entry itself, and no handler calls t_statistic.
PAPER_CHECK = ["paper-check"]
SCORE = ["--t", "1.5", "--n", "40", "--tau", "1"]
BINOMIAL = ["binomial", "--n", "527135", "--x", "106298", "--theta0", "0.2"]
CLI_CALLS = {
    "render_json": ["report", "--t", "1.96", "--n", "16818", "--format", "json"],
    "render_csv": ["paradox", "--t", "1.96"],
    "render_table": PAPER_CHECK,
    "crossing_sample_size": ["paradox", "--t", "1.96"],
    "required_bf": ["paradox", "--t", "1.96"],
    "consistency_simulation": ["simulate", "--kind", "consistency", "--reps", "5", "--n-grid", "10"],
    "pvalue_uniformity_check": ["simulate", "--kind", "uniformity", "--reps", "100"],
    "score_consistency_sim": ["simulate", "--kind", "score-consistency", "--reps", "5", "--n-grid", "10"],
    "severity_curve": ["severity", "--n", "100", "--xbar", "0.2"],
    "binomial_bf_flat": BINOMIAL,
    "binomial_bf_laplace": BINOMIAL,
    "binomial_p_value": BINOMIAL,
    "binomial_z": BINOMIAL,
    "bayes_factor_conjugate": PAPER_CHECK,
    "bayes_factor_lindley": PAPER_CHECK,
    "p_value": PAPER_CHECK,
    "posterior_prob_null": PAPER_CHECK,
    "reinterpret_as_prior_scale": PAPER_CHECK,
    "savage_dickey_bf": ["report", "--t", "1.96", "--n", "16818"],
    "log_score_compare": ["score", "--rule", "log", *SCORE],
    "hyvarinen_compare": ["score", "--rule", "hyvarinen", *SCORE],
    "sprenger_kl_report": ["score", "--rule", "sprenger-kl", *SCORE],
}
CLI_WRAPPED = [
    name for caller, name, _ in tracer_table("WRAPPED")
    if caller == "cli" and name not in ("main", "t_statistic")
]


@pytest.mark.parametrize("name", CLI_WRAPPED)
def test_main_calls_the_replaced_attribute(name, monkeypatch, capsys):
    original = getattr(cli, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, name, counting)
    assert cli.main(CLI_CALLS[name]) == 0
    assert len(calls) >= 1
    assert getattr(cli, name) is counting
