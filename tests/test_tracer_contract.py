"""The benchmark tracer's contract with the library's module attributes.

bench/tracer.py replaces attributes of pointnull's modules with counting
wrappers, one per (caller, name) pair in its WRAPPED table, plus RngStream
on each module in RNG_USERS, and counts a call only when the caller makes it
through that attribute. Every such attribute must therefore still resolve
on its module, even where the module keeps the import only for the tracer.
cli binds each library name on first use, which must never rebind a
replaced one, and the handlers and sweeps must call what the attribute
holds.
Were any of these lost, the per-layer counts would read 0, or installing
the tracer would fail, while every other test passed.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pointnull
from pointnull import cli, paradox, scores
from pointnull.normal import AlternativePrior
from pointnull.paradox import ConsistencyRun

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


# The sweeps draw through paradox.RngStream and run the Lindley kernel
# through paradox's namespace, where the tracer replaces both: a helper that
# took either from elsewhere would zero the numerics.rng_* and
# paradox.kernel_calls_per_rep readings of a traced sweep.
RUN = ConsistencyRun(theta_true=0.0, theta0=0.0, sigma=1.0, n_grid=(10, 100), replications=100, seed=7)
SWEEPS = {
    "consistency": (lambda: paradox.consistency_simulation(RUN), 2),
    "uniformity": (lambda: paradox.pvalue_uniformity_check(7, 100), 1),
    "score-consistency": (lambda: scores.score_consistency_sim(RUN, AlternativePrior.flat()), 2),
}


def counting(module, name, monkeypatch) -> list:
    """The arguments of every call made through module.name from now on."""
    original, calls = getattr(module, name), []

    def count(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, count)
    return calls


@pytest.mark.parametrize("kind", SWEEPS)
def test_sweep_draws_through_paradox_rng_stream(kind, monkeypatch):
    sweep, streams = SWEEPS[kind]
    made = counting(paradox, "RngStream", monkeypatch)
    sweep()
    assert len(made) == streams


def test_consistency_sweep_calls_the_kernel_through_paradox(monkeypatch):
    calls = counting(paradox, "log_bayes_factor_lindley", monkeypatch)
    paradox.consistency_simulation(RUN)
    # one array call per grid point for the medians, and scalar calls that settle a*
    assert sum(isinstance(args[0], np.ndarray) for args in calls) == len(RUN.n_grid)
    assert len(calls) > len(RUN.n_grid)
