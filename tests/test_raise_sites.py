"""Raise-site witnesses: every raise statement in pointnull is reached by a
golden case, or is listed with the reason no command line can reach it.

An AST scan of src/pointnull finds the raise statements. Every golden case
is replayed in-process, as test_golden replays it, under a sys.settrace line
tracer that records the raise lines each replay runs; the first case to run
a site is its witness. Answers are replayed as well as refusals, since a
refusal caught inside a handler (binomial's bf_laplace) prints in an
answer's provenance. A new raise fails here until a golden case reaches it
or it is listed below with its reason. The replay takes under a second.
"""

import ast
import os
import sys
from pathlib import Path

import pytest
from test_golden import CASES, capture

import pointnull

SRC = Path(pointnull.__file__).resolve().parent

# Sites no command line reaches, each with the reason.
LIBRARY_ONLY = {
    "__init__.py __getattr__: AttributeError module ":
        "Python's module protocol: a name the package does not export",
    "cli.py __getattr__: AttributeError module ":
        "Python's module protocol: a name that is no library export",
    "cli.py _check_finite: ValueError result ":
        "the last guard: every result that can leave the doubles is refused by name first",
    "_record.py Record.__init__: TypeError () takes the fields ":
        "a record built with the wrong fields, which no handler does",
    "_record.py Record.__setattr__: AttributeError cannot assign to field ":
        "records are frozen; no code assigns to one",
    "_record.py Record.__delattr__: AttributeError cannot delete field ":
        "records are frozen; no code deletes a field",
    "normal.py NormalProblem.__post_init__: ValueError n must be an integer, got ":
        "the flag table reads --n as an int",
    "normal.py AlternativePrior.__post_init__: ValueError c applies only to the improper-flat kind":
        "score refuses --c with a conjugate prior first, by the flag's name",
    "normal.py AlternativePrior.__post_init__: ValueError improper-flat prior takes no tau":
        "the handlers build a flat prior through AlternativePrior.flat, which passes no tau",
    "normal.py AlternativePrior.__post_init__: ValueError unknown prior kind ":
        "the handlers build priors through conjugate and flat only",
    "normal.py log_bayes_factor_lindley: ValueError n must be at least 1":
        "every caller's n is a checked sample size of at least 1",
    "normal.py _shrinkage: ValueError this operation requires a conjugate-normal prior":
        "report's prior is always conjugate, and score refuses sprenger-kl against "
        "--alt flat by its own message first",
    "normal.py posterior_prob_null: ValueError bf01 must be non-negative":
        "every caller's bf01 is an exp, never negative or nan",
    "numerics.py p_value: ValueError t must be finite":
        "each caller checks t first: ParadoxQuery, evaluate_test through _finite, and "
        "binomial's z, whose null spread is at least 2e-162 once it is not 0",
    "numerics.py std_normal_quantile: ValueError quantile needs 0 < p < 1, got ":
        "severity checks --level first",
    "numerics.py log_normal_pdf: ValueError variance must be positive":
        "no library function calls log_normal_pdf",
    "numerics.py find_crossing: ValueError lo must be finite":
        "no library function calls find_crossing",
    "numerics.py find_crossing: ValueError initial_step must be positive":
        "no library function calls find_crossing",
    "numerics.py find_crossing: NoCrossingError no crossing of ":
        "no library function calls find_crossing",
    "numerics.py RngStream.__init__: ValueError seed must be an unsigned 64-bit integer, got ":
        "cli.main checks --seed first",
    "numerics.py RngStream.__init__: ValueError stream_id must be a non-negative integer, got ":
        "the sweeps number their streams from 0",
    "binomial.py log_beta: ValueError log_beta needs a finite positive a, got ":
        "binomial_bf_flat passes x + 1 and n - x + 1, both at least 1 and finite",
    "binomial.py log_beta: ValueError log_beta needs a finite positive b, got ":
        "binomial_bf_flat passes x + 1 and n - x + 1, both at least 1 and finite",
    "binomial.py BinomialProblem.__post_init__: ValueError  must be an integer, got ":
        "the flag table reads --n and --x as ints",
    "paradox.py paradox_table: ValueError n_list must hold integers, got ":
        "paradox passes the integer marks around its crossing",
    "paradox.py ConsistencyRun.__post_init__: ValueError n_grid must hold integers, got ":
        "simulate parses --n-grid into ints",
    "paradox.py ConsistencyRun.__post_init__: ValueError n_grid must be non-empty":
        "an empty --n-grid fails to parse first, by the flag's name",
    "paradox.py ConsistencyRun.__post_init__: ValueError replications must be an integer, got ":
        "the flag table reads --reps as an int",
    "paradox.py ConsistencyRun.__post_init__: ValueError replications must be at least 1":
        "simulate checks --reps first",
    "paradox.py ConsistencyRun.__post_init__: ValueError seed must be an unsigned 64-bit integer, got ":
        "cli.main checks --seed first",
    "severity.py severity_curve: ValueError grid must be non-empty":
        "severity checks --grid-points first",
    "scores.py ScoreReport.__post_init__: ValueError  penalties s0 = ":
        "the compares refuse a penalty beyond the doubles by name first, so every "
        "report they build has finite penalties",
    "commands/simulate.py run: RuntimeError --reps ":
        "its message carries numpy's own allocation text; "
        "tests/test_cli.py test_reps_beyond_memory_is_one_error_line reaches it under a memory cap",
}


def site_id(path: Path, qualname: str, node: ast.Raise) -> str:
    """path, enclosing qualname, exception class and first literal text of a raise."""
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    name = ast.unparse(exc) if exc is not None else "re-raise"
    text = next(
        (n.value for n in ast.walk(node.exc) if isinstance(n, ast.Constant) and isinstance(n.value, str)),
        "",
    ) if node.exc is not None else ""
    return f"{path.relative_to(SRC).as_posix()} {qualname}: {name} {text}"


def raise_sites() -> dict[tuple[str, int], str]:
    """(file, line) of every raise statement under src/pointnull, to its site id."""
    sites = {}

    def scan(path: Path, node: ast.AST, scope: list[str]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                scan(path, child, [*scope, child.name])
                continue
            if isinstance(child, ast.Raise):
                sites[(str(path), child.lineno)] = site_id(path, ".".join(scope), child)
            scan(path, child, scope)

    for path in sorted(SRC.rglob("*.py")):
        scan(path, ast.parse(path.read_text("utf-8")), [])
    return sites


SITES = raise_sites()


@pytest.fixture(scope="module")
def witnesses() -> dict[str, str]:
    """Site id to the argv of the first golden case whose replay runs it."""
    lines: dict[str, set[int]] = {}
    for path, line in SITES:
        lines.setdefault(path, set()).add(line)
    found: dict[str, str] = {}
    current = ""
    by_code: dict[str, set[int] | None] = {}

    def local(frame, event, arg):
        if event == "line" and frame.f_lineno in by_code[frame.f_code.co_filename]:
            found.setdefault(SITES[(os.path.realpath(frame.f_code.co_filename), frame.f_lineno)], current)
        return local

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in by_code:
            by_code[name] = lines.get(os.path.realpath(name))
        return local if by_code[name] else None

    previous = sys.gettrace()
    try:
        for case in CASES:
            current = " ".join(case["argv"])
            sys.settrace(trace)
            try:
                capture(case["argv"])
            finally:
                sys.settrace(previous)
    finally:
        sys.settrace(previous)
    return found


def test_site_ids_are_unique_and_each_raise_starts_its_line():
    # a line event on the raise's first line then means the raise ran
    assert len(set(SITES.values())) == len(SITES)
    for path, line in SITES:
        assert Path(path).read_text("utf-8").splitlines()[line - 1].lstrip().startswith("raise"), (path, line)


def test_every_raise_site_has_a_witness_or_a_listed_reason(witnesses):
    missing = sorted(set(SITES.values()) - witnesses.keys() - LIBRARY_ONLY.keys())
    assert missing == [], "raise sites with no golden witness and no listed reason"


def test_listed_sites_exist_and_no_golden_case_reaches_them(witnesses):
    assert sorted(LIBRARY_ONLY.keys() - set(SITES.values())) == []
    assert {site: witnesses[site] for site in LIBRARY_ONLY.keys() & witnesses.keys()} == {}
