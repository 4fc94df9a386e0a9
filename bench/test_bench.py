"""Self-test of the benchmark's oracle: ``python3 -m pytest bench -q``.

The oracle must reproduce the paper's anchors on its own, accept the
program's real output, and fail an output with one corrupted line.
"""

from __future__ import annotations

import contextlib
import io
import re
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import inputs  # noqa: E402
import oracle  # noqa: E402
from pointnull import cli  # noqa: E402


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def corrupt(text: str, marker: str) -> str:
    """Change the leading significant digit on the first line after the one
    holding marker (or on that line itself when it holds a value)."""
    lines = text.split("\n")
    i = next(j for j, line in enumerate(lines) if marker in line)
    start = lines[i].index(marker) + len(marker)
    match = re.compile(r"[1-9]").search(lines[i], start)
    d = match.group()
    lines[i] = lines[i][:match.start()] + str(int(d) % 9 + 1) + lines[i][match.end():]
    return "\n".join(lines)


def test_oracle_reproduces_paper_anchors():
    assert oracle.crossing_n(1.96, 0.95, 0.5) == 16818
    assert oracle.crossing_n(1.96, 0.95, 10.0 / 11.0) == 164
    assert oracle.crossing_n(0.0, 0.95, 0.5) == 360
    n, x, theta0 = oracle.STONE
    assert abs(float(oracle.mp.exp(oracle.log_binomial_bf_flat(n, x, theta0))) - 8.115) < 1e-3
    assert abs(float(oracle.p_value(1.96)) - 0.05) < 1e-4


def test_crossing_certificate_rejects_neighbours():
    oracle.certify_crossing(1.96, 0.95, 0.5, 16818)
    for wrong in (16817, 16819):
        with pytest.raises(oracle.Fail):
            oracle.certify_crossing(1.96, 0.95, 0.5, wrong)


CASES = [
    # (argv, params, marker of the line to corrupt)
    (["report", "--t", "1.96", "--n", "16818", "--format", "json"],
     {"theta0": 0.0, "sigma": 1.0, "n": 16818, "t": 1.96, "tau": None}, '"bf01":'),
    (["paradox", "--t", "1.96", "--format", "csv"],
     {"t": 1.96, "target": 0.95}, "crossing_n="),
    (["paradox", "--t", "2.5", "--rho0", "0.3", "--format", "csv", "--digits", "4"],
     {"t": 2.5, "target": 0.95, "rho0": 0.3}, "post_prob0,paradoxical\n"),
    (["severity", "--n", "100", "--xbar", "0.25", "--grid-points", "5", "--format", "table"],
     {"theta0": 0.0, "sigma": 1.0, "n": 100, "xbar": 0.25, "level": 0.9, "grid_points": 5},
     "--\n"),
    (["binomial", "--n", "527135", "--x", "106298", "--theta0", "0.2", "--format", "table"],
     {"n": 527135, "x": 106298, "theta0": 0.2}, "bf_flat = "),
    (["score", "--rule", "hyvarinen", "--t", "0.5", "--n", "10", "--alt", "flat",
      "--format", "json"],
     {"rule": "hyvarinen", "theta0": 0.0, "sigma": 1.0, "n": 10, "t": 0.5, "alt": "flat",
      "tau": None, "c": 1.0}, '"s0":'),
    (["paper-check", "--format", "csv"], {}, "stone_binomial_bf_flat,"),
]


@pytest.mark.parametrize("argv,params,marker", CASES, ids=[c[0][0] + "-" + c[0][-1] for c in CASES])
def test_real_output_passes_and_corrupted_line_fails(argv, params, marker):
    fmt = argv[argv.index("--format") + 1]
    digits = int(argv[argv.index("--digits") + 1]) if "--digits" in argv else 6
    op = {"cmd": argv[0], "fmt": fmt, "digits": digits, "params": params}
    code, out, err = run(argv)
    oracle.check_cli(op, code, out, err)
    if marker.endswith("\n"):
        # corrupt the line after the marker (first table or CSV row)
        head, _, tail = out.partition(marker)
        bad = head + marker + corrupt(tail, "")
    else:
        bad = corrupt(out, marker)
    assert bad != out
    with pytest.raises(oracle.Fail):
        oracle.check_cli(op, code, bad, err)


def test_generated_operations_pass():
    ops = inputs.cli_ops(7)
    for _ in range(36):
        op = next(ops)
        oracle.check_cli(op, *run(op["argv"]))


def test_known_defect_counts_as_failed():
    op = {"cmd": "report", "fmt": "json", "digits": 6,
          "params": {"theta0": 0.0, "sigma": 1.0, "n": 1, "t": 40.0, "tau": 10.0}}
    with pytest.raises(oracle.Fail):
        oracle.check_cli(op, *run(["report", "--t", "40", "--n", "1", "--tau", "10"]))


def test_unreachable_target_is_an_accepted_refusal():
    argv = ["paradox", "--t", "1.96", "--target", "0.5", "--rho0", "0.9", "--format", "json"]
    op = {"cmd": "paradox", "fmt": "json", "digits": 6,
          "params": {"t": 1.96, "target": 0.5, "rho0": 0.9}}
    code, out, err = run(argv)
    assert code == 1
    assert oracle.check_cli(op, code, out, err) == {"refused": True}


def test_simulate_rates_within_bounds_and_corruption_caught():
    argv = ["simulate", "--kind", "consistency", "--reps", "4000", "--n-grid", "50,500",
            "--seed", "9", "--format", "json"]
    op = {"cmd": "simulate", "fmt": "json", "digits": 6,
          "params": {"kind": "consistency", "reps": 4000, "theta0": 0.0, "theta_true": 0.0,
                     "sigma": 1.0, "n_grid": (50, 500), "alpha": 0.05, "seed": 9}}
    code, out, err = run(argv)
    oracle.check_simulate(op, code, out, err)
    bad = out.replace('"reject_rate": 0.0', '"reject_rate": 0.2', 1)
    assert bad != out
    with pytest.raises(oracle.Fail):
        oracle.check_simulate(op, code, bad, err)
