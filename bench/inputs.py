"""Seeded inputs for the benchmark workloads.

Everything a workload hands to pointnull is drawn here from
``random.Random(seed)``: the same seed always gives the same operations in
the same order. The mix of subcommands and formats is a
fixed cycle; the seed draws the values. Values come from each flag's
documented range and are written with ``repr`` so the program parses
exactly the float the oracle checks against.

Edge inputs from the known-defect regions (ROADMAP "Defects") are drawn by
``defect_probes``: the measured stream holds only inputs the program is
expected to answer, and the probes are run beside it at a fixed share.
"""

from __future__ import annotations

import math
import random

CLI_COMMANDS = ("report", "paradox", "severity", "binomial", "score", "paper-check")
FORMATS = ("json", "csv", "table")
SIM_KINDS = (
    "consistency-null",
    "consistency-alt",
    "score-flat",
    "score-conjugate",
    "uniformity-null",
    "uniformity-shifted",
)
# the three ROADMAP defect regions, and a fourth: the CLI mis-parses a
# negative value written in exponent notation ("--theta0 -3.1e-05") as a
# flag; measured calls write "--theta0=-3.1e-05"
REGIONS = ("target-near-one", "large-t-large-tau", "scale-limits", "negative-exponent-value")

# one edge input per fifty operations
EDGE_SHARE = 0.02

# replicate counts sized so the sweep, not start-up, is most of each call,
# and so every kind takes about as long: then a run's median and 90th
# percentile do not fall in a gap between the kinds' durations
CONSISTENCY_REPS = 100_000
SCORE_REPS = 10_000
UNIFORMITY_REPS = 1_000_000


def _f(x: float) -> str:
    return repr(float(x))


def _joined(argv: list[str]) -> list[str]:
    """--flag value pairs as --flag=value, so a value like -3.1e-05 is never
    taken for a flag."""
    out: list[str] = []
    for token in argv:
        if out and out[-1].startswith("--") and "=" not in out[-1] and not token.startswith("--"):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


def _problem_flags(rng: random.Random, params: dict, xbar_only: bool = False) -> list[str]:
    """theta0/sigma/n plus either --t or --xbar, recorded into params."""
    theta0 = rng.uniform(-5.0, 5.0)
    sigma = _log_uniform(rng, 0.1, 10.0)
    n = int(_log_uniform(rng, 1.0, 1e6))
    t = rng.uniform(-4.0, 4.0)
    params.update(theta0=theta0, sigma=sigma, n=n)
    argv = ["--theta0", _f(theta0), "--sigma", _f(sigma), "--n", str(n)]
    if xbar_only or rng.random() < 0.4:
        xbar = theta0 + t * sigma / math.sqrt(n)
        params["xbar"] = xbar
        argv += ["--xbar", _f(xbar)]
    else:
        params["t"] = t
        argv += ["--t", _f(t)]
    return argv


def _report(rng, params):
    argv = _problem_flags(rng, params)
    u = rng.random()
    if u < 0.4:
        params["tau"] = None
    elif u < 0.5:
        params["tau"] = None
        argv.append("--tau-equals-sigma")
    else:
        params["tau"] = _log_uniform(rng, 0.1, 10.0)
        argv += ["--tau", _f(params["tau"])]
    params["rho0"] = rng.uniform(0.05, 0.95)
    params["alpha"] = rng.uniform(0.001, 0.2)
    return argv + ["--rho0", _f(params["rho0"]), "--alpha", _f(params["alpha"])]


def _paradox(rng, params):
    params.update(
        t=rng.uniform(-3.5, 3.5),
        target=rng.uniform(0.5, 0.99),
        rho0=rng.uniform(0.1, 0.9),
        alpha=rng.uniform(0.001, 0.2),
    )
    return [
        "--t", _f(params["t"]),
        "--target", _f(params["target"]),
        "--rho0", _f(params["rho0"]),
        "--alpha", _f(params["alpha"]),
    ]


def _severity(rng, params):
    argv = _problem_flags(rng, params, xbar_only=True)
    params["level"] = rng.uniform(0.5, 0.999)
    params["grid_points"] = rng.randint(2, 25)
    argv += ["--level", _f(params["level"]), "--grid-points", str(params["grid_points"])]
    params["grid_lo"] = params["grid_hi"] = None
    if rng.random() < 0.5:
        sem = params["sigma"] / math.sqrt(params["n"])
        lo = params["xbar"] - rng.uniform(1.0, 5.0) * sem
        hi = params["xbar"] + rng.uniform(1.0, 5.0) * sem
        params.update(grid_lo=lo, grid_hi=hi)
        argv += ["--grid-lo", _f(lo), "--grid-hi", _f(hi)]
    return argv


def _binomial_values(rng):
    n = int(_log_uniform(rng, 10.0, 1e6))
    theta0 = rng.uniform(0.05, 0.95)
    spread = math.sqrt(n * theta0 * (1.0 - theta0))
    x = min(n, max(0, round(n * theta0 + rng.uniform(-4.0, 4.0) * spread)))
    return n, x, theta0


def _binomial(rng, params):
    n, x, theta0 = _binomial_values(rng)
    params.update(n=n, x=x, theta0=theta0)
    return ["--n", str(n), "--x", str(x), "--theta0", _f(theta0)]


def _score(rng, params):
    rule = rng.choice(("log", "hyvarinen", "sprenger-kl"))
    params["rule"] = rule
    argv = ["--rule", rule] + _problem_flags(rng, params)
    params["tau"] = None
    params["c"] = 1.0
    conjugate = rule == "sprenger-kl" or rng.random() < 0.5
    params["alt"] = "conjugate" if conjugate else "flat"
    u = rng.random()
    if conjugate:
        if u < 0.5:
            params["tau"] = _log_uniform(rng, 0.1, 10.0)
            argv += ["--tau", _f(params["tau"])]
        elif u < 0.75:
            argv.append("--tau-equals-sigma")
        else:
            argv += ["--alt", "conjugate"]
    else:
        if u < 0.5:
            params["c"] = _log_uniform(rng, 1e-3, 1e3)
            argv += ["--c", _f(params["c"])]
        if rng.random() < 0.5:
            argv += ["--alt", "flat"]
    return argv


_CLI_BUILDERS = {
    "report": _report,
    "paradox": _paradox,
    "severity": _severity,
    "binomial": _binomial,
    "score": _score,
    "paper-check": lambda rng, params: [],
}


def _cli_op(rng: random.Random, cmd: str, fmt: str) -> dict:
    params: dict = {}
    argv = [cmd] + _CLI_BUILDERS[cmd](rng, params)
    digits = rng.randint(3, 12)
    argv += ["--format", fmt, "--digits", str(digits)]
    return {"cmd": cmd, "fmt": fmt, "digits": digits, "params": params, "argv": _joined(argv)}


def cli_ops(seed: int):
    """Endless closed-form CLI operations: every subcommand x format pair
    once per 18 operations, values drawn from the seed."""
    rng = random.Random(f"cli-closed-form/{seed}")
    i = 0
    while True:
        yield _cli_op(rng, CLI_COMMANDS[i % 6], FORMATS[(i // 6) % 3])
        i += 1


def _sim_op(rng: random.Random, kind: str, fmt: str) -> dict:
    params: dict = {"seed": rng.getrandbits(64)}
    theta0 = rng.uniform(-2.0, 2.0)
    sigma = _log_uniform(rng, 0.5, 2.0)
    base = int(_log_uniform(rng, 10.0, 1000.0))
    grid = (base, 10 * base, 100 * base)
    argv = ["simulate", "--seed", str(params["seed"])]
    if kind.startswith("uniformity"):
        nc = 0.0 if kind == "uniformity-null" else rng.uniform(0.05, 0.5)
        params.update(kind="uniformity", reps=UNIFORMITY_REPS, noncentrality=nc)
        argv += ["--kind", "uniformity", "--reps", str(UNIFORMITY_REPS), "--noncentrality", _f(nc)]
    else:
        theta_true = theta0
        if kind.endswith("-alt") or kind == "score-conjugate":
            # effect of 0.5 to 3 standard errors at the middle grid point
            theta_true = theta0 + rng.uniform(0.5, 3.0) * sigma / math.sqrt(grid[1])
        params.update(theta0=theta0, theta_true=theta_true, sigma=sigma, n_grid=grid)
        argv += [
            "--theta0", _f(theta0),
            "--theta-true", _f(theta_true),
            "--sigma", _f(sigma),
            "--n-grid", ",".join(str(n) for n in grid),
        ]
        if kind.startswith("consistency"):
            params.update(kind="consistency", reps=CONSISTENCY_REPS, alpha=rng.uniform(0.01, 0.1))
            argv += ["--kind", "consistency", "--reps", str(CONSISTENCY_REPS),
                     "--alpha", _f(params["alpha"])]
        else:
            params.update(kind="score-consistency", reps=SCORE_REPS, tau=None)
            argv += ["--kind", "score-consistency", "--reps", str(SCORE_REPS)]
            if kind == "score-conjugate":
                params["tau"] = _log_uniform(rng, 0.1, 10.0)
                argv += ["--tau", _f(params["tau"])]
    digits = rng.randint(6, 12)
    argv += ["--format", fmt, "--digits", str(digits)]
    return {"cmd": "simulate", "kind": kind, "fmt": fmt, "digits": digits,
            "params": params, "argv": _joined(argv)}


def sim_ops(seed: int):
    """Endless simulate operations cycling through the six sweep kinds."""
    rng = random.Random(f"sim-sweep/{seed}")
    i = 0
    while True:
        yield _sim_op(rng, SIM_KINDS[i % 6], FORMATS[(i // 6) % 3])
        i += 1


def probe_count(attempted: int) -> int:
    """Edge inputs that keep EDGE_SHARE of the whole stream, at least one
    per known-defect region."""
    return max(len(REGIONS), round(EDGE_SHARE * attempted / (1.0 - EDGE_SHARE)))


def defect_probes(seed: int, count: int) -> list[dict]:
    """CLI operations (same shape as cli_ops) from the known-defect regions,
    in rotation."""
    rng = random.Random(f"defect-probes/cli/{seed}")
    probes = []
    for i in range(count):
        region = REGIONS[i % len(REGIONS)]
        if region == "target-near-one":
            t = rng.uniform(1.0, 3.0) * rng.choice((-1.0, 1.0))
            target = 1.0 - rng.uniform(0.05, 1.0) * 1e-9
            params = {"t": t, "target": target, "rho0": 0.5, "alpha": 0.05}
            cmd = "paradox"
        elif region == "large-t-large-tau":
            t = rng.uniform(40.0, 60.0) * rng.choice((-1.0, 1.0))
            params = {"theta0": 0.0, "sigma": 1.0, "n": rng.randint(1, 100), "t": t,
                      "tau": _log_uniform(rng, 10.0, 1000.0), "rho0": 0.5, "alpha": 0.05}
            cmd = "report"
        elif region == "negative-exponent-value":
            params = {"theta0": -_log_uniform(rng, 1e-9, 9e-5), "sigma": 1.0,
                      "n": rng.randint(1, 1000), "t": rng.uniform(-3.0, 3.0), "tau": None,
                      "rho0": 0.5, "alpha": 0.05}
            cmd = "report"
        else:
            t = rng.uniform(-3.0, 3.0)
            n = rng.randint(1, 1000)
            if i % 2:
                sigma, tau = _log_uniform(rng, 1e-300, 1e-170), None
            else:
                sigma, tau = 1.0, _log_uniform(rng, 1e160, 1e290)
            params = {"theta0": 0.0, "sigma": sigma, "n": n, "t": t, "tau": tau,
                      "rho0": 0.5, "alpha": 0.05}
            cmd = "report"
        if cmd == "paradox":
            argv = ["paradox", "--t", _f(params["t"]), "--target", _f(params["target"])]
        else:
            argv = ["report", "--theta0", _f(params["theta0"]), "--sigma", _f(params["sigma"]),
                    "--n", str(params["n"]), "--t", _f(params["t"])]
            if params["tau"] is not None:
                argv += ["--tau", _f(params["tau"])]
        argv += ["--format", "json"]
        probes.append({"region": region, "cmd": cmd, "fmt": "json", "digits": 6,
                       "params": params, "argv": argv})
    return probes
