"""Independent correctness checks for every benchmark operation.

Nothing here imports pointnull. Expected values come from the paper's
closed forms evaluated with mpmath at 40 digits (p-values, Bayes factors,
posterior probabilities, severities, scores), from integer certificates
(the crossing sample size), and from sampling bounds (the Monte Carlo
sweeps). CLI output is parsed back from JSON, CSV or table text; printed
values are accepted within the precision their format carries (full
precision for JSON and CSV comment lines, ``--digits`` significant digits
for CSV rows and tables).

``check_cli`` and ``check_simulate`` raise ``Fail`` with a one-line cause.
"""

from __future__ import annotations

import functools
import json
import math
import statistics
from dataclasses import dataclass

from mpmath import mp

mp.dps = 40

# Relative tolerance for full-precision values: far above the float error of
# the program's own arithmetic, far below any wrong formula.
REL = 1e-8
# Anything smaller than this is an underflowed value; 0.0 is its correct double.
TINY = 1e-300
# crossing_sample_size compares in log units with this documented slack.
CROSSING_SLACK = 1e-12
COLLAPSE_TOL = 1e-6
# Sampling bounds are this many standard errors wide.
SIGMAS = 5.0
# DKW bound at this false-alarm probability.
DKW_ALPHA = 1e-6

_STD = statistics.NormalDist()
_LOG_SQRT_2PI = mp.log(mp.sqrt(2 * mp.pi))


class Fail(Exception):
    """An operation's output disagrees with the oracle."""


class Refusal:
    """Expected outcome: a documented one-line error, not an answer; when
    ambiguous the inputs sit on the boundary and an answer is also fine."""

    def __init__(self, reason: str, ambiguous: bool = False) -> None:
        self.reason = reason
        self.ambiguous = ambiguous


class Num:
    def __init__(self, want, abs_tol: float = 0.0) -> None:
        self.want = mp.mpf(want)
        self.abs_tol = abs_tol


class Flag:
    def __init__(self, value: bool, ambiguous: bool = False) -> None:
        self.value = bool(value)
        self.ambiguous = ambiguous


# ---------------------------------------------------------------- closed forms


def log_bf_lindley(t, n):
    n = mp.mpf(n)
    t = mp.mpf(t)
    return mp.log1p(n) / 2 - n * t * t / (2 * (1 + n))


def p_value(t):
    return mp.erfc(abs(mp.mpf(t)) / mp.sqrt(2))


def post_prob0(log_bf, rho0):
    rho0 = mp.mpf(rho0)
    return 1 / (1 + (1 - rho0) / rho0 * mp.exp(-log_bf))


def logit(p):
    p = mp.mpf(p)
    return mp.log(p) - mp.log1p(-p)


def log_normal_pdf(x, mean, var):
    d = mp.mpf(x) - mp.mpf(mean)
    return -(d * d / var + mp.log(var)) / 2 - _LOG_SQRT_2PI


def normal_cdf(x):
    return mp.erfc(-mp.mpf(x) / mp.sqrt(2)) / 2


def normal_quantile(p):
    return mp.sqrt(2) * mp.erfinv(2 * mp.mpf(p) - 1)


def log_bf_conjugate(xbar, theta0, sigma, n, tau):
    s2 = mp.mpf(sigma) ** 2 / n
    tau2 = mp.mpf(tau) ** 2
    return log_normal_pdf(xbar, theta0, s2) - log_normal_pdf(xbar, theta0, s2 + tau2)


def log_binomial_bf_flat(n, x, theta0):
    theta0 = mp.mpf(theta0)
    log_b = mp.loggamma(x + 1) + mp.loggamma(n - x + 1) - mp.loggamma(n + 2)
    return x * mp.log(theta0) + (n - x) * mp.log(1 - theta0) - log_b


def log_required_bf(target, rho0):
    return logit(target) - logit(rho0)


def branch_floor(t):
    """Smallest log BF over integer n >= 1 at fixed t, and the branch start."""
    n_star = mp.mpf(t) ** 2 - 1
    candidates = {1}
    if n_star > 1:
        candidates.update((int(mp.floor(n_star)), int(mp.ceil(n_star))))
    return min(log_bf_lindley(t, n) for n in candidates), max(mp.mpf(1), n_star)


def crossing_n(t, target, rho0=0.5):
    """Smallest integer n on the increasing branch with BF(n) >= the
    required factor, by exact integer search; None when unreachable."""
    log_c = log_required_bf(target, rho0)
    floor_lbf, branch_lo = branch_floor(t)
    if log_c <= floor_lbf:
        return None
    lo = int(mp.ceil(branch_lo))
    if log_bf_lindley(t, lo) >= log_c:
        return lo
    hi = 2 * lo
    while log_bf_lindley(t, hi) < log_c:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if log_bf_lindley(t, mid) >= log_c:
            hi = mid
        else:
            lo = mid
    return hi


def certify_crossing(t, target, rho0, n) -> None:
    """BF(n) reaches the required factor and BF(n-1) does not, both within
    the program's documented log slack plus float rounding of the inputs."""
    log_c = log_required_bf(target, rho0)
    _, branch_lo = branch_floor(t)
    delta = 1e-13 * (1 + abs(float(log_c)))
    if not isinstance(n, int) or n < 1:
        raise Fail(f"crossing_n={n!r} is not a positive integer")
    if log_bf_lindley(t, n) < log_c - CROSSING_SLACK - delta:
        raise Fail(f"crossing_n={n}: BF(n) does not reach the required factor")
    if n - 1 >= branch_lo and log_bf_lindley(t, n - 1) >= log_c - CROSSING_SLACK + delta:
        raise Fail(f"crossing_n={n}: BF(n-1) already reaches the required factor")


def crossing_refusal(t, target, rho0):
    """Refusal when the required factor never clears the branch minimum."""
    log_c = log_required_bf(target, rho0)
    floor_lbf, _ = branch_floor(t)
    gap = float(log_c - floor_lbf)
    if abs(gap) <= 1e-12 * (1 + abs(float(log_c))):
        return Refusal("unreachable target", ambiguous=True)
    return Refusal("unreachable target") if gap <= 0 else None


# ---------------------------------------------------------------- comparison


def _num(name, got, exp: Num, rel: float) -> None:
    if isinstance(got, bool) or not isinstance(got, (int, float)):
        raise Fail(f"{name}: expected a number, got {got!r}")
    if not math.isfinite(got):
        raise Fail(f"{name}: got {got!r}, expected {mp.nstr(exp.want, 12)}")
    tol = rel * abs(exp.want) + exp.abs_tol + TINY
    if abs(mp.mpf(got) - exp.want) > tol:
        raise Fail(f"{name}: got {got!r}, expected {mp.nstr(exp.want, 17)}")


def _either(name, value) -> None:
    """Expectation for a value on a decision boundary: anything goes."""


def check_fields(where: str, got: dict, expected: dict, rel: float) -> None:
    missing = expected.keys() - got.keys()
    extra = got.keys() - expected.keys()
    if missing or extra:
        raise Fail(f"{where}: missing {sorted(missing)} extra {sorted(extra)}")
    for key, exp in expected.items():
        value = got[key]
        name = f"{where}.{key}"
        if isinstance(exp, Num):
            _num(name, value, exp, rel)
        elif isinstance(exp, Flag):
            if not isinstance(value, bool):
                raise Fail(f"{name}: expected a boolean, got {value!r}")
            if value != exp.value and not exp.ambiguous:
                raise Fail(f"{name}: got {value}, expected {exp.value}")
        elif exp is None:
            if value is not None:
                raise Fail(f"{name}: got {value!r}, expected no value")
        elif callable(exp):
            exp(name, value)
        elif isinstance(value, bool) or value != exp:
            raise Fail(f"{name}: got {value!r}, expected {exp!r}")


# ---------------------------------------------------------------- parsing


def _value(text: str):
    if text == "true":
        return True
    if text == "false":
        return False
    if text == "":
        return None
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def _pairs(text: str) -> dict:
    out = {}
    for token in text.split(" "):
        key, sep, value = token.partition("=")
        if not sep:
            raise Fail(f"malformed comment token {token!r}")
        out[key] = _value(value)
    return out


@dataclass
class Parsed:
    """One CLI emission: echoed inputs, scalar results and rows, with the
    relative precision each part was printed at."""

    command: str
    inputs: dict
    scalars: dict
    rows: list | None
    scalar_rel: float
    row_rel: float
    input_rel: float
    extra_scalars: dict | None = None  # CSV key,value block, printed at --digits


def digits_rel(digits: int) -> float:
    return max(REL, 10.0 ** (1 - digits))


def parse(stdout: str, fmt: str, digits: int) -> Parsed:
    try:
        if fmt == "json":
            return _parse_json(stdout)
        if fmt == "csv":
            return _parse_csv(stdout, digits)
        return _parse_table(stdout, digits)
    except Fail:
        raise
    except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
        raise Fail(f"unparseable {fmt} output: {type(exc).__name__}: {exc}") from None


def _parse_json(stdout: str) -> Parsed:
    env = json.loads(stdout)
    if set(env) != {"format_version", "command", "inputs", "results", "provenance"}:
        raise Fail(f"envelope keys {sorted(env)}")
    if env["format_version"] != "1":
        raise Fail(f"format_version {env['format_version']!r}")
    results = dict(env["results"])
    rows = results.pop("rows", None)
    return Parsed(env["command"], env["inputs"], results, rows, REL, REL, REL)


def _parse_csv(stdout: str, digits: int) -> Parsed:
    lines = stdout.rstrip("\n").split("\n")
    head = _pairs(lines[0][2:])
    if not lines[0].startswith("# ") or head.get("format_version") != 1:
        raise Fail(f"bad CSV header {lines[0]!r}")
    inputs, scalars = {}, {}
    i = 1
    while i < len(lines) and lines[i].startswith("# "):
        kind, _, rest = lines[i][2:].partition(" ")
        if kind == "input":
            inputs = _pairs(rest)
        elif kind == "result":
            scalars = _pairs(rest)
        elif kind != "provenance":
            raise Fail(f"unknown CSV comment {lines[i]!r}")
        i += 1
    header = lines[i].split(",")
    body = [line.split(",") for line in lines[i + 1:]]
    rel = digits_rel(digits)
    parsed = Parsed(head["command"], inputs, scalars, None, REL, rel, REL)
    if header == ["key", "value"]:
        parsed.extra_scalars = {k: _value(v) for k, v in body}
    else:
        parsed.rows = [
            {c: _value(v) for c, v in zip(header, cells, strict=True)} for cells in body
        ]
    return parsed


def _parse_table(stdout: str, digits: int) -> Parsed:
    lines = stdout.rstrip("\n").split("\n")
    command, _, tail = lines[0].partition("  ")
    if tail != "(format_version 1)":
        raise Fail(f"bad table header {lines[0]!r}")
    sections = {"inputs:": {}, "results:": {}}
    current = None
    i = 1
    while i < len(lines) and lines[i] != "":
        line = lines[i]
        if line in sections:
            current = sections[line]
        elif current is not None and line.startswith("  "):
            key, _, value = line[2:].partition(" = ")
            current[key] = _value(value)
        else:
            raise Fail(f"unexpected table line {line!r}")
        i += 1
    rows = None
    if i < len(lines):
        header, dashes = lines[i + 1], lines[i + 2]
        spans, pos = [], 0
        for group in dashes.split("  "):
            spans.append((pos, pos + len(group)))
            pos += len(group) + 2
        columns = [header[a:b].strip() for a, b in spans]
        rows = []
        for line in lines[i + 3:]:
            cells = [line[a:b].strip() if j < len(spans) - 1 else line[a:].strip()
                     for j, (a, b) in enumerate(spans)]
            rows.append({c: _value(v) for c, v in zip(columns, cells)})
    rel = digits_rel(digits)
    return Parsed(command, sections["inputs:"], sections["results:"], rows, rel, rel, rel)


# ---------------------------------------------------------------- CLI commands


def _flags_report(p_val, alpha, log_bf):
    reject = Flag(p_val <= alpha, abs(p_val - alpha) <= 1e-9 * alpha)
    favor = Flag(log_bf >= 0, abs(log_bf) <= 1e-9)
    paradox = Flag(reject.value and favor.value, reject.ambiguous or favor.ambiguous)
    return reject, favor, paradox


def _xbar(p: dict) -> float:
    # --t means "xbar sits t standard errors above theta0", computed in
    # doubles exactly as the flag is documented
    if "t" in p:
        return p["theta0"] + p["t"] * p["sigma"] / math.sqrt(p["n"])
    return p["xbar"]


def expect_report(p: dict):
    theta0, sigma, n = p["theta0"], p["sigma"], p["n"]
    xbar = _xbar(p)
    tau = sigma if p.get("tau") is None else p["tau"]
    rho0, alpha = p.get("rho0", 0.5), p.get("alpha", 0.05)
    sem = mp.mpf(sigma) / mp.sqrt(n)
    t = (mp.mpf(xbar) - theta0) / sem
    pv = p_value(t)
    log_bf = log_bf_conjugate(xbar, theta0, sigma, n, tau)
    bf = mp.exp(log_bf)
    reject, favor, paradox = _flags_report(pv, alpha, log_bf)
    inputs = {"theta0": Num(theta0), "sigma": Num(sigma), "n": n, "xbar": Num(xbar),
              "tau": Num(tau), "rho0": Num(rho0), "alpha": Num(alpha)}
    results = {
        "t": Num(t, abs_tol=1e-9),
        "p_value": Num(pv),
        "bf01": Num(bf),
        "bf01_savage_dickey": Num(bf),
        "post_prob0": Num(post_prob0(log_bf, rho0)),
        "reject_frequentist": reject,
        "favor_null_bayes": favor,
        "paradoxical": paradox,
    }
    return inputs, results, None


def _paradox_rows(t, rho0, alpha, n):
    pv = p_value(t)
    rows = []
    for m in sorted({max(1, n // 100), max(1, n // 10), max(1, n - 1), n, 10 * n}):
        log_bf = log_bf_lindley(t, m)
        reject, favor, paradox = _flags_report(pv, alpha, log_bf)
        rows.append({"n": m, "p_value": Num(pv), "bf01": Num(mp.exp(log_bf)),
                     "post_prob0": Num(post_prob0(log_bf, rho0)), "paradoxical": paradox})
    return rows


def expect_paradox(p: dict, scalars: dict):
    t, target = p["t"], p["target"]
    rho0, alpha = p.get("rho0", 0.5), p.get("alpha", 0.05)
    n = scalars.get("crossing_n")
    certify_crossing(t, target, rho0, n)
    inputs = {"t": Num(t), "target": Num(target), "rho0": Num(rho0), "alpha": Num(alpha)}
    results = {"crossing_n": n, "required_bf": Num(mp.exp(log_required_bf(target, rho0)))}
    return inputs, results, _paradox_rows(t, rho0, alpha, n)


def severity_grid(xbar, sem, lo, hi, points):
    """The CLI's documented grid: evenly spaced from lo to hi in doubles."""
    lo = xbar - 3.0 * sem if lo is None else lo
    hi = xbar + 3.0 * sem if hi is None else hi
    if points == 1:
        return lo, hi, [lo]
    step = (hi - lo) / (points - 1)
    grid = [lo + i * step for i in range(points)]
    grid[-1] = hi
    return lo, hi, grid


def warranted_gamma(xbar, theta0, sigma, n, level):
    sem = mp.mpf(sigma) / mp.sqrt(n)
    z = normal_quantile(level)
    gamma = (mp.mpf(xbar) - theta0) - z * sem
    scale = abs(mp.mpf(xbar)) + abs(theta0) + abs(z) * sem
    return gamma, float(scale)


def expect_severity(p: dict):
    theta0, sigma, n, xbar, level = p["theta0"], p["sigma"], p["n"], p["xbar"], p["level"]
    sem_f = sigma / math.sqrt(n)
    lo, hi, grid = severity_grid(xbar, sem_f, p.get("grid_lo"), p.get("grid_hi"),
                                 p["grid_points"])
    sem = mp.mpf(sigma) / mp.sqrt(n)
    rows = []
    for th in grid:
        rows.append({
            "theta1": Num(th),
            "gamma": Num(mp.mpf(th) - theta0, abs_tol=1e-15 * (abs(th) + abs(theta0))),
            "severity": Num(normal_cdf((mp.mpf(xbar) - th) / sem)),
        })
    gamma, scale = warranted_gamma(xbar, theta0, sigma, n, level)
    g = Num(gamma, abs_tol=1e-12 * scale)
    rows.append({"theta1": Num(theta0 + gamma, abs_tol=1e-12 * scale), "gamma": g,
                 "severity": Num(level)})
    inputs = {"theta0": Num(theta0), "sigma": Num(sigma), "n": n, "xbar": Num(xbar),
              "level": Num(level), "grid_lo": Num(lo), "grid_hi": Num(hi),
              "grid_points": p["grid_points"]}
    return inputs, {"warranted_gamma": g}, rows


def expect_binomial(p: dict):
    n, x, theta0 = p["n"], p["x"], p["theta0"]
    phat = mp.mpf(x) / n
    z = (phat - theta0) / mp.sqrt(mp.mpf(theta0) * (1 - mp.mpf(theta0)) / n)
    spread = n * phat * (1 - phat)
    laplace = None
    if spread > 25:
        lam = 2 * n * (phat * mp.log(phat / theta0)
                       + (1 - phat) * mp.log((1 - phat) / (1 - mp.mpf(theta0))))
        laplace = Num(mp.exp(-lam / 2) * mp.sqrt(n / (2 * mp.pi * phat * (1 - phat))))
    if abs(spread - 25) < 1e-6:
        laplace = _either  # on the domain boundary
    inputs = {"n": n, "x": x, "theta0": Num(theta0)}
    results = {
        "phat": Num(phat),
        "z": Num(z, abs_tol=1e-9),
        "p_value": Num(p_value(z), abs_tol=1e-12),
        "bf_flat": Num(mp.exp(log_binomial_bf_flat(n, x, theta0))),
        "bf_laplace": laplace,
    }
    return inputs, results, None


def score_values(rule, theta0, sigma, n, xbar, tau, c):
    """(s0, s1, scale) for one scoring rule; tau None means the flat prior."""
    v0 = mp.mpf(sigma) ** 2 / n
    d = mp.mpf(xbar) - theta0
    v1 = None if tau is None else v0 + mp.mpf(tau) ** 2
    if rule == "log":
        s0 = -log_normal_pdf(xbar, theta0, v0)
        s1 = -mp.log(c) if v1 is None else -log_normal_pdf(xbar, theta0, v1)
        scale = abs(mp.log(v0)) + d * d / v0 + abs(mp.log(c)) + 1
    elif rule == "hyvarinen":
        s0 = -2 / v0 + d * d / v0 ** 2
        s1 = 0 if v1 is None else -2 / v1 + d * d / v1 ** 2
        scale = 2 / v0 + d * d / v0 ** 2
    else:
        tau2 = mp.mpf(tau) ** 2
        mu_n = (tau2 * xbar + v0 * theta0) / (tau2 + v0)
        omega2 = v0 * tau2 / (tau2 + v0)
        s0 = n * (omega2 + (mu_n - theta0) ** 2) / (2 * mp.mpf(sigma) ** 2)
        s1 = mp.mpf(0)
        scale = abs(s0)
    return s0, s1, float(scale)


def expect_score(p: dict):
    theta0, sigma, n = p["theta0"], p["sigma"], p["n"]
    xbar = _xbar(p)
    rule, c = p["rule"], p["c"]
    conjugate = p["alt"] == "conjugate"
    tau = (sigma if p["tau"] is None else p["tau"]) if conjugate else None
    s0, s1, scale = score_values(rule, theta0, sigma, n, xbar, tau, c)
    tol = REL * scale
    diff = s0 - s1
    if abs(diff) <= tol:
        selection = _either  # numerically a tie
        select_null = Flag(True, ambiguous=True)
        tie = Flag(False, ambiguous=True)
    else:
        selection = "H0" if diff < 0 else "H1"
        select_null = Flag(diff < 0)
        tie = Flag(False)
    inputs = {
        "rule": rule, "theta0": Num(theta0), "sigma": Num(sigma), "n": n, "xbar": Num(xbar),
        "prior": "conjugate-normal" if conjugate else "improper-flat",
        "tau": Num(tau) if conjugate else None, "c": Num(c if not conjugate else 1.0),
    }
    results = {
        "s0": Num(s0, abs_tol=tol), "s1": Num(s1, abs_tol=tol), "diff": Num(diff, abs_tol=tol),
        "selection": selection, "select_null": select_null, "tie": tie,
        "c_dependent": Flag(rule == "log" and not conjugate),
    }
    return inputs, results, None


# (anchor, expected, tolerance) exactly as the paper states them
PAPER_ANCHORS = (
    ("crossing_equal_weights", 16818, 0.0),
    ("crossing_ten_to_one", 164, 0.0),
    ("crossing_t_zero", 360, 0.0),
    ("bf_at_crossing", 19.0, 1e-3),
    ("posterior_at_crossing", 0.95, 1e-4),
    ("p_value_at_1.96", 0.05, 1e-4),
    ("stone_binomial_p", 0.0027, 2e-4),
    ("stone_binomial_bf_flat", 8.115, 0.05),
    ("savage_dickey_relative_deviation", 0.0, 1e-10),
    ("prior_scale_relative_deviation", 0.0, 1e-12),
    ("log_score_identity_deviation", 0.0, 1e-12),
)
STONE = (527135, 106298, 0.2)


def paper_values() -> dict:
    """The oracle's own values for every anchor (deviations are zero)."""
    log_bf = log_bf_lindley(1.96, 16818)
    n, x, theta0 = STONE
    phat = mp.mpf(x) / n
    z = (phat - theta0) / mp.sqrt(mp.mpf(theta0) * (1 - mp.mpf(theta0)) / n)
    return {
        "crossing_equal_weights": crossing_n(1.96, 0.95, 0.5),
        "crossing_ten_to_one": crossing_n(1.96, 0.95, 10.0 / 11.0),
        "crossing_t_zero": crossing_n(0.0, 0.95, 0.5),
        "bf_at_crossing": mp.exp(log_bf),
        "posterior_at_crossing": post_prob0(log_bf, 0.5),
        "p_value_at_1.96": p_value(1.96),
        "stone_binomial_p": p_value(z),
        "stone_binomial_bf_flat": mp.exp(log_binomial_bf_flat(n, x, theta0)),
        "savage_dickey_relative_deviation": mp.mpf(0),
        "prior_scale_relative_deviation": mp.mpf(0),
        "log_score_identity_deviation": mp.mpf(0),
    }


def expect_paper_check(p: dict):
    values = paper_values()
    rows = []
    for name, expected, tol in PAPER_ANCHORS:
        mine = values[name]
        if abs(mine - expected) > tol:
            raise Fail(f"oracle does not reproduce anchor {name}")
        if isinstance(expected, int):
            got = mine
        elif name.endswith("deviation"):
            got = functools.partial(_deviation, tol=tol)
        else:
            got = Num(mine)
        rows.append({"anchor": name, "expected": Num(expected), "got": got,
                     "tolerance": Num(tol), "status": "pass"})
    return {"demo_fail": Flag(False)}, {"all_pass": Flag(True)}, rows


def _deviation(name, value, tol):
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not 0 <= value <= tol:
        raise Fail(f"{name}: deviation {value!r} outside [0, {tol}]")


_EXPECT = {
    "report": lambda p, s: expect_report(p),
    "paradox": expect_paradox,
    "severity": lambda p, s: expect_severity(p),
    "binomial": lambda p, s: expect_binomial(p),
    "score": lambda p, s: expect_score(p),
    "paper-check": lambda p, s: expect_paper_check(p),
}


def _is_refusal(code: int, stdout: str, stderr: str) -> bool:
    lines = stderr.rstrip("\n").split("\n")
    return code in (1, 2) and stdout == "" and len(lines) == 1 and lines[0].startswith("error: ")


def check_cli(op: dict, code: int, stdout: str, stderr: str) -> dict:
    """Check one closed-form CLI operation; returns facts the benchmark
    records (the crossing sample size when there is one)."""
    if "Traceback (most recent call last)" in stderr:
        raise Fail("traceback: " + stderr.rstrip().rsplit("\n", 1)[-1])
    cmd, params = op["cmd"], op["params"]
    refusal = None
    if cmd == "paradox":
        refusal = crossing_refusal(params["t"], params["target"], params.get("rho0", 0.5))
    if _is_refusal(code, stdout, stderr):
        if refusal is not None:
            return {"refused": True}
        raise Fail("refused where an answer exists: " + stderr.strip())
    if code != 0 or not stdout:
        last = stderr.strip().splitlines()[-1] if stderr.strip() else "no output"
        raise Fail(f"exit {code}: {last}")
    if refusal is not None and not refusal.ambiguous:
        raise Fail(f"answered where the oracle expects a refusal ({refusal.reason})")
    parsed = parse(stdout, op["fmt"], op["digits"])
    if parsed.command != cmd:
        raise Fail(f"command {parsed.command!r} echoed for {cmd!r}")
    inputs, scalars, rows = _EXPECT[cmd](params, parsed.scalars)
    check_fields(cmd + ".inputs", parsed.inputs, inputs, parsed.input_rel)
    check_fields(cmd + ".results", parsed.scalars, scalars, parsed.scalar_rel)
    if parsed.extra_scalars is not None:
        check_fields(cmd + ".key_value", parsed.extra_scalars, scalars, digits_rel(op["digits"]))
    if (rows is None) != (parsed.rows is None) or (rows and len(rows) != len(parsed.rows)):
        raise Fail(f"{cmd}: row count differs from the oracle")
    for i, (got, exp) in enumerate(zip(parsed.rows or (), rows or ())):
        check_fields(f"{cmd}.rows[{i}]", got, exp, parsed.row_rel)
    return {"crossing_n": parsed.scalars.get("crossing_n")}


# ---------------------------------------------------------------- simulate


def _tail(c: float, delta: float) -> float:
    """P(|Z + delta| > c) for standard normal Z."""
    return _STD.cdf(-c - delta) + _STD.cdf(-c + delta)


def _rate_tol(prob: float, reps: int) -> float:
    return SIGMAS * math.sqrt(max(prob * (1.0 - prob), 0.0) / reps) + 3.0 / reps


def _within(name, got, lo, hi, fmt_rel):
    if isinstance(got, bool) or not isinstance(got, (int, float)):
        raise Fail(f"{name}: expected a number, got {got!r}")
    pad = fmt_rel * max(abs(lo), abs(hi)) + TINY
    if not lo - pad <= got <= hi + pad:
        raise Fail(f"{name}: {got!r} outside its sampling bound [{lo:.6g}, {hi:.6g}]")


def _folded_median(delta: float) -> float:
    lo, hi = 0.0, abs(delta) + 10.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if 1.0 - _tail(mid, delta) < 0.5:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _lbf_f(t: float, n: int) -> float:
    return 0.5 * math.log1p(n) - n * t * t / (2.0 * (1.0 + n))


def _p_f(t: float) -> float:
    return math.erfc(abs(t) / math.sqrt(2.0))


def _check_consistency_row(name, row, n, delta, reps, alpha, rel):
    z_alpha = _STD.inv_cdf(1.0 - alpha / 2.0)
    c_bf = math.sqrt(2.0 * (1.0 + n) / n * (0.5 * math.log1p(n) - math.log(COLLAPSE_TOL)))
    c_p = _STD.inv_cdf(1.0 - COLLAPSE_TOL / 2.0)
    for key, cut in (("reject_rate", z_alpha), ("bf_collapse_rate", c_bf),
                     ("joint_collapse_rate", max(c_bf, c_p))):
        prob = _tail(cut, delta)
        tol = _rate_tol(prob, reps)
        _within(f"{name}.{key}", row[key], prob - tol, prob + tol, rel)
    m = _folded_median(delta)
    density = _STD.pdf(m - delta) + _STD.pdf(m + delta)
    band = 6.0 * (1.0 / (2.0 * density * math.sqrt(reps))) + 1e-12
    lo, hi = max(0.0, m - band), m + band
    _within(f"{name}.median_p_value", row["median_p_value"], _p_f(hi), _p_f(lo), rel)
    _within(f"{name}.median_log_bf", row["median_log_bf"], _lbf_f(hi, n), _lbf_f(lo, n), rel)


def _check_score_row(name, row, n, delta, reps, sigma, tau, rel):
    v0 = sigma * sigma / n
    cut2 = 2.0 if tau is None else 2.0 * (v0 + tau * tau) / (v0 + v0 + tau * tau)
    prob_null = 1.0 - _tail(math.sqrt(cut2), delta)
    tol = _rate_tol(prob_null, reps)
    _within(f"{name}.select_null_rate", row["select_null_rate"], prob_null - tol,
            prob_null + tol, rel)
    _within(f"{name}.select_alt_rate", row["select_alt_rate"], 1.0 - prob_null - tol,
            1.0 - prob_null + tol, rel)
    _within(f"{name}.tie_rate", row["tie_rate"], 0.0, 3.0 / reps, rel)
    total = row["select_null_rate"] + row["select_alt_rate"] + row["tie_rate"]
    if abs(total - 1.0) > 3 * rel + 1e-12:
        raise Fail(f"{name}: rates sum to {total!r}")


def ks_true_distance(noncentrality: float) -> float:
    """sup_u |P(p <= u) - u| for p-values of t ~ N(noncentrality, 1)."""
    if noncentrality == 0.0:
        return 0.0

    def gap(u):
        return abs(_tail(_STD.inv_cdf(1.0 - u / 2.0), noncentrality) - u)

    grid = [i / 4000.0 for i in range(1, 4000)]
    best = max(grid, key=gap)
    lo, hi = max(1e-9, best - 1 / 4000.0), min(1.0 - 1e-9, best + 1 / 4000.0)
    for _ in range(80):
        a, b = lo + (hi - lo) / 3.0, hi - (hi - lo) / 3.0
        if gap(a) < gap(b):
            lo = a
        else:
            hi = b
    return max(gap(best), gap(0.5 * (lo + hi)))


def dkw_bound(reps: int) -> float:
    return math.sqrt(math.log(2.0 / DKW_ALPHA) / (2.0 * reps))


def check_simulate(op: dict, code: int, stdout: str, stderr: str) -> None:
    """Check one simulate operation against its sampling bounds."""
    if "Traceback (most recent call last)" in stderr:
        raise Fail("traceback: " + stderr.rstrip().rsplit("\n", 1)[-1])
    if code != 0:
        last = stderr.strip().splitlines()[-1] if stderr.strip() else "no output"
        raise Fail(f"exit {code}: {last}")
    p = op["params"]
    parsed = parse(stdout, op["fmt"], op["digits"])
    if parsed.command != "simulate" or not parsed.rows:
        raise Fail("simulate emitted no rows")
    rel = parsed.row_rel
    kind, reps = p["kind"], p["reps"]
    if kind == "uniformity":
        inputs = {"kind": kind, "seed": p["seed"], "reps": reps,
                  "noncentrality": Num(p["noncentrality"])}
        check_fields("simulate.inputs", parsed.inputs, inputs, parsed.input_rel)
        if len(parsed.rows) != 1:
            raise Fail("uniformity emits one row")
        row = parsed.rows[0]
        check_fields("simulate.rows[0]", {k: row[k] for k in ("replications", "noncentrality")},
                     {"replications": reps, "noncentrality": Num(p["noncentrality"])}, rel)
        true, eps = ks_true_distance(p["noncentrality"]), dkw_bound(reps)
        _within("simulate.ks_distance", row["ks_distance"], max(0.0, true - eps) - 1e-4,
                true + eps + 1e-4, rel)
        return
    inputs = {"kind": kind, "theta_true": Num(p["theta_true"]), "theta0": Num(p["theta0"]),
              "sigma": Num(p["sigma"]), "n_grid": ",".join(str(n) for n in p["n_grid"]),
              "reps": reps, "seed": p["seed"]}
    if kind == "consistency":
        inputs["alpha"] = Num(p["alpha"])
    else:
        inputs["prior"] = "improper-flat" if p["tau"] is None else "conjugate-normal"
    check_fields("simulate.inputs", parsed.inputs, inputs, parsed.input_rel)
    if [row.get("n") for row in parsed.rows] != list(p["n_grid"]):
        raise Fail("simulate rows do not follow the grid")
    for i, (row, n) in enumerate(zip(parsed.rows, p["n_grid"])):
        delta = (p["theta_true"] - p["theta0"]) * math.sqrt(n) / p["sigma"]
        name = f"simulate.rows[{i}]"
        if kind == "consistency":
            _check_consistency_row(name, row, n, delta, reps, p["alpha"], rel)
        else:
            _check_score_row(name, row, n, delta, reps, p["sigma"], p["tau"], rel)

