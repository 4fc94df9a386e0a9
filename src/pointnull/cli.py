"""Command-line surface.

Seven subcommands cover the whole calculus: report (one problem, both
verdicts), paradox (crossing sample size plus a bracketing table), severity
(curves and the warranted discrepancy), binomial (count-data test), score
(scoring-rule comparisons), simulate (seeded Monte Carlo sweeps), and
paper-check (regression over the built-in reference anchors). Every command
emits a versioned envelope as JSON, CSV, or an aligned table; all output is
deterministic given the full flag set.
"""

from __future__ import annotations

import argparse
import importlib
import math
import sys
from typing import Any

from . import __getattr__ as _package_getattr

__all__ = ["FORMAT_VERSION", "UsageError", "main"]

FORMAT_VERSION = "1"

# A severity grid is built as a Python list; this many points take about
# half a second and 90 MB.
_MAX_GRID_POINTS = 100_000


# The handlers read library names as globals of this module. Each handler
# first binds the modules it calls with _load, so a call loads only what its
# subcommand runs. A bound name is never rebound, so a stand-in set here (a
# test double, a tracing wrapper) is what the handlers call.
def _load(*modules: str) -> None:
    """Import each library module and bind its exports not yet bound here."""
    namespace = globals()
    for module in modules:
        library = importlib.import_module(f".{module}", __package__)
        for name in library.__all__:
            namespace.setdefault(name, getattr(library, name))


def __getattr__(name: str) -> Any:
    """Serve a library name not yet bound here through the package's lookup."""
    try:
        return _package_getattr(name)
    except AttributeError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None


class UsageError(Exception):
    """Flag combination the parser alone cannot reject."""


def _fmt(value: Any, digits: int | None = None) -> str:
    """Output text for a value; a float in full (repr) unless digits is given."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value) if digits is None else f"{value:.{digits}g}"
    return str(value)


def render_json(env: dict) -> str:
    # imported here, so csv and table calls never load json
    import json

    return json.dumps(env, indent=2, allow_nan=False) + "\n"


def _split_results(env: dict) -> tuple[dict, list[dict]]:
    results = env["results"]
    rows = results.get("rows", [])
    scalars = {k: v for k, v in results.items() if k != "rows"}
    return scalars, rows


def render_csv(env: dict, digits: int) -> str:
    scalars, rows = _split_results(env)
    lines = [f"# format_version={env['format_version']} command={env['command']}"]
    # comment-line values keep full precision so the emission is
    # recomputable without the JSON twin
    if env["inputs"]:
        lines.append("# input " + " ".join(f"{k}={_fmt(v)}" for k, v in env["inputs"].items()))
    if scalars:
        lines.append("# result " + " ".join(f"{k}={_fmt(v)}" for k, v in scalars.items()))
    for name, tag in env.get("provenance", []):
        lines.append(f"# provenance {name}={tag}")
    if rows:
        columns = list(rows[0].keys())
        lines.append(",".join(columns))
        for row in rows:
            lines.append(",".join(_fmt(row[c], digits) for c in columns))
    else:
        lines.append("key,value")
        for k, v in scalars.items():
            lines.append(f"{k},{_fmt(v, digits)}")
    return "\n".join(lines) + "\n"


def render_table(env: dict, digits: int) -> str:
    scalars, rows = _split_results(env)
    lines = [f"{env['command']}  (format_version {env['format_version']})"]
    if env["inputs"]:
        lines.append("inputs:")
        for k, v in env["inputs"].items():
            lines.append(f"  {k} = {_fmt(v, digits)}")
    if scalars:
        lines.append("results:")
        for k, v in scalars.items():
            lines.append(f"  {k} = {_fmt(v, digits)}")
    if rows:
        columns = list(rows[0].keys())
        cells = [[_fmt(r[c], digits) for c in columns] for r in rows]
        widths = [
            max(len(col), *(len(row[i]) for row in cells)) for i, col in enumerate(columns)
        ]
        lines.append("")
        lines.append("  ".join(col.ljust(w) for col, w in zip(columns, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for row in cells:
            lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines) + "\n"


def _render(env: dict, fmt: str, digits: int) -> str:
    if fmt == "json":
        return render_json(env)
    if fmt == "csv":
        return render_csv(env, digits)
    return render_table(env, digits)


def _check_finite(results: dict) -> None:
    """Refuse a nan or infinite result, naming it, whatever the output format."""
    fields = [(k, v) for k, v in results.items() if k != "rows"]
    for i, row in enumerate(results.get("rows", [])):
        fields += [(f"rows[{i}].{k}", v) for k, v in row.items()]
    for name, value in fields:
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"result {name} is {value!r}, not a finite number")


def _problem_from_args(args: argparse.Namespace) -> NormalProblem:
    if args.t is not None:
        return NormalProblem.from_t(args.t, args.n, theta0=args.theta0, sigma=args.sigma)
    return NormalProblem(theta0=args.theta0, sigma=args.sigma, n=args.n, xbar=args.xbar)


def _prior_from_args(args: argparse.Namespace, sigma: float) -> AlternativePrior:
    # the parser's group already refuses --tau with --tau-equals-sigma
    scale_given = args.tau is not None or args.tau_equals_sigma
    if args.alt == "flat" and scale_given:
        raise UsageError("--alt flat conflicts with a conjugate scale flag")
    if scale_given or args.alt == "conjugate":
        if args.c is not None:
            raise UsageError("--c applies only to the flat alternative")
        return AlternativePrior.conjugate(sigma if args.tau is None else args.tau)
    return AlternativePrior.flat(c=1.0 if args.c is None else args.c)


def cmd_report(args: argparse.Namespace) -> tuple[dict, dict, list]:
    _load("normal")
    problem = _problem_from_args(args)
    # report always uses the proper conjugate alternative; tau defaults to
    # sigma, which is also what --tau-equals-sigma spells out
    prior = AlternativePrior.conjugate(args.tau if args.tau is not None else problem.sigma)
    weights = HypothesisWeights(rho0=args.rho0)
    report = evaluate_test(problem, prior, weights, args.alpha)
    inputs = {
        "theta0": problem.theta0,
        "sigma": problem.sigma,
        "n": problem.n,
        "xbar": problem.xbar,
        "tau": prior.tau,
        "rho0": weights.rho0,
        "alpha": args.alpha,
    }
    results = {
        "t": report.t,
        "p_value": report.p_value,
        "bf01": report.bf01,
        "bf01_savage_dickey": savage_dickey_bf(problem, prior),
        "post_prob0": report.post_prob0,
        "reject_frequentist": report.reject_frequentist,
        "favor_null_bayes": report.favor_null_bayes,
        "paradoxical": report.paradoxical,
    }
    provenance = [
        ["p_value", "closed-form"],
        ["bf01", "conjugate-marginal-ratio"],
        ["bf01_savage_dickey", "posterior-to-prior-density-ratio"],
        ["post_prob0", "odds-identity"],
    ]
    return inputs, results, provenance


def cmd_paradox(args: argparse.Namespace) -> tuple[dict, dict, list]:
    _load("normal", "paradox")
    query = ParadoxQuery(
        t=args.t,
        target_post_prob=args.target,
        weights=HypothesisWeights(rho0=args.rho0),
        alpha=args.alpha,
    )
    n = crossing_sample_size(query)
    marks = sorted({max(1, n // 100), max(1, n // 10), max(1, n - 1), n, 10 * n})
    rows = [
        {
            "n": m,
            "p_value": r.p_value,
            "bf01": r.bf01,
            "post_prob0": r.post_prob0,
            "paradoxical": r.paradoxical,
        }
        for m, r in paradox_table(query, marks)
    ]
    inputs = {"t": args.t, "target": args.target, "rho0": args.rho0, "alpha": args.alpha}
    results = {"crossing_n": n, "required_bf": required_bf(query), "rows": rows}
    provenance = [["crossing_n", "integer-bisection"], ["rows", "closed-form"]]
    return inputs, results, provenance


def cmd_severity(args: argparse.Namespace) -> tuple[dict, dict, list]:
    _load("normal", "severity")
    problem = NormalProblem(theta0=args.theta0, sigma=args.sigma, n=args.n, xbar=args.xbar)
    query = SeverityQuery(problem=problem, level=args.level)
    sem = problem.sem
    lo = args.grid_lo if args.grid_lo is not None else problem.xbar - 3.0 * sem
    hi = args.grid_hi if args.grid_hi is not None else problem.xbar + 3.0 * sem
    if args.grid_points < 1:
        raise UsageError("--grid-points must be at least 1")
    if args.grid_points > _MAX_GRID_POINTS:
        raise UsageError(f"--grid-points must be at most {_MAX_GRID_POINTS}")
    if args.grid_points == 1:
        grid = [lo]
    else:
        step = (hi - lo) / (args.grid_points - 1)
        grid = [lo + i * step for i in range(args.grid_points)]
        grid[-1] = hi
        if args.grid_lo is None and args.grid_hi is None and any(
            b <= a for a, b in zip(grid, grid[1:])
        ):
            raise UsageError(
                f"the default grid xbar +/- 3*sem collapses at |xbar| = {abs(problem.xbar):.6g} "
                f"(sem = {sem:.6g}); pass --grid-lo and --grid-hi"
            )
    curve = severity_curve(query, grid)
    rows = [
        {"theta1": th, "gamma": th - problem.theta0, "severity": sev}
        for th, sev in curve.points
    ]
    # footer row: the warranted point itself lies on the curve, so it is a
    # valid (theta1, gamma, severity) triple
    g = curve.warranted_gamma
    rows.append({"theta1": problem.theta0 + g, "gamma": g, "severity": args.level})
    inputs = {
        "theta0": problem.theta0,
        "sigma": problem.sigma,
        "n": problem.n,
        "xbar": problem.xbar,
        "level": args.level,
        "grid_lo": lo,
        "grid_hi": hi,
        "grid_points": args.grid_points,
    }
    results = {"warranted_gamma": g, "rows": rows}
    provenance = [
        ["warranted_gamma", "closed-form"],
        ["rows", "closed-form; final row is the warranted point"],
    ]
    return inputs, results, provenance


def cmd_binomial(args: argparse.Namespace) -> tuple[dict, dict, list]:
    _load("binomial")
    problem = BinomialProblem(n=args.n, x=args.x, theta0=args.theta0)
    z = binomial_z(problem)
    p = binomial_p_value(problem)
    bf_flat = binomial_bf_flat(problem)
    provenance = [
        ["z", "normal-approximation-null-sd"],
        ["p_value", "normal-approximation-null-sd"],
        ["bf_flat", "exact-flat-prior-integral"],
    ]
    try:
        bf_laplace = binomial_bf_laplace(problem)
        provenance.append(["bf_laplace", "laplace-approximation"])
    except ValueError as exc:
        bf_laplace = None
        provenance.append(["bf_laplace", f"unavailable: {exc}"])
    inputs = {"n": problem.n, "x": problem.x, "theta0": problem.theta0}
    results = {
        "phat": problem.phat,
        "z": z,
        "p_value": p,
        "bf_flat": bf_flat,
        "bf_laplace": bf_laplace,
    }
    return inputs, results, provenance


def cmd_score(args: argparse.Namespace) -> tuple[dict, dict, list]:
    _load("normal", "scores")
    problem = _problem_from_args(args)
    prior = _prior_from_args(args, problem.sigma)
    if args.rule == "log":
        report = log_score_compare(problem, prior)
    elif args.rule == "hyvarinen":
        report = hyvarinen_compare(problem, prior)
    else:
        report = sprenger_kl_report(problem, prior)
    inputs = {
        "rule": args.rule,
        "theta0": problem.theta0,
        "sigma": problem.sigma,
        "n": problem.n,
        "xbar": problem.xbar,
        "prior": prior.kind,
        "tau": prior.tau,
        "c": prior.c,
    }
    results = {
        "s0": report.s0,
        "s1": report.s1,
        "diff": report.diff,
        "selection": report.selection,
        "select_null": report.select_null,
        "tie": report.tie,
        "c_dependent": report.c_dependent,
    }
    provenance = [["s0", "penalty-convention"], ["s1", "penalty-convention"]]
    return inputs, results, provenance


def _parse_grid(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise UsageError(f"--n-grid needs comma-separated integers, got {text!r}") from exc


def cmd_simulate(args: argparse.Namespace) -> tuple[dict, dict, list]:
    _load("paradox")
    if args.reps < 1:
        raise UsageError("--reps must be at least 1")
    try:
        if args.kind == "uniformity":
            ks = pvalue_uniformity_check(args.seed, args.reps, noncentrality=args.noncentrality)
            inputs = {
                "kind": args.kind,
                "seed": args.seed,
                "reps": args.reps,
                "noncentrality": args.noncentrality,
            }
            rows = [
                {"replications": args.reps, "noncentrality": args.noncentrality, "ks_distance": ks}
            ]
            results = {"rows": rows}
            provenance = [["ks_distance", f"seeded-simulation(seed={args.seed})"]]
            return inputs, results, provenance
        run = ConsistencyRun(
            theta_true=args.theta_true,
            theta0=args.theta0,
            sigma=args.sigma,
            n_grid=_parse_grid(args.n_grid),
            replications=args.reps,
            seed=args.seed,
        )
        inputs = {
            "kind": args.kind,
            "theta_true": run.theta_true,
            "theta0": run.theta0,
            "sigma": run.sigma,
            "n_grid": ",".join(str(n) for n in run.n_grid),
            "reps": run.replications,
            "seed": run.seed,
        }
        if args.kind == "consistency":
            summaries = consistency_simulation(run, alpha=args.alpha)
            inputs["alpha"] = args.alpha
        else:
            _load("normal", "scores")
            if args.tau is None:
                prior = AlternativePrior.flat()
            else:
                prior = AlternativePrior.conjugate(args.tau)
            summaries = score_consistency_sim(run, prior=prior)
            inputs["prior"] = prior.kind
    except MemoryError as exc:
        # numpy refuses a replicate array larger than memory before filling it
        raise RuntimeError(f"--reps {args.reps} is too large: {exc}") from None
    # a row per grid point: the summary record's fields, in their order
    rows = [{field: getattr(s, field) for field in s._fields} for s in summaries]
    results = {"rows": rows}
    provenance = [["rows", f"seeded-simulation(seed={run.seed})"]]
    return inputs, results, provenance


def _anchor_rows(demo_fail: bool) -> list[dict]:
    t, n = 1.96, 16818
    bf_at = bayes_factor_lindley(t, n)
    post_at = posterior_prob_null(bf_at, HypothesisWeights(0.5))
    stone_p = binomial_p_value(STONE_EXAMPLE)
    stone_bf = binomial_bf_flat(STONE_EXAMPLE)
    problem = NormalProblem.from_t(t, n)
    prior = AlternativePrior.conjugate(1.0)
    sd_dev = abs(
        savage_dickey_bf(problem, prior) / bayes_factor_conjugate(problem, prior) - 1.0
    )
    single, wide = reinterpret_as_prior_scale(problem)
    scale_dev = abs(bayes_factor_conjugate(single, wide) / bayes_factor_lindley(t, n) - 1.0)
    log_identity_dev = abs(
        log_score_compare(problem, prior).diff + math.log(bayes_factor_conjugate(problem, prior))
    )
    rows = [
        ("crossing_equal_weights", 16818, crossing_sample_size(ParadoxQuery(t=t)), 0.0),
        (
            "crossing_ten_to_one",
            164,
            crossing_sample_size(ParadoxQuery(t=t, weights=HypothesisWeights(10.0 / 11.0))),
            0.0,
        ),
        ("crossing_t_zero", 360, crossing_sample_size(ParadoxQuery(t=0.0)), 0.0),
        ("bf_at_crossing", 19.0, bf_at, 1e-3),
        ("posterior_at_crossing", 0.95, post_at, 1e-4),
        ("p_value_at_1.96", 0.05, p_value(t), 1e-4),
        ("stone_binomial_p", 0.0027, stone_p, 2e-4),
        ("stone_binomial_bf_flat", 8.115, stone_bf, 0.0 if demo_fail else 0.05),
        ("savage_dickey_relative_deviation", 0.0, sd_dev, 1e-10),
        ("prior_scale_relative_deviation", 0.0, scale_dev, 1e-12),
        ("log_score_identity_deviation", 0.0, log_identity_dev, 1e-12),
    ]
    table = []
    for name, expected, got, tol in rows:
        err = abs(got - expected)
        table.append(
            {
                "anchor": name,
                "expected": expected,
                "got": got,
                "tolerance": tol,
                "status": "pass" if err <= tol else "fail",
            }
        )
    return table


def cmd_paper_check(args: argparse.Namespace) -> tuple[dict, dict, list]:
    _load("binomial", "normal", "paradox", "scores")
    rows = _anchor_rows(args.demo_fail)
    all_pass = all(r["status"] == "pass" for r in rows)
    inputs = {"demo_fail": args.demo_fail}
    results = {"all_pass": all_pass, "rows": rows}
    provenance = [["rows", "reference-anchor-regression"]]
    return inputs, results, provenance


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv", "table"), default=None)
    common.add_argument("--out", metavar="PATH", default=None)
    common.add_argument("--seed", type=int, default=42, metavar="UINT64")
    common.add_argument("--digits", type=int, default=6, metavar="N")

    parser = argparse.ArgumentParser(
        prog="pointnull",
        description="Point-null testing calculus: Bayes factors, p-values, "
        "paradox crossings, severity, and scoring rules.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def with_problem(p, xbar_only=False):
        p.add_argument("--theta0", type=float, default=0.0)
        p.add_argument("--sigma", type=float, default=1.0)
        p.add_argument("--n", type=int, required=True)
        if xbar_only:
            p.add_argument("--xbar", type=float, required=True)
        else:
            group = p.add_mutually_exclusive_group(required=True)
            group.add_argument("--t", type=float, default=None)
            group.add_argument("--xbar", type=float, default=None)

    def with_scale(p):
        group = p.add_mutually_exclusive_group()
        group.add_argument("--tau", type=float, default=None)
        group.add_argument("--tau-equals-sigma", action="store_true")

    # --format is shared by every subparser through common, so each one's
    # default format is its own dest, read when --format is absent
    def add(name, handler, default_format, help):
        p = sub.add_parser(name, parents=[common], help=help)
        p.set_defaults(handler=handler, default_format=default_format)
        return p

    p_report = add("report", cmd_report, "json", "both verdicts for one problem")
    with_problem(p_report)
    with_scale(p_report)
    p_report.add_argument("--rho0", type=float, default=0.5)
    p_report.add_argument("--alpha", type=float, default=0.05)

    p_paradox = add("paradox", cmd_paradox, "csv", "crossing sample size and bracketing table")
    p_paradox.add_argument("--t", type=float, required=True)
    p_paradox.add_argument("--target", type=float, default=0.95)
    p_paradox.add_argument("--rho0", type=float, default=0.5)
    p_paradox.add_argument("--alpha", type=float, default=0.05)

    p_sev = add("severity", cmd_severity, "csv", "severity curve and warranted discrepancy")
    with_problem(p_sev, xbar_only=True)
    p_sev.add_argument("--level", type=float, default=0.9)
    p_sev.add_argument("--grid-lo", type=float, default=None)
    p_sev.add_argument("--grid-hi", type=float, default=None)
    p_sev.add_argument("--grid-points", type=int, default=13)

    p_bin = add("binomial", cmd_binomial, "json", "count-data point-null test")
    p_bin.add_argument("--n", type=int, required=True)
    p_bin.add_argument("--x", type=int, required=True)
    p_bin.add_argument("--theta0", type=float, required=True)

    p_score = add("score", cmd_score, "json", "scoring-rule comparison")
    p_score.add_argument("--rule", choices=("log", "hyvarinen", "sprenger-kl"), required=True)
    with_problem(p_score)
    p_score.add_argument("--alt", choices=("flat", "conjugate"), default=None)
    with_scale(p_score)
    p_score.add_argument("--c", type=float, default=None)

    p_sim = add("simulate", cmd_simulate, "csv", "seeded Monte Carlo sweeps")
    p_sim.add_argument(
        "--kind", choices=("consistency", "uniformity", "score-consistency"), required=True
    )
    p_sim.add_argument("--reps", type=int, required=True)
    p_sim.add_argument("--theta-true", type=float, default=0.0)
    p_sim.add_argument("--theta0", type=float, default=0.0)
    p_sim.add_argument("--sigma", type=float, default=1.0)
    p_sim.add_argument("--n-grid", type=str, default="100,1000,10000")
    p_sim.add_argument("--alpha", type=float, default=0.05)
    p_sim.add_argument("--noncentrality", type=float, default=0.0)
    p_sim.add_argument("--tau", type=float, default=None)

    p_check = add(
        "paper-check", cmd_paper_check, "table", "regression over built-in reference anchors"
    )
    p_check.add_argument("--demo-fail", action="store_true")

    return parser


def _is_float(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _join_negative_values(argv: list[str]) -> list[str]:
    # argparse reads a lone token such as -3.1e-05 as an unknown flag: its
    # negative-number pattern has no exponent form. No subcommand takes
    # positional arguments, so such a token is the value of the option before it.
    joined: list[str] = []
    for token in argv:
        if (
            joined
            and token.startswith("-")
            and joined[-1].startswith("-")
            and "=" not in joined[-1]
            and _is_float(token)
        ):
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = parser.parse_args(_join_negative_values(argv))
    except SystemExit as exc:
        # argparse exits 0 for --help and 2 for usage faults; keep both
        code = exc.code
        return int(code) if code is not None else 0
    if not 1 <= args.digits <= 17:
        print("error: --digits must be between 1 and 17", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**64:
        print("error: --seed must fit in an unsigned 64-bit integer", file=sys.stderr)
        return 2
    try:
        inputs, results, provenance = args.handler(args)
        _check_finite(results)
        env = {
            "format_version": FORMAT_VERSION,
            "command": args.command,
            "inputs": inputs,
            "results": results,
            "provenance": provenance,
        }
        text = _render(env, args.format or args.default_format, args.digits)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write --out {args.out}: {exc.strerror}", file=sys.stderr)
            return 1
    else:
        sys.stdout.write(text)
    # only paper-check reports all_pass; a failed anchor exits 1
    return 0 if results.get("all_pass", True) else 1


if __name__ == "__main__":
    sys.exit(main())
