"""Command-line surface.

Seven subcommands cover the whole calculus: report (one problem, both
verdicts), paradox (crossing sample size plus a bracketing table), severity
(curves and the warranted discrepancy), binomial (count-data test), score
(scoring-rule comparisons), simulate (seeded Monte Carlo sweeps), and
paper-check (regression over the built-in reference anchors). Every command
emits a versioned envelope as JSON, CSV, or an aligned table; all output is
deterministic given the full flag set. This module holds the parser, main
and the renderers; each handler is a module of pointnull.commands.
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


# A subcommand's handler, run(args, cli) in pointnull.commands.<name>, gets
# this running module as cli: it binds the library modules it calls here
# with cli._load, so a call loads only what it runs, and calls their names as
# cli attributes. A bound name is never rebound, so a stand-in set here (a
# test double, a tracing wrapper) is what it calls. Under python -m, this
# module is __main__, and importing pointnull.cli would compile it again.
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


# Each subcommand's default format and help line. A call adds flags only to
# the subparser of the subcommand it runs, and imports only its handler.
_SUBCOMMANDS = {
    "report": ("json", "both verdicts for one problem"),
    "paradox": ("csv", "crossing sample size and bracketing table"),
    "severity": ("csv", "severity curve and warranted discrepancy"),
    "binomial": ("json", "count-data point-null test"),
    "score": ("json", "scoring-rule comparison"),
    "simulate": ("csv", "seeded Monte Carlo sweeps"),
    "paper-check": ("table", "regression over built-in reference anchors"),
}


def _add_flags(p: argparse.ArgumentParser, command: str) -> None:
    p.add_argument("--format", choices=("json", "csv", "table"), default=None)
    p.add_argument("--out", metavar="PATH", default=None)
    p.add_argument("--seed", type=int, default=42, metavar="UINT64")
    p.add_argument("--digits", type=int, default=6, metavar="N")

    def with_problem(xbar_only=False):
        p.add_argument("--theta0", type=float, default=0.0)
        p.add_argument("--sigma", type=float, default=1.0)
        p.add_argument("--n", type=int, required=True)
        if xbar_only:
            p.add_argument("--xbar", type=float, required=True)
        else:
            group = p.add_mutually_exclusive_group(required=True)
            group.add_argument("--t", type=float, default=None)
            group.add_argument("--xbar", type=float, default=None)

    def with_scale():
        scale = p.add_mutually_exclusive_group()
        scale.add_argument("--tau", type=float, default=None)
        scale.add_argument("--tau-equals-sigma", action="store_true")

    if command == "report":
        with_problem()
        with_scale()
        p.add_argument("--rho0", type=float, default=0.5)
        p.add_argument("--alpha", type=float, default=0.05)
    elif command == "paradox":
        p.add_argument("--t", type=float, required=True)
        p.add_argument("--target", type=float, default=0.95)
        p.add_argument("--rho0", type=float, default=0.5)
        p.add_argument("--alpha", type=float, default=0.05)
    elif command == "severity":
        with_problem(xbar_only=True)
        p.add_argument("--level", type=float, default=0.9)
        p.add_argument("--grid-lo", type=float, default=None)
        p.add_argument("--grid-hi", type=float, default=None)
        p.add_argument("--grid-points", type=int, default=13)
    elif command == "binomial":
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--x", type=int, required=True)
        p.add_argument("--theta0", type=float, required=True)
    elif command == "score":
        p.add_argument("--rule", choices=("log", "hyvarinen", "sprenger-kl"), required=True)
        with_problem()
        p.add_argument("--alt", choices=("flat", "conjugate"), default=None)
        with_scale()
        p.add_argument("--c", type=float, default=None)
    elif command == "simulate":
        p.add_argument(
            "--kind", choices=("consistency", "uniformity", "score-consistency"), required=True
        )
        p.add_argument("--reps", type=int, required=True)
        p.add_argument("--theta-true", type=float, default=0.0)
        p.add_argument("--theta0", type=float, default=0.0)
        p.add_argument("--sigma", type=float, default=1.0)
        p.add_argument("--n-grid", type=str, default="100,1000,10000")
        p.add_argument("--alpha", type=float, default=0.05)
        p.add_argument("--noncentrality", type=float, default=0.0)
        p.add_argument("--tau", type=float, default=None)
    elif command == "paper-check":
        p.add_argument("--demo-fail", action="store_true")


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser, with flags on command's subparser, or on all when None."""
    parser = argparse.ArgumentParser(
        prog="pointnull",
        description="Point-null testing calculus: Bayes factors, p-values, "
        "paradox crossings, severity, and scoring rules.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # --format defaults to None, so each subcommand's own default is read then
    for name, (default_format, help) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help)
        p.set_defaults(default_format=default_format)
        if command in (None, name):
            _add_flags(p, name)
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
    argv = _join_negative_values(sys.argv[1:] if argv is None else argv)
    # a first token naming a subcommand is the subcommand, so only it needs
    # flags; any other (-h, or an unknown flag before the name) gets them all
    parser = _build_parser(argv[0] if argv and argv[0] in _SUBCOMMANDS else None)
    try:
        args = parser.parse_args(argv)
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
        module = args.command.replace("-", "_")
        handler = importlib.import_module(f".commands.{module}", __package__)
        inputs, results, provenance = handler.run(args, sys.modules[__name__])
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
