"""Command-line surface.

Seven subcommands cover the whole calculus: report (one problem, both
verdicts), paradox (crossing sample size plus a bracketing table), severity
(curves and the warranted discrepancy), binomial (count-data test), score
(scoring-rule comparisons), simulate (seeded Monte Carlo sweeps), and
paper-check (regression over the built-in reference anchors). Every command
emits a versioned envelope as JSON, CSV, or an aligned table; all output is
deterministic given the full flag set. This module holds the flag table,
its parser, main and the renderers; each handler is a module of
pointnull.commands. A valid call parses from the flag table; argparse is
imported only to print help or a usage error.
"""

import importlib
import math
import sys
from types import SimpleNamespace
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


def _problem_from_args(args) -> "NormalProblem":
    if args.t is not None:
        return NormalProblem.from_t(args.t, args.n, theta0=args.theta0, sigma=args.sigma)
    return NormalProblem(theta0=args.theta0, sigma=args.sigma, n=args.n, xbar=args.xbar)


# The flag table. A flag is (name, type, default, required, choices,
# metavar), its type "int", "float" or "str", or None for a store_true
# switch. An entry that starts with a bool is a mutually exclusive group of
# the flags after it, required when the bool is true.
def _flag(name, kind="float", default=None, required=False, choices=None, metavar=None):
    return name, kind, default, required, choices, metavar


_TYPES = {"int": int, "float": float, "str": str}
_OUTPUT = (
    _flag("--format", "str", choices=("json", "csv", "table")),
    _flag("--out", "str", metavar="PATH"),
    _flag("--seed", "int", 42, metavar="UINT64"),
    _flag("--digits", "int", 6, metavar="N"),
)
_THETA0, _SIGMA = _flag("--theta0", default=0.0), _flag("--sigma", default=1.0)
_N, _TAU = _flag("--n", "int", required=True), _flag("--tau")
_T_OR_XBAR = (True, _flag("--t"), _flag("--xbar"))
_SCALE = (False, _TAU, _flag("--tau-equals-sigma", None, False))
_RHO0, _ALPHA = _flag("--rho0", default=0.5), _flag("--alpha", default=0.05)

# Each subcommand's default format, help line and flags, in help order.
_SUBCOMMANDS = {
    "report": ("json", "both verdicts for one problem", (
        *_OUTPUT, _THETA0, _SIGMA, _N, _T_OR_XBAR, _SCALE, _RHO0, _ALPHA,
    )),
    "paradox": ("csv", "crossing sample size and bracketing table", (
        *_OUTPUT, _flag("--t", required=True), _flag("--target", default=0.95), _RHO0, _ALPHA,
    )),
    "severity": ("csv", "severity curve and warranted discrepancy", (
        *_OUTPUT, _THETA0, _SIGMA, _N, _flag("--xbar", required=True),
        _flag("--level", default=0.9), _flag("--grid-lo"), _flag("--grid-hi"),
        _flag("--grid-points", "int", 13),
    )),
    "binomial": ("json", "count-data point-null test", (
        *_OUTPUT, _N, _flag("--x", "int", required=True), _flag("--theta0", required=True),
    )),
    "score": ("json", "scoring-rule comparison", (
        *_OUTPUT, _flag("--rule", "str", required=True, choices=("log", "hyvarinen", "sprenger-kl")),
        _THETA0, _SIGMA, _N, _T_OR_XBAR, _flag("--alt", "str", choices=("flat", "conjugate")),
        _SCALE, _flag("--c"),
    )),
    "simulate": ("csv", "seeded Monte Carlo sweeps", (
        *_OUTPUT,
        _flag("--kind", "str", required=True, choices=("consistency", "uniformity", "score-consistency")),
        _flag("--reps", "int", required=True), _flag("--theta-true", default=0.0), _THETA0, _SIGMA,
        _flag("--n-grid", "str", "100,1000,10000"), _ALPHA, _flag("--noncentrality", default=0.0),
        _TAU,
    )),
    "paper-check": ("table", "regression over built-in reference anchors", (
        *_OUTPUT, _flag("--demo-fail", None, False),
    )),
}


def _parse(argv: list[str]) -> SimpleNamespace | None:
    """argparse's namespace for a valid call of --flag value and --flag=value
    after a subcommand name, read from the flag table; None for any other
    call, which argparse then parses.

    None covers every call argparse refuses, and every token argparse may
    read other than as written: an abbreviated or repeated flag, a value of
    "--" (argparse strips it even from --out=--, storing []), and a
    space-form value that starts with "-".
    """
    if not argv or argv[0] not in _SUBCOMMANDS:
        return None
    flags = {}  # each flag by name, with its exclusive group or None
    for entry in _SUBCOMMANDS[argv[0]][2]:
        group = entry if isinstance(entry[0], bool) else None
        flags.update((flag[0], (flag, group)) for flag in (entry[1:] if group else (entry,)))
    given: dict[str, Any] = {}
    tokens = iter(argv[1:])
    for token in tokens:
        name, eq, value = token.partition("=")
        if name not in flags or name in given:
            return None
        (_, kind, _, _, choices, _), _ = flags[name]
        if kind is None:
            if eq:
                return None
            value = True
        else:
            if not eq:
                value = next(tokens, None)
                if value is None or value.startswith("-"):
                    return None
            try:
                value = _TYPES[kind](value)
            except ValueError:
                return None
            if value == "--" or choices is not None and value not in choices:
                return None
        given[name] = value
    namespace = {"command": argv[0]}
    for (name, _, default, required, _, _), group in flags.values():
        if required and name not in given:
            return None
        if group is not None:
            present = sum(flag[0] in given for flag in group[1:])
            if present > 1 or group[0] and not present:
                return None
        namespace[name[2:].replace("-", "_")] = given.get(name, default)
    namespace["default_format"] = _SUBCOMMANDS[argv[0]][0]
    return SimpleNamespace(**namespace)


def _build_parser() -> "argparse.ArgumentParser":
    """argparse's parser over the flag table, for help and usage errors."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="pointnull",
        description="Point-null testing calculus: Bayes factors, p-values, "
        "paradox crossings, severity, and scoring rules.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # --format defaults to None, so each subcommand's own default is read then
    for command, (default_format, help, entries) in _SUBCOMMANDS.items():
        p = sub.add_parser(command, help=help)
        p.set_defaults(default_format=default_format)
        for entry in entries:
            target, flags = p, (entry,)
            if isinstance(entry[0], bool):
                target, flags = p.add_mutually_exclusive_group(required=entry[0]), entry[1:]
            for name, kind, default, required, choices, metavar in flags:
                if kind is None:
                    target.add_argument(name, action="store_true")
                else:
                    target.add_argument(
                        name, type=_TYPES[kind], default=default, required=required,
                        choices=choices, metavar=metavar,
                    )
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
    args = _parse(argv)
    if args is None:
        try:
            args = _build_parser().parse_args(argv)
            # argparse strips "--" even out of --flag=--, storing []: refuse it as a bare --flag
            for dest in (k for k, v in vars(args).items() if isinstance(v, list)):
                _build_parser().parse_args([args.command, "--" + dest.replace("_", "-")])
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
