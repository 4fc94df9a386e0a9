"""Command-line surface: the flag table and its parser, main and the command's
exit. Each subcommand's handler is a module of pointnull.commands, and each
format's renderer, in pointnull._json_writer or pointnull._text, loads only
with its format. A valid call parses from the flag table; argparse, in
pointnull._usage, is imported only for help or a usage error.
"""

import atexit
import importlib
import math
import os
import sys
from types import SimpleNamespace
from typing import Any

from . import __getattr__ as _package_getattr

__all__ = ["FORMAT_VERSION", "console_entry", "main"]

FORMAT_VERSION = "1"


# A handler, run(args, cli) in pointnull.commands.<name>, calls its library
# names as attributes of this running module: the first use of a name imports
# only the module that defines it and binds the name here. Python asks
# __getattr__ only for a name not yet bound, so a stand-in set here (a test
# double, a tracing wrapper) is what handlers call. Under python -m, this
# module is __main__, and importing pointnull.cli would compile it again.
def __getattr__(name: str) -> Any:
    """Serve a library name not yet bound here through the package's lookup, and bind it."""
    try:
        value = globals()[name] = _package_getattr(name)
    except AttributeError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return value


def render_json(env: dict) -> str:
    return importlib.import_module("._json_writer", __package__).dumps(env) + "\n"


def render_csv(env: dict, digits: int) -> str:
    return importlib.import_module("._text", __package__).render(env, digits, csv=True)


def render_table(env: dict, digits: int) -> str:
    return importlib.import_module("._text", __package__).render(env, digits, csv=False)


def _check_finite(results: dict) -> None:
    """Refuse a nan or infinite result, naming it, whatever the output format."""
    fields = list(results.items())  # the rows entry itself is a list, never a float
    for i, row in enumerate(results.get("rows", [])):
        fields += [(f"rows[{i}].{k}", v) for k, v in row.items()]
    for name, value in fields:
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"result {name} is {value!r}, not a finite number")


def _problem_from_args(args) -> "NormalProblem":
    from .normal import NormalProblem

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
    call, which _usage.parse hands to argparse: a call argparse refuses, or a
    token it may read other than as written (an abbreviated or repeated flag,
    a value of "--", a space-form value that starts with "-" and is no number).
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
            if not eq and (value := next(tokens, None)) is None:
                return None
            try:
                # _usage joins a "-" value to its flag for argparse only if it reads as a number
                if not eq and value.startswith("-"):
                    float(value)
                value = _TYPES[kind](value)
            except ValueError:
                return None
            if value == "--" or choices is not None and value not in choices:
                return None
        given[name] = value
    namespace = {"command": argv[0], "default_format": _SUBCOMMANDS[argv[0]][0]}
    for (name, _, default, required, _, _), group in flags.values():
        if required and name not in given:
            return None
        if group is not None:
            present = sum(flag[0] in given for flag in group[1:])
            if present > 1 or group[0] and not present:
                return None
        namespace[name[2:].replace("-", "_")] = given.get(name, default)
    return SimpleNamespace(**namespace)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parse(argv)
    if args is None:
        # argparse's namespace, or its exit code: 0 after --help, 2 on a usage error
        args = importlib.import_module("._usage", __package__).parse(argv, _SUBCOMMANDS, _TYPES)
        if isinstance(args, int):
            return args
    try:
        if not 1 <= args.digits <= 17:
            raise ValueError("--digits must be between 1 and 17")
        if not 0 <= args.seed < 2**64:
            raise ValueError("--seed must fit in an unsigned 64-bit integer")
        handler = importlib.import_module(f".commands.{args.command.replace('-', '_')}", __package__)
        # handlers get the module this code runs as; runpy.run_module without alter_sys (as
        # python -m cProfile -m runs cli) runs it in a bare dict, so they get pointnull.cli
        running = sys.modules.get(__name__)
        if getattr(running, "__dict__", None) is not globals():
            running = importlib.import_module("pointnull.cli")
        inputs, results, provenance = handler.run(args, running)
        _check_finite(results)
        env = dict(format_version=FORMAT_VERSION, command=args.command, inputs=inputs,
                   results=results, provenance=provenance)
        fmt = args.format or args.default_format
        render = render_csv if fmt == "csv" else render_table
        text = render_json(env) if fmt == "json" else render(env, args.digits)
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ValueError) else 1
    try:
        if args.out:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        else:
            # unbuffered stdout (PYTHONUNBUFFERED) fails here, not at the exit's flush
            sys.stdout.write(text)
    except OSError as exc:
        where = f"--out {args.out}" if args.out else "stdout"
        print(f"error: cannot write {where}: {exc.strerror}", file=sys.stderr)
        return 1
    # only paper-check reports all_pass; a failed anchor exits 1
    return 0 if results.get("all_pass", True) else 1


def console_entry(*entry: str) -> int:
    """main as the pointnull command; python -m pointnull.cli passes "-m", "pointnull.cli".

    Run by the interpreter itself, as python entry (sys.argv[0] by default) and
    main's arguments, the process ends once its output is flushed: os._exit, after
    the atexit hooks, skips the teardown (10-40 ms with numpy loaded) a caller
    would wait out for EOF. Another host (cProfile -m, runpy, coverage), an
    interpreter flag, PYTHONINSPECT or a failed flush gets the plain exit.
    """
    code = main()
    if sys.orig_argv[1:] != [*(entry or sys.argv[:1]), *sys.argv[1:]] or os.getenv("PYTHONINSPECT"):
        return code
    atexit._run_exitfuncs()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except Exception:
        return code
    os._exit(code)


if __name__ == "__main__":
    sys.exit(console_entry("-m", "pointnull.cli"))
