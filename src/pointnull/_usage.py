"""argparse's parser over cli's flag table, for help and usage errors.

cli.main imports this module only for a call its own parser leaves to
argparse: help, a usage error, or a flag argparse may read other than as
written (an abbreviation, a repeat, a value of "--"). cli passes its table
in: under python -m, cli runs as __main__, and importing pointnull.cli here
would compile it a second time.
"""

import argparse


def build_parser(subcommands: dict, types: dict) -> argparse.ArgumentParser:
    """argparse's parser over cli's subcommand table, each flag typed from types."""
    parser = argparse.ArgumentParser(
        prog="pointnull",
        description="Point-null testing calculus: Bayes factors, p-values, "
        "paradox crossings, severity, and scoring rules.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # --format defaults to None, so each subcommand's own default is read then
    for command, (default_format, help, entries) in subcommands.items():
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
                        name, type=types[kind], default=default, required=required,
                        choices=choices, metavar=metavar,
                    )
    return parser


def parse(argv: list[str], subcommands: dict, types: dict) -> argparse.Namespace | int:
    """argparse's namespace for argv, or the code it exits with: 0 after help, 2 on a usage error."""
    parser = build_parser(subcommands, types)
    try:
        args = parser.parse_args(_join_negative_values(argv))
        # argparse strips "--" even out of --flag=--, storing []: refuse it as a bare --flag
        for dest in (k for k, v in vars(args).items() if isinstance(v, list)):
            parser.parse_args([args.command, "--" + dest.replace("_", "-")])
    except SystemExit as exc:
        return int(exc.code or 0)
    return args


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
