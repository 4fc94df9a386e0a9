"""argparse's parser over cli's flag table, for help and usage errors.

cli.main imports this module only for a call its own parser leaves to
argparse: help, a usage error, or a flag argparse may read other than as
written (an abbreviation, a repeat, a value that starts with "-"). cli
passes its table in: under python -m, cli runs as __main__, and importing
pointnull.cli here would compile it a second time.
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
