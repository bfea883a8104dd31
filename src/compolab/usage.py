"""The command line as argparse reads it: help, usage errors, and every form
that ``cli`` leaves to argparse.

``cli.main`` parses a well-formed command line itself, from the grammar in
``cli.COMMANDS``, and loads this module only when that parse declines, so a
plain command neither imports ``argparse`` and ``gettext`` nor builds six
parsers.  This module adds to the grammar only what help and errors show:
the descriptions, the metavars, the ``--method``/``--paper-literal`` group,
and the refusal of a negative ``--max-brute-n``.
"""

from __future__ import annotations

import argparse

from .cli import COMMANDS, Args
from .errors import BRUTE_FORCE_CAP

_COMMAND_HELP = {
    "value": "compute one count",
    "table": "render a lower-triangular value table",
    "verify": "run a cross-validation suite",
    "enumerate": "stream the compositions of a graph file",
    "bfile": "emit an integer sequence as b-file lines",
}


class _StoreCount(argparse.Action):
    """Store an int option's value, refusing one below 0 as a usage error."""

    def __call__(self, parser, namespace, value, option_string=None):
        if value < 0:
            raise argparse.ArgumentError(self, f"must be 0 or more, got {value}")
        setattr(namespace, self.dest, value)


# option -> the add_argument keywords that only help and errors read
_SHOWN = {
    "--paper-literal": {
        "help": "shorthand for --method paper-literal: the literal printed form of the "
        "explicit formula (documents a known erratum)",
    },
    "--max-brute-n": {
        "action": _StoreCount,
        "metavar": "N",
        "help": "override the brute-force enumeration cap (default %d)" % BRUTE_FORCE_CAP,
    },
    "--workers": {
        "metavar": "W",
        "help": "accepted for compatibility, at most the CPU count; brute-force "
        "counting always runs in one process",
    },
    "--range": {"metavar": "A..B"},
    "--compare": {"metavar": "FILE", "help": "diff against a local reference b-file"},
}

# Options that exclude each other; both store to `method`.
_EXCLUSIVE = ("--method", "--paper-literal")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="compolab",
        description=(
            "Exact counting and enumeration of graph compositions for the "
            "complete-minus-clique family, and minimax statistics of set partitions."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (func, arguments) in COMMANDS.items():
        p_command = sub.add_parser(command, help=_COMMAND_HELP[command])
        group = None
        for names, spec in arguments:
            target = p_command
            if names[0] in _EXCLUSIVE:
                group = group or p_command.add_mutually_exclusive_group()
                target = group
            target.add_argument(*names, **spec, **_SHOWN.get(names[0], {}))
        p_command.set_defaults(func=func)
    return parser


def _bind_range_value(argv: list[str]) -> list[str]:
    """Write ``--range -3..2`` as ``--range=-3..2``: argparse would read a
    value that starts with a dash and a digit as an option of its own."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] == "--range" and arg[:1] == "-" and arg[1:2].isdigit():
            out[-1] = f"--range={arg}"
        else:
            out.append(arg)
    return out


def parse_args(argv: list[str]) -> Args:
    """Parse ``argv`` with argparse, which prints help or a usage error and
    exits 0 or 2 where the command line asks for either."""
    return Args(**vars(build_parser().parse_args(_bind_range_value(argv))))
