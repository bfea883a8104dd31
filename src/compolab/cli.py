"""Command-line surface: values, tables, verification suites, enumeration, b-files.

Exit codes are a stable contract: 0 success, 1 verification failure, 2
usage/input error (or a stdout closed early), 3 resource limit exceeded.

Each command is one fresh process, so start-up counts, and a command loads
only the code it runs.  This module holds the parser, ``main``, the route
table and the ``value`` command.  ``table``, ``verify`` and ``bfile`` live in
``tables`` and ``enumerate`` in ``listing``.  Every route and command reads
``compolab.<module>.<name>`` when it runs: the package's PEP 562 hook imports
the module on the first read, and the import binds it on the package, so
each later read is a plain attribute lookup.  ``json`` loads only for JSON
output.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Callable

import compolab

from .errors import (
    BRUTE_FORCE_CAP,
    InconsistentResultError,
    InvalidParametersError,
    MalformedInputError,
    ResourceLimitError,
    check_cap,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


# ---------------------------------------------------------------------------
# routes
# ---------------------------------------------------------------------------

Route = Callable[..., int]


def _comp_brute(a, memo, n, m):
    if 0 <= m <= n:  # the graph builder refuses the other cells
        check_cap(n, a.max_brute_n)  # before the graph lists its n²/2 pairs
    return compolab.enumeration.composition_count_brute(
        compolab.graphs.complete_minus_clique(n, m), cap=a.max_brute_n
    )


# kind -> (required parameters, {method: route}), in the agreement suites'
# print order; the default is _DEFAULT_METHOD's, else the first method.  A route
# is called as route(args, memo, *parameters), where memo is the MemoStore that
# a table or a suite shares, or None for one value.
ROUTES: dict[str, tuple[tuple[str, ...], dict[str, Route]]] = {
    "comp": (("n", "m"), {
        "recursive": lambda a, memo, n, m: compolab.closedform.comp_count_recursive(
            n, m, memo=memo
        ),
        "explicit": lambda a, memo, n, m: compolab.closedform.comp_count_explicit(n, m, memo=memo),
        "brute": _comp_brute,
        "paper-literal": lambda a, memo, n, m: compolab.closedform.comp_count_paper_literal(
            n, m, memo=memo
        ),
    }),
    "minimax": (("n", "m"), {
        "formula": lambda a, memo, n, m: compolab.closedform.minimax_count_formula(
            n, m, memo=memo
        ),
        "brute": lambda a, memo, n, m: compolab.enumeration.minimax_count_brute(
            n, m, cap=a.max_brute_n
        ),
    }),
    "maximin": (("n", "m"), {
        "formula": lambda a, memo, n, m: compolab.closedform.maximin_count_formula(
            n, m, memo=memo
        ),
    }),
    "k1": (("n", "m"), {
        "formula": lambda a, memo, n, m: compolab.closedform.k1_count_formula(n, m, memo=memo),
        "brute": lambda a, memo, n, m: compolab.enumeration.kj_count_brute(
            n, m, 1, cap=a.max_brute_n
        ),
    }),
    "kj": (("n", "m", "j"), {
        "brute": lambda a, memo, n, m, j: compolab.enumeration.kj_count_brute(
            n, m, j, cap=a.max_brute_n
        ),
    }),
    "bell": (("n",), {"formula": lambda a, memo, n: compolab.numtheory.bell(n)}),
    "stirling2": (("n", "m"), {
        "formula": lambda a, memo, n, m: compolab.numtheory.stirling2(n, m),
    }),
    "binomial": (("n", "m"), {"formula": lambda a, memo, n, m: compolab.numtheory.binomial(n, m)}),
}

_DEFAULT_METHOD = {"comp": "explicit"}

# Kinds that `table` renders, with the first row of each table.
_TABLE_FIRST_ROW = {"comp": 0, "k1": 1}

# The suites of `verify`; ``tables._SUITES`` runs them.
_SUITE_NAMES = ("bijection", "k1", "reflection", "rowsum", "threeway")


def _method_choices(kinds) -> list[str]:
    return sorted({method for kind in kinds for method in ROUTES[kind][1]})


def _select_route(args: argparse.Namespace) -> tuple[str, tuple[str, ...], Route]:
    """The method, required parameters and route that ``args`` ask for."""
    params, routes = ROUTES[args.kind]
    method = args.method or _DEFAULT_METHOD.get(args.kind) or next(iter(routes))
    if method not in routes:
        raise InvalidParametersError(
            f"method {method!r} not available for kind {args.kind!r}"
        )
    return method, params, routes[method]


# ---------------------------------------------------------------------------
# value
# ---------------------------------------------------------------------------

def _require(args: argparse.Namespace, *names: str) -> list[int]:
    got = []
    for name in names:
        value = getattr(args, name)
        if value is None:
            raise InvalidParametersError(f"kind {args.kind!r} requires -{name}")
        got.append(value)
    return got


def cmd_value(args: argparse.Namespace) -> int:
    method, params, route = _select_route(args)
    values = _require(args, *params)
    value = str(route(args, None, *values))
    if args.format == "json":
        import json

        print(json.dumps({**dict(zip(params, values)), "value": value, "method": method}))
    else:
        print(value)
    return EXIT_OK


def _read_text(path: str) -> str:
    """A UTF-8 file's text, less any byte-order mark; unreadable or undecodable is malformed."""
    try:
        with open(path, encoding="utf-8-sig") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise MalformedInputError(f"cannot read {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_method(parser: argparse.ArgumentParser, kinds) -> None:
    route = parser.add_mutually_exclusive_group()
    route.add_argument("--method", choices=_method_choices(kinds), default=None)
    route.add_argument(
        "--paper-literal", dest="method", action="store_const", const="paper-literal",
        help="shorthand for --method paper-literal: the literal printed form of the "
        "explicit formula (documents a known erratum)",
    )


class _StoreCount(argparse.Action):
    """Store an int option's value, refusing one below 0 as a usage error."""

    def __call__(self, parser, namespace, value, option_string=None):
        if value < 0:
            raise argparse.ArgumentError(self, f"must be 0 or more, got {value}")
        setattr(namespace, self.dest, value)


def _add_brute(parser: argparse.ArgumentParser, *, workers: bool = True) -> None:
    parser.add_argument(
        "--max-brute-n",
        type=int,
        action=_StoreCount,
        default=BRUTE_FORCE_CAP,
        metavar="N",
        help="override the brute-force enumeration cap (default %d)" % BRUTE_FORCE_CAP,
    )
    if workers:
        parser.add_argument(
            "--workers",
            type=int,
            choices=range(1, (os.cpu_count() or 1) + 1),
            default=1,
            metavar="W",
            help="accepted for compatibility, at most the CPU count; brute-force "
            "counting always runs in one process",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="compolab",
        description=(
            "Exact counting and enumeration of graph compositions for the "
            "complete-minus-clique family, and minimax statistics of set partitions."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_value = sub.add_parser("value", help="compute one count")
    p_value.add_argument("kind", choices=sorted(ROUTES))
    p_value.add_argument("-n", type=int, required=True)
    p_value.add_argument("-m", "--m", "--k", dest="m", type=int, default=None)
    p_value.add_argument("-j", type=int, default=None)
    _add_method(p_value, ROUTES)
    p_value.add_argument("--format", choices=("text", "json"), default="text")
    _add_brute(p_value)
    p_value.set_defaults(func=cmd_value)

    # The other commands' code lives in `tables` and `listing`, loaded as they run.
    p_table = sub.add_parser("table", help="render a lower-triangular value table")
    p_table.add_argument("kind", choices=sorted(_TABLE_FIRST_ROW))
    p_table.add_argument("--max-n", type=int, required=True)
    p_table.add_argument("--format", choices=("text", "csv", "json"), default="text")
    _add_method(p_table, _TABLE_FIRST_ROW)
    _add_brute(p_table)
    p_table.set_defaults(func=lambda args: compolab.tables.cmd_table(args))

    p_verify = sub.add_parser("verify", help="run a cross-validation suite")
    p_verify.add_argument("suite", choices=_SUITE_NAMES)
    p_verify.add_argument("--n-max", type=int, required=True)
    _add_brute(p_verify)
    p_verify.set_defaults(func=lambda args: compolab.tables.cmd_verify(args))

    p_enum = sub.add_parser("enumerate", help="stream the compositions of a graph file")
    p_enum.add_argument("graph_file")
    _add_brute(p_enum, workers=False)
    p_enum.set_defaults(func=lambda args: compolab.listing.cmd_enumerate(args))

    p_bfile = sub.add_parser("bfile", help="emit an integer sequence as b-file lines")
    p_bfile.add_argument("kind", choices=("rowsum", "k1zero"))
    p_bfile.add_argument("--range", required=True, metavar="A..B")
    p_bfile.add_argument("--compare", metavar="FILE", default=None, help="diff against a local reference b-file")
    p_bfile.set_defaults(func=lambda args: compolab.tables.cmd_bfile(args))

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


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_bind_range_value(sys.argv[1:] if argv is None else argv))
    # Exact values can exceed Python's int -> str digit limit (3.11+, and
    # some 3.10 patch releases); lift it while the command runs.
    digit_limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if digit_limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe surfaces here, not at interpreter exit
        return code
    except (InvalidParametersError, MalformedInputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except InconsistentResultError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    except OSError as exc:
        # Say, the reader left early (`| head`) or the device is full.  Point stdout
        # at devnull so the interpreter's final flush cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"error: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        if digit_limit is not None:
            sys.set_int_max_str_digits(digit_limit)


if __name__ == "__main__":
    # The command modules import this one by name: let them find it, not load a copy.
    sys.modules.setdefault("compolab.cli", sys.modules[__name__])
    sys.exit(main())
