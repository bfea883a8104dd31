"""Command-line surface: values, tables, verification suites, enumeration, b-files.

Exit codes are a stable contract: 0 success, 1 verification failure, 2
usage/input error (or a stdout closed early), 3 resource limit exceeded or
out of memory.

Each command is one fresh process, so start-up counts, and a command loads
only the code it runs.  This module holds the command grammar (``COMMANDS``)
and its parser, ``main``, the route table and the ``value`` command.
``table`` and ``bfile`` live in ``tables``, ``verify`` in ``suites`` and
``enumerate`` in ``listing``; the brute routes call ``enumeration`` (the
composition count) and ``stats`` (the minimax statistics).  Every route and
command reads ``compolab.<module>.<name>`` when it runs: the package's PEP
562 hook imports the module on the first read, and the import binds it on
the package, so each later read is a plain attribute lookup.  ``json``
loads only for JSON output.

A well-formed command line is parsed here, against ``COMMANDS``, into the
namespace argparse would build.  Help, usage errors and the forms ``_parse``
declines go to ``usage``, which builds argparse's parser from the same
table; so only they import ``argparse`` and ``gettext``.
"""

from __future__ import annotations

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
    check_cell,
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
    check_cell(n, m)  # a refused cell exits 2 before the cap's exit 3
    check_cap(n, a.max_brute_n)  # before the graph draws its n²/2 pairs
    return compolab.enumeration.composition_count_brute(
        compolab.graphs.complete_minus_clique(n, m), cap=a.max_brute_n
    )


# One route constructor per calling convention.  Each route looks its function
# up on the module when it runs, so a rebinding (a tracer's, a test's) is seen.
def _closed(name: str) -> Route:  # a closed form takes the memo
    return lambda a, memo, *cell: getattr(compolab.closedform, name)(*cell, memo=memo)


def _brute(name: str, *fixed: int) -> Route:  # a brute statistic takes the cap
    return lambda a, memo, *cell: getattr(compolab.stats, name)(*cell, *fixed, cap=a.max_brute_n)


def _number(name: str) -> Route:  # a number primitive takes neither
    return lambda a, memo, *cell: getattr(compolab.numtheory, name)(*cell)


# kind -> (required parameters, {method: route}), in the agreement suites'
# print order; the default is _DEFAULT_METHOD's, else the first method.  A route
# is called as route(args, memo, *parameters), where memo is the MemoStore that
# a table or a suite shares, or None for one value.
ROUTES: dict[str, tuple[tuple[str, ...], dict[str, Route]]] = {
    "comp": (("n", "m"), {
        "recursive": _closed("comp_count_recursive"),
        "explicit": _closed("comp_count_explicit"),
        "brute": _comp_brute,
        "paper-literal": _closed("comp_count_paper_literal"),
    }),
    "minimax": (("n", "m"), {"formula": _closed("minimax_count_formula"),
                             "brute": _brute("minimax_count_brute")}),
    "maximin": (("n", "m"), {"formula": _closed("maximin_count_formula")}),
    "k1": (("n", "m"), {"formula": _closed("k1_count_formula"),
                        "brute": _brute("kj_count_brute", 1)}),
    "kj": (("n", "m", "j"), {"brute": _brute("kj_count_brute")}),
    "bell": (("n",), {"formula": _number("bell")}),
    "stirling2": (("n", "m"), {"formula": _number("stirling2")}),
    "binomial": (("n", "m"), {"formula": _number("binomial")}),
}

_DEFAULT_METHOD = {"comp": "explicit"}

# Kinds that `table` renders, with the first row of each table.
_TABLE_FIRST_ROW = {"comp": 0, "k1": 1}

# The suites of `verify`; ``suites._SUITES`` runs them.
_SUITE_NAMES = ("bijection", "k1", "reflection", "rowsum", "threeway")


def _select_route(args: Args) -> tuple[str, tuple[str, ...], Route]:
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

def _require(args: Args, *names: str) -> list[int]:
    got = []
    for name in names:
        value = getattr(args, name)
        if value is None:
            raise InvalidParametersError(f"kind {args.kind!r} requires -{name}")
        got.append(value)
    return got


def cmd_value(args: Args) -> int:
    method, params, route = _select_route(args)
    values = _require(args, *params)
    value = str(route(args, None, *values))
    if args.format == "json":
        import json

        print(json.dumps({**dict(zip(params, values)), "value": value, "method": method}))
    else:
        print(value)
    return EXIT_OK


# ---------------------------------------------------------------------------
# command lines
# ---------------------------------------------------------------------------

# A parsed command line, each argparse destination an attribute: this is
# types.SimpleNamespace, got without importing `types` (0.6 ms).
Args = type(sys.implementation)


def _arg(*names: str, **spec):
    """One argument of a command: the names and keywords of its ``add_argument`` call."""
    return names, spec


def _method_options(kinds):
    methods = sorted({method for kind in kinds for method in ROUTES[kind][1]})
    return [_arg("--method", choices=methods),
            _arg("--paper-literal", dest="method", action="store_const", const="paper-literal")]


_BRUTE = [_arg("--max-brute-n", type=int, default=BRUTE_FORCE_CAP),
          _arg("--workers", type=int, choices=range(1, (os.cpu_count() or 1) + 1), default=1)]

# command -> (function, arguments): the grammar that `_parse` reads and that
# ``usage.build_parser`` hands to argparse, adding the help text.
COMMANDS = {
    "value": (cmd_value, [
        _arg("kind", choices=sorted(ROUTES)),
        _arg("-n", type=int, required=True),
        _arg("-m", "--m", "--k", type=int),
        _arg("-j", type=int),
        *_method_options(ROUTES),
        _arg("--format", choices=("text", "json"), default="text"),
        *_BRUTE,
    ]),
    # The other commands' code lives in `tables`, `suites` and `listing`, loaded as they run.
    "table": (lambda args: compolab.tables.cmd_table(args), [
        _arg("kind", choices=sorted(_TABLE_FIRST_ROW)),
        _arg("--max-n", type=int, required=True),
        _arg("--format", choices=("text", "csv", "json"), default="text"),
        *_method_options(_TABLE_FIRST_ROW),
        *_BRUTE,
    ]),
    "verify": (lambda args: compolab.suites.cmd_verify(args), [
        _arg("suite", choices=_SUITE_NAMES),
        _arg("--n-max", type=int, required=True),
        *_BRUTE,
    ]),
    "enumerate": (lambda args: compolab.listing.cmd_enumerate(args), [
        _arg("graph_file"),
        _BRUTE[0],
    ]),
    "bfile": (lambda args: compolab.tables.cmd_bfile(args), [
        _arg("kind", choices=("rowsum", "k1zero")),
        _arg("--range", required=True),
        _arg("--compare"),
    ]),
}


def _parse(argv: list[str]) -> Args | None:
    """What argparse makes of ``argv``, or None where only argparse reads it:
    help, a usage error, an option not spelt in full, ``--opt=value`` or
    ``-n5``, a value that is blank or starts with "-", a repeated option
    (``--method`` with ``--paper-literal`` too), and a negative number."""
    if not argv or argv[0] not in COMMANDS:
        return None
    func, arguments = COMMANDS[argv[0]]
    values, flags, positionals, given = {"command": argv[0]}, {}, [], {}
    for names, spec in arguments:
        dest = spec.get("dest", names[0].strip("-").replace("-", "_"))
        values[dest] = spec.get("default")
        if names[0][0] == "-":
            flags.update(dict.fromkeys(names, (dest, spec)))
        else:
            positionals.append((dest, spec))
    words = iter(argv[1:])
    for word in words:
        if word[:1] != "-" and positionals:
            (dest, spec), text = positionals.pop(0), word
        elif word in flags:
            dest, spec = flags[word]
            text = spec.get("const") or next(words, "")
        else:
            return None
        # Blank, or starting with "-" once int() strips it (" -5" is negative).
        if dest in given or text.lstrip()[:1] in ("", "-"):
            return None
        try:
            value = spec.get("type", str)(text)
        except ValueError:
            return None
        if value not in spec.get("choices", [value]):
            return None
        given[dest] = value
    if positionals or any(spec.get("required") and dest not in given
                          for dest, spec in flags.values()):
        return None
    return Args(**(values | given), func=func)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parse(argv) or compolab.usage.parse_args(argv)
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
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
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
