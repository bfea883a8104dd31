"""Command-line surface: values, tables, verification suites, enumeration, b-files.

Exit codes are a stable contract: 0 success, 1 verification failure, 2
usage/input error (or a stdout closed early), 3 resource limit exceeded.

Each command is one fresh process, so start-up counts: enumeration, graphs
and bijection are imported by the routes and commands that call them, and
``json`` by the JSON output, not here.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Callable, Iterator
from itertools import islice

from . import closedform, numtheory
from .closedform import MemoStore
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
    from .enumeration import composition_count_brute
    from .graphs import complete_minus_clique

    if 0 <= m <= n:  # the graph builder refuses the other cells
        check_cap(n, a.max_brute_n)  # before the graph lists its n²/2 pairs
    return composition_count_brute(complete_minus_clique(n, m), cap=a.max_brute_n)


def _minimax_brute(a, memo, n, m):
    from .enumeration import minimax_count_brute

    return minimax_count_brute(n, m, cap=a.max_brute_n)


def _kj_brute(a, memo, n, m, j):
    from .enumeration import kj_count_brute

    return kj_count_brute(n, m, j, cap=a.max_brute_n)


# kind -> (required parameters, {method: route}), in the agreement suites'
# print order; the default is _DEFAULT_METHOD's, else the first method.  A route
# is called as route(args, memo, *parameters), where memo is the MemoStore that
# a table or a suite shares, or None for one value.
ROUTES: dict[str, tuple[tuple[str, ...], dict[str, Route]]] = {
    "comp": (("n", "m"), {
        "recursive": lambda a, memo, n, m: closedform.comp_count_recursive(n, m, memo=memo),
        "explicit": lambda a, memo, n, m: closedform.comp_count_explicit(n, m, memo=memo),
        "brute": _comp_brute,
        "paper-literal": lambda a, memo, n, m: closedform.comp_count_paper_literal(
            n, m, memo=memo
        ),
    }),
    "minimax": (("n", "m"), {
        "formula": lambda a, memo, n, m: closedform.minimax_count_formula(n, m, memo=memo),
        "brute": _minimax_brute,
    }),
    "maximin": (("n", "m"), {
        "formula": lambda a, memo, n, m: closedform.maximin_count_formula(n, m, memo=memo),
    }),
    "k1": (("n", "m"), {
        "formula": lambda a, memo, n, m: closedform.k1_count_formula(n, m, memo=memo),
        "brute": lambda a, memo, n, m: _kj_brute(a, memo, n, m, 1),
    }),
    "kj": (("n", "m", "j"), {
        "brute": _kj_brute,
    }),
    "bell": (("n",), {"formula": lambda a, memo, n: numtheory.bell(n)}),
    "stirling2": (("n", "m"), {"formula": lambda a, memo, n, m: numtheory.stirling2(n, m)}),
    "binomial": (("n", "m"), {"formula": lambda a, memo, n, m: numtheory.binomial(n, m)}),
}

_DEFAULT_METHOD = {"comp": "explicit"}

# Kinds that `table` renders, with the first row of each table.
_TABLE_FIRST_ROW = {"comp": 0, "k1": 1}


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


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------

def _table_rows(args: argparse.Namespace, first: int, route: Route) -> list[list[str]]:
    """Rows ``first..--max-n`` of the table, each cell as a decimal string."""
    memo = MemoStore()
    rows = [[""] * (n + 1) for n in range(first, args.max_n + 1)]
    # Diagonal by diagonal (d = n - m, m ascending), so that consecutive
    # explicit sums step their weight vector from exponent m to m + 1.
    for d in range(args.max_n + 1):
        for m in range(max(first - d, 0), args.max_n - d + 1):
            rows[m + d - first][m] = str(route(args, memo, m + d, m))
    return rows


def _render_table(rows: list[list[str]], fmt: str, first: int, method: str) -> str:
    max_n = first + len(rows) - 1
    if fmt == "json":
        import json

        return json.dumps([
            {"n": n, "m": m, "value": value, "method": method}
            for n, row in enumerate(rows, first) for m, value in enumerate(row)
        ], indent=2)
    if fmt == "csv":
        header = "n," + ",".join(f"m{m}" for m in range(max_n + 1))
        lines = [header]
        for n, row in enumerate(rows, first):
            lines.append(",".join([str(n), *row]))
        return "\n".join(lines)
    # text: aligned lower-triangular grid
    width = max(
        [len(value) for row in rows for value in row] + [len(str(max_n)), len(f"m{max_n}"), 3]
    )
    header = " " * (width + 3) + " ".join(f"m{m}".rjust(width) for m in range(max_n + 1))
    lines = [header.rstrip()]
    for n, row in enumerate(rows, first):
        lines.append(
            str(n).rjust(width)
            + " | "
            + " ".join(value.rjust(width) for value in row)
        )
    return "\n".join(lines)


def cmd_table(args: argparse.Namespace) -> int:
    first = _TABLE_FIRST_ROW[args.kind]
    if args.max_n < first:
        raise InvalidParametersError(
            f"--max-n must be >= {first} for the {args.kind} table"
        )
    method, _, route = _select_route(args)
    if method == "brute" and args.max_n > args.max_brute_n:
        # Refuse before any cell, naming the first row over the cap.
        check_cap(max(first, args.max_brute_n + 1), args.max_brute_n)
    print(_render_table(_table_rows(args, first, route), args.format, first, method))
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _verify_rowsum(n_max: int, args, store: MemoStore) -> list[tuple[str, bool]]:
    bells = numtheory.bell_numbers(max(n_max + 1, 0))
    checks = []
    for n in range(n_max + 1):
        lhs = closedform.row_sum(n, memo=store)
        checks.append((f"row_sum({n}) = {lhs} = bell({n + 1})", lhs == bells[n + 1]))
    return checks


def _agreement(args, store: MemoStore, kind: str, cells, extra=lambda *cell: ()):
    """One check per cell: every method of ``ROUTES[kind]`` except the
    documented erratum, in table order and called as `value` calls it, after
    ``extra(*cell)``'s leading terms; the check passes when all values agree."""
    routes = [(method, route) for method, route in ROUTES[kind][1].items()
              if method != "paper-literal"]
    checks = []
    for cell in cells:
        terms = [*extra(*cell)]
        terms += [(method, route(args, store, *cell)) for method, route in routes]
        checks.append((
            f"{kind}({','.join(map(str, cell))}): "
            + " ".join(f"{method}={value}" for method, value in terms),
            len({value for _, value in terms}) == 1,
        ))
    return checks


def _verify_threeway(n_max: int, args, store: MemoStore) -> list[tuple[str, bool]]:
    cells = [(n, m) for n in range(n_max + 1) for m in range(n + 1)]
    return _agreement(args, store, "comp", cells)


def _verify_bijection(n_max: int, args, store: MemoStore) -> list[tuple[str, bool]]:
    from . import bijection

    checks = []
    for n in range(n_max + 1):
        for report in bijection.verify_row(n, cap=args.max_brute_n):
            m = report.m
            expected = closedform.comp_count_recursive(n, m, memo=store)
            checks.append(
                (
                    f"bijection({n},{m}): lhs={report.lhs_count} rhs={report.rhs_count} "
                    f"expected={expected} round_trip={report.round_trip_ok} "
                    f"injective={report.injective_ok}",
                    report.ok and report.lhs_count == expected,
                )
            )
    return checks


def _verify_k1(n_max: int, args, store: MemoStore) -> list[tuple[str, bool]]:
    cells = [(n, m) for n in range(1, n_max + 1) for m in range(n + 1)]
    return _agreement(args, store, "k1", cells)


def _verify_reflection(n_max: int, args, store: MemoStore) -> list[tuple[str, bool]]:
    cells = [(n, m) for n in range(1, n_max + 1) for m in range(1, n + 1)]
    return _agreement(
        args, store, "minimax", cells,
        extra=lambda n, m: [
            ("reflected-maximin", closedform.maximin_count_formula(n, n + 1 - m, memo=store))
        ],
    )


_SUITES: dict[str, Callable] = {
    "rowsum": _verify_rowsum,
    "threeway": _verify_threeway,
    "bijection": _verify_bijection,
    "k1": _verify_k1,
    "reflection": _verify_reflection,
}

# Largest vertex count a brute-backed suite enumerates, relative to n_max.
_SUITE_BRUTE_OFFSET = {"threeway": 0, "bijection": 1, "k1": 0, "reflection": 0}


def cmd_verify(args: argparse.Namespace) -> int:
    offset = _SUITE_BRUTE_OFFSET.get(args.suite)
    if offset is not None and args.n_max + offset > args.max_brute_n:
        raise ResourceLimitError(
            f"suite {args.suite!r} with --n-max {args.n_max} would enumerate "
            f"{args.n_max + offset} vertices, above the brute-force cap of {args.max_brute_n}"
        )
    checks = _SUITES[args.suite](args.n_max, args, MemoStore())
    failures = 0
    for description, passed in checks:
        print(f"{'ok  ' if passed else 'FAIL'} {description}")
        failures += 0 if passed else 1
    print(
        f"{args.suite}: {len(checks) - failures}/{len(checks)} identities hold"
    )
    return EXIT_OK if failures == 0 else EXIT_VERIFY_FAILED


# ---------------------------------------------------------------------------
# enumerate
# ---------------------------------------------------------------------------

def _read_text(path: str) -> str:
    """A UTF-8 file's text, less any byte-order mark; unreadable or undecodable is malformed."""
    try:
        with open(path, encoding="utf-8-sig") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise MalformedInputError(f"cannot read {path}: {exc}") from exc


class _BlockText(dict):
    """Position bitset -> block text such as ``{2,5}``, filled as masks are met."""

    def __init__(self, labels: tuple[int, ...]):
        super().__init__()
        self.labels = labels

    def __missing__(self, mask: int) -> str:
        text = self[mask] = "{" + ",".join(
            str(label) for i, label in enumerate(self.labels) if mask >> i & 1
        ) + "}"
        return text


def _composition_lines(g, cap: int | None = None) -> Iterator[str]:
    """``str(c)`` for every composition c of g, rendered from the walker's block bitsets."""
    from . import enumeration

    states = enumeration._composition_states(g, cap)
    text = _BlockText(g.labels)
    return ("|".join(map(text.__getitem__, blocks[:blocks.index(0)])) for _, blocks in states)


# Lines per write: one write per line would be one system call each on an
# unbuffered stdout.
_LINES_PER_WRITE = 4096


def cmd_enumerate(args: argparse.Namespace) -> int:
    from . import graphs

    g = graphs.parse_graph_file(_read_text(args.graph_file))
    lines = _composition_lines(g, args.max_brute_n)
    while chunk := list(islice(lines, _LINES_PER_WRITE)):
        chunk.append("")
        sys.stdout.write("\n".join(chunk))
    return EXIT_OK


# ---------------------------------------------------------------------------
# bfile
# ---------------------------------------------------------------------------

def _parse_range(text: str) -> tuple[int, int]:
    fields = text.split("..")
    if len(fields) != 2:
        raise InvalidParametersError(f"range must look like A..B, got {text!r}")
    try:
        start, end = int(fields[0]), int(fields[1])
    except ValueError:
        raise InvalidParametersError(f"range must look like A..B, got {text!r}") from None
    if start < 0:
        raise InvalidParametersError(f"range must start at 0 or above, got {text!r}")
    return start, end


def parse_bfile(text: str) -> dict[int, int]:
    """Parse b-file text: optional '#' comments, then 'index value' lines."""
    out: dict[int, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 2:
            raise MalformedInputError(f"line {lineno}: expected 'index value', got {line!r}")
        try:
            out[int(fields[0])] = int(fields[1])
        except ValueError:
            raise MalformedInputError(
                f"line {lineno}: expected integers, got {line!r}"
            ) from None
    return out


def cmd_bfile(args: argparse.Namespace) -> int:
    start, end = _parse_range(args.range)
    reference = None if args.compare is None else parse_bfile(_read_text(args.compare))
    store = MemoStore()
    terms: list[tuple[int, int]] = []
    for index in range(start, end + 1):
        if args.kind == "rowsum":
            terms.append((index, closedform.row_sum(index, memo=store)))
        else:  # k1zero
            terms.append((index, closedform.k1_count_formula(index, 0, memo=store)))
    for index, value in terms:
        print(f"{index} {value}")
    if reference is None:
        return EXIT_OK
    mismatches = 0
    for index, value in terms:
        if index not in reference:
            print(f"MISMATCH index {index}: missing from reference", file=sys.stderr)
            mismatches += 1
        elif reference[index] != value:
            print(
                f"MISMATCH index {index}: computed {value}, reference {reference[index]}",
                file=sys.stderr,
            )
            mismatches += 1
    return EXIT_OK if mismatches == 0 else EXIT_VERIFY_FAILED


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


def _add_brute(parser: argparse.ArgumentParser, *, workers: bool = True) -> None:
    parser.add_argument(
        "--max-brute-n",
        type=int,
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

    p_table = sub.add_parser("table", help="render a lower-triangular value table")
    p_table.add_argument("kind", choices=sorted(_TABLE_FIRST_ROW))
    p_table.add_argument("--max-n", type=int, required=True)
    p_table.add_argument("--format", choices=("text", "csv", "json"), default="text")
    _add_method(p_table, _TABLE_FIRST_ROW)
    _add_brute(p_table)
    p_table.set_defaults(func=cmd_table)

    p_verify = sub.add_parser("verify", help="run a cross-validation suite")
    p_verify.add_argument("suite", choices=sorted(_SUITES))
    p_verify.add_argument("--n-max", type=int, required=True)
    _add_brute(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_enum = sub.add_parser("enumerate", help="stream the compositions of a graph file")
    p_enum.add_argument("graph_file")
    _add_brute(p_enum, workers=False)
    p_enum.set_defaults(func=cmd_enumerate)

    p_bfile = sub.add_parser("bfile", help="emit an integer sequence as b-file lines")
    p_bfile.add_argument("kind", choices=("rowsum", "k1zero"))
    p_bfile.add_argument("--range", required=True, metavar="A..B")
    p_bfile.add_argument("--compare", metavar="FILE", default=None, help="diff against a local reference b-file")
    p_bfile.set_defaults(func=cmd_bfile)

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
    sys.exit(main())
