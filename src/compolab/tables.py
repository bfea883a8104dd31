"""The commands that compute many cells over one shared store: ``table``,
``verify`` and ``bfile``.

``cli`` imports this module when one of them runs, so ``value`` and
``enumerate`` never compile it.  Every route is taken from ``cli.ROUTES``, and
the closed forms are called through their modules, so a tracer that rebinds
a module's functions sees every call.
"""

from __future__ import annotations

import sys
from collections.abc import Callable, Iterator

from . import closedform, numtheory
from .cli import (
    EXIT_OK,
    EXIT_VERIFY_FAILED,
    ROUTES,
    _TABLE_FIRST_ROW,
    Args,
    Route,
    _read_text,
    _select_route,
)
from .closedform import MemoStore
from .errors import InvalidParametersError, MalformedInputError, ResourceLimitError, check_cap


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------

def _table_rows(args: Args, first: int, route: Route) -> Iterator[list[str]]:
    """Rows ``first..--max-n`` of the table in order, each cell as a decimal
    string.  Each row steps every diagonal's weight vector in the shared store
    by one exponent, so an explicit sum builds each vector once."""
    memo = MemoStore()
    for n in range(first, args.max_n + 1):
        yield [str(route(args, memo, n, m)) for m in range(n + 1)]


def _write_table(rows: Iterator[list[str]], fmt: str, first: int, max_n: int,
                 method: str) -> None:
    """Write csv and json a row at a time, as ``rows`` yields them; text
    collects every row first, because its column width is the widest cell."""
    write = sys.stdout.write
    if fmt == "json":
        # json.dumps(cells, indent=2), one cell at a time: neither a method
        # name nor a decimal string needs escaping.
        sep = "[\n"
        for n, row in enumerate(rows, first):
            for m, value in enumerate(row):
                write(f'{sep}  {{\n    "n": {n},\n    "m": {m},\n    "value": "{value}",\n'
                      f'    "method": "{method}"\n  }}')
                sep = ",\n"
        write("\n]\n")
    elif fmt == "csv":
        write("n," + ",".join(f"m{m}" for m in range(max_n + 1)) + "\n")
        for n, row in enumerate(rows, first):
            write(f"{n},{','.join(row)}\n")
    else:  # text: aligned lower-triangular grid
        rows = list(rows)
        width = max(
            [len(value) for row in rows for value in row] + [len(str(max_n)), len(f"m{max_n}"), 3]
        )
        header = " " * (width + 3) + " ".join(f"m{m}".rjust(width) for m in range(max_n + 1))
        write(header.rstrip() + "\n")
        for n, row in enumerate(rows, first):
            write(f"{str(n).rjust(width)} | {' '.join(value.rjust(width) for value in row)}\n")


def _check_graphs(n_max: int) -> None:
    """Refuse, before any cell, brute graph work on more vertices than a
    connectivity table holds, naming the first graph over the limit."""
    from .enumeration import _TABLE_MAX_N, _check_table_size

    _check_table_size(min(n_max, _TABLE_MAX_N + 1))


def cmd_table(args: Args) -> int:
    first = _TABLE_FIRST_ROW[args.kind]
    if args.max_n < first:
        raise InvalidParametersError(
            f"--max-n must be >= {first} for the {args.kind} table"
        )
    method, _, route = _select_route(args)
    if method == "brute":
        # Refuse before any cell, naming the first row over the cap.
        if args.max_n > args.max_brute_n:
            check_cap(max(first, args.max_brute_n + 1), args.max_brute_n)
        if args.kind == "comp":
            _check_graphs(args.max_n)
    _write_table(_table_rows(args, first, route), args.format, first, args.max_n, method)
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


def cmd_verify(args: Args) -> int:
    offset = _SUITE_BRUTE_OFFSET.get(args.suite)
    if offset is not None and args.n_max + offset > args.max_brute_n:
        raise ResourceLimitError(
            f"suite {args.suite!r} with --n-max {args.n_max} would enumerate "
            f"{args.n_max + offset} vertices, above the brute-force cap of {args.max_brute_n}"
        )
    if args.suite in ("threeway", "bijection"):  # their brute terms build graphs
        _check_graphs(args.n_max)
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


def cmd_bfile(args: Args) -> int:
    start, end = _parse_range(args.range)
    reference = None if args.compare is None else parse_bfile(_read_text(args.compare))
    store = MemoStore()
    mismatches = []  # printed after the terms, as the reference is checked
    for index in range(start, end + 1):
        if args.kind == "rowsum":
            value = closedform.row_sum(index, memo=store)
        else:  # k1zero
            value = closedform.k1_count_formula(index, 0, memo=store)
        print(f"{index} {value}")
        if reference is None:
            continue
        if index not in reference:
            mismatches.append(f"MISMATCH index {index}: missing from reference")
        elif reference[index] != value:
            mismatches.append(
                f"MISMATCH index {index}: computed {value}, reference {reference[index]}"
            )
    for line in mismatches:
        print(line, file=sys.stderr)
    return EXIT_VERIFY_FAILED if mismatches else EXIT_OK
