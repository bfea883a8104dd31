"""The commands that compute many cells over one shared store: ``table``,
``verify`` and ``bfile``.

``cli`` imports this module when one of them runs, so ``value`` and
``enumerate`` never compile it.  Every route is taken from ``cli.ROUTES``,
built there by the constructor of its calling convention (a closed form, a
brute statistic or a number primitive); a route and every other call here
goes through the module, so a tracer that rebinds a module's functions sees
every call.  ``verify`` reads one record per suite from ``_SUITES``: its
checks and its brute offset, by which ``_check_walks`` refuses, before any
cell, what ``errors.check_cap`` would refuse mid-run.  The agreement suites
are records built by ``_agreement``, and take their kind's routes as they run.
"""

from __future__ import annotations

import sys
from collections.abc import Callable, Iterable, Iterator

from . import closedform, numtheory
from .cli import (
    EXIT_OK,
    EXIT_VERIFY_FAILED,
    ROUTES,
    _TABLE_FIRST_ROW,
    Args,
    Route,
    _select_route,
)
from .closedform import MemoStore
from .errors import (MAX_BRUTE_N, InvalidParametersError, MalformedInputError, _cut,
                     _significant, check_cap, data_lines, read_lines)


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


def _check_walks(largest: int, cap: int) -> None:
    """Refuse, before any cell, brute walks up to ``largest`` vertices that
    pass a bound, naming the first vertex count over it."""
    check_cap(min(largest, min(cap, MAX_BRUTE_N) + 1), cap)


def cmd_table(args: Args) -> int:
    first = _TABLE_FIRST_ROW[args.kind]
    if args.max_n < first:
        raise InvalidParametersError(
            f"--max-n must be >= {first} for the {args.kind} table"
        )
    method, _, route = _select_route(args)
    if method == "brute":
        _check_walks(args.max_n, args.max_brute_n)
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


def _agreement(kind: str, first_n: int, first_m: int, extra=lambda store, n, m: ()):
    """An agreement suite's checks: one per cell first_n <= n <= n_max,
    first_m <= m <= n, whose terms are ``extra(store, n, m)``'s and then every
    route of ``ROUTES[kind]`` but the documented erratum, in table order, read
    as the suite runs.  A check passes when all its terms agree."""
    def checks(n_max: int, args, store: MemoStore) -> list[tuple[str, bool]]:
        routes = [(method, route) for method, route in ROUTES[kind][1].items()
                  if method != "paper-literal"]
        out = []
        for n in range(first_n, n_max + 1):
            for m in range(first_m, n + 1):
                terms = [*extra(store, n, m)]
                terms += [(method, route(args, store, n, m)) for method, route in routes]
                out.append((
                    f"{kind}({n},{m}): " + " ".join(f"{method}={value}" for method, value in terms),
                    len({value for _, value in terms}) == 1,
                ))
        return out
    return checks


# suite -> (checks, brute offset or None).  checks(n_max, args, store) returns
# the (line, passed) pairs; the offset is how many vertices past n_max the
# suite's brute terms enumerate (None: it has none).
_SUITES: dict[str, tuple[Callable, int | None]] = {
    "rowsum": (_verify_rowsum, None),
    "threeway": (_agreement("comp", 0, 0), 0),
    "bijection": (_verify_bijection, 1),
    "k1": (_agreement("k1", 1, 0), 0),
    "reflection": (_agreement("minimax", 1, 1, lambda store, n, m: [
        ("reflected-maximin", closedform.maximin_count_formula(n, n + 1 - m, memo=store)),
    ]), 0),
}


def cmd_verify(args: Args) -> int:
    suite, offset = _SUITES[args.suite]
    if offset is not None:
        _check_walks(args.n_max + offset, args.max_brute_n)
    checks = suite(args.n_max, args, MemoStore())
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


def _bfile_lines(lines: Iterable[str]) -> Iterator[list[str]]:
    """The index and value tokens of each 'index value' line of a b-file's
    lines, past '#' comments and blank lines, each checked as int() reads it
    (a sign, digits of any script, single underscores between them) but not
    converted."""
    for lineno, line, fields in data_lines(lines):
        if len(fields) != 2:
            raise MalformedInputError(f"line {lineno}: expected 'index value', got {_cut(line)!r}")
        for token in fields:
            body = token[1:] if token[0] in "+-" else token
            # Digits, with each "_" between two of them.
            if not body.isdecimal() and (
                    not body.replace("_", "").isdecimal() or "__" in f"_{body}_"):
                raise MalformedInputError(f"line {lineno}: expected integers, got {_cut(line)!r}")
        yield fields


def cmd_bfile(args: Args) -> int:
    start, end = _parse_range(args.range)
    digits = len(str(end))  # an index with more significant digits is past the range: unread
    reference = None if args.compare is None else {
        int(index): value for index, value in _bfile_lines(read_lines(args.compare))
        if len(index) <= digits or len(_significant(index)) <= digits}
    store = MemoStore()
    mismatches = []  # printed after the terms, as the reference is checked
    for index in range(start, end + 1):
        if args.kind == "rowsum":
            value = closedform.row_sum(index, memo=store)
        else:  # k1zero
            value = closedform.k1_count_formula(index, 0, memo=store)
        text = str(value)
        print(f"{index} {text}")
        if reference is None:
            continue
        if index not in reference:
            mismatches.append(f"MISMATCH index {index}: missing from reference")
            continue
        # A reference with more significant digits than the term, and than 40,
        # cannot equal it and would be slow to convert: it is shown cut.
        token = reference[index]
        shown = str(int(token)) if len(_significant(token)) <= max(len(text), 40) else _cut(token)
        if shown != text:
            mismatches.append(f"MISMATCH index {index}: computed {text}, reference {shown}")
    for line in mismatches:
        print(line, file=sys.stderr)
    return EXIT_VERIFY_FAILED if mismatches else EXIT_OK
