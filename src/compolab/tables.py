"""The commands that compute a run of cells over one shared store: ``table``
and ``bfile``.

``cli`` imports this module when one of them runs, so ``value``, ``verify``
(whose suites live in ``suites``) and ``enumerate`` never compile it.  Every
route is taken from ``cli.ROUTES``, built there by the constructor of its
calling convention (a closed form, a brute statistic or a number primitive);
a route and every other call here goes through the module, so a tracer that
rebinds a module's functions sees every call.  A brute table is refused
before any cell by ``errors._check_walks``.  Only ``bfile --compare`` reads
a file, so only it loads ``reading``.
"""

from __future__ import annotations

import sys
from collections.abc import Iterable, Iterator

import compolab

from . import closedform
from .cli import EXIT_OK, EXIT_VERIFY_FAILED, _TABLE_FIRST_ROW, Args, Route, _select_route
from .closedform import MemoStore
from .errors import InvalidParametersError, MalformedInputError, _check_walks


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
    cut = compolab.reading._cut
    for lineno, line, fields in compolab.reading.data_lines(lines):
        if len(fields) != 2:
            raise MalformedInputError(f"line {lineno}: expected 'index value', got {cut(line)!r}")
        for token in fields:
            body = token[1:] if token[0] in "+-" else token
            # Digits, with each "_" between two of them.
            if not body.isdecimal() and (
                    not body.replace("_", "").isdecimal() or "__" in f"_{body}_"):
                raise MalformedInputError(f"line {lineno}: expected integers, got {cut(line)!r}")
        yield fields


def cmd_bfile(args: Args) -> int:
    start, end = _parse_range(args.range)
    digits = len(str(end))  # an index with more significant digits is past the range: unread
    reference = None if args.compare is None else {
        int(index): value
        for index, value in _bfile_lines(compolab.reading.read_lines(args.compare))
        if len(index) <= digits or len(compolab.reading._significant(index)) <= digits}
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
        reading = compolab.reading
        shown = (str(int(token)) if len(reading._significant(token)) <= max(len(text), 40)
                 else reading._cut(token))
        if shown != text:
            mismatches.append(f"MISMATCH index {index}: computed {text}, reference {shown}")
    for line in mismatches:
        print(line, file=sys.stderr)
    return EXIT_VERIFY_FAILED if mismatches else EXIT_OK
