"""The ``enumerate`` command: every composition of a graph file, one per line.

``cli`` imports this module when the command runs.  The file is read a line
at a time, and ``graphs.from_edge_list`` sets each edge line's pair in one
adjacency bitset per label as it draws it, so no text or edge list is held
whatever its length.  The lines are rendered from the walker's block
bitsets, so no ``Partition`` or ``Composition`` object is built and the
object layer (``partitions``) is never loaded, and they are written as their
text reaches a fixed number of bytes.
"""

from __future__ import annotations

import io
import sys
from collections.abc import Iterable, Iterator

from . import enumeration, graphs
from .cli import EXIT_OK, Args
from .errors import MalformedInputError
from .reading import _cut, _significant, data_lines, read_lines

# int() takes time quadratic in a token's digits, so the parser refuses a
# label or count with more significant digits than MAX_LABEL before reading it.
_DIGITS = len(str(graphs.MAX_LABEL))


def parse_graph_file(lines: str | Iterable[str]) -> graphs.LabelledGraph:
    """Parse the plain-text graph format, given as text or as its lines.

    Lines starting with "#" and blank lines are ignored.  The first data line
    is ``n <count>``; each following data line is one edge ``u v`` (1-based).
    The count is checked as its line is read, and each edge line is read as
    ``graphs.from_edge_list`` draws its pair, which checks it.
    """
    if isinstance(lines, str):
        lines = io.StringIO(lines, newline=None)  # cut into lines as a file is read
    rows = data_lines(lines)
    for lineno, line, fields in rows:
        if len(fields) != 2 or fields[0] != "n" or not fields[1].isdecimal():
            raise MalformedInputError(f"line {lineno}: expected 'n <count>', got {_cut(line)!r}")
        count = _significant(fields[1])
        if len(count) > _DIGITS:
            raise graphs._above_max(_cut(count))
        return graphs.from_edge_list(int(fields[1]), _edges(rows))
    raise MalformedInputError("missing 'n <count>' header line")


def _edges(rows: Iterator[tuple[int, str, list[str]]]) -> Iterator[tuple[int, int]]:
    """The pair ``(u, v)`` of each edge line, each line checked as it is drawn."""
    for lineno, line, fields in rows:
        if len(fields) != 2:
            raise MalformedInputError(f"line {lineno}: expected 'u v', got {_cut(line)!r}")
        for label in fields:
            if len(label) > _DIGITS and len(_significant(label)) > _DIGITS:
                raise MalformedInputError(
                    f"line {lineno}: label {_cut(label)!r} is not an integer in "
                    f"1..{graphs.MAX_LABEL}")
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise MalformedInputError(
                f"line {lineno}: expected integer labels, got {_cut(line)!r}"
            ) from None
        yield u, v


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
    states = enumeration._composition_states(g, cap)
    text = _BlockText(g.labels)
    return ("|".join(map(text.__getitem__, blocks[:blocks.index(0)])) for _, blocks in states)


# Bytes of pending text that make a write (each line is ASCII): few system
# calls on an unbuffered stdout, and little text held at once.
_WRITE_BYTES = 8192


def cmd_enumerate(args: Args) -> int:
    g = parse_graph_file(read_lines(args.graph_file))
    pending = ""
    for line in _composition_lines(g, args.max_brute_n):
        pending += line + "\n"
        if len(pending) >= _WRITE_BYTES:
            sys.stdout.write(pending)
            pending = ""
    sys.stdout.write(pending)
    return EXIT_OK
