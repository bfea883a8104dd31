"""The ``enumerate`` command: every composition of a graph file, one per line.

``cli`` imports this module when the command runs.  The lines are rendered
from the walker's block bitsets, so no ``Partition`` or ``Composition`` object
is built and the object layer (``partitions``) is never loaded.
"""

from __future__ import annotations

import sys
from collections.abc import Iterator
from itertools import islice

from . import enumeration, graphs
from .cli import EXIT_OK, Args, _read_text


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


# Lines per write: one write per line would be one system call each on an
# unbuffered stdout.
_LINES_PER_WRITE = 4096


def cmd_enumerate(args: Args) -> int:
    g = graphs.parse_graph_file(_read_text(args.graph_file))
    lines = _composition_lines(g, args.max_brute_n)
    while chunk := list(islice(lines, _LINES_PER_WRITE)):
        chunk.append("")
        sys.stdout.write("\n".join(chunk))
    return EXIT_OK
