"""What the input parsers share: the reader of their files' lines, the
splitter of their data lines, and the cut of what a message echoes.

Only the commands that read a file load this module: ``enumerate`` (through
``listing``) and ``bfile --compare`` (through ``tables``).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from .errors import MalformedInputError

# Longest line an input file may hold, in characters: above the
# million-digit tokens a file may carry, and the most that a reader holds.
MAX_LINE = 1 << 21


def read_lines(path: str) -> Iterator[str]:
    """A UTF-8 file's lines, less any byte-order mark and line breaks ("\\n",
    "\\r" or "\\r\\n"), read one at a time.  An unreadable or undecodable
    file, or a line longer than ``MAX_LINE``, is malformed, and is refused as
    the reading reaches it."""
    try:
        with open(path, encoding="utf-8-sig") as handle:  # reads "\r" and "\r\n" as "\n"
            lineno = 0
            try:
                while line := handle.readline(MAX_LINE + 1):
                    lineno += 1
                    if len(line) > MAX_LINE and line[-1] != "\n":
                        raise MalformedInputError(
                            f"cannot read {path}: line {lineno} is longer than {MAX_LINE} "
                            "characters")
                    yield line.removesuffix("\n")
            except UnicodeDecodeError as exc:
                # exc counts from the block it decoded, the last bytes read:
                # count from the start of the file.
                at = handle.buffer.tell() - len(exc.object)
                first, last = at + exc.start, at + exc.end - 1
                what = (f"byte 0x{exc.object[exc.start]:02x} in position {first}" if first == last
                        else f"bytes in position {first}-{last}")
                raise MalformedInputError(f"cannot read {path}: '{exc.encoding}' codec can't "
                                          f"decode {what}: {exc.reason}") from exc
    except OSError as exc:
        raise MalformedInputError(f"cannot read {path}: {exc}") from exc


def data_lines(lines: Iterable[str]) -> Iterator[tuple[int, str, list[str]]]:
    """The number, stripped text and whitespace-split fields of each line that
    is neither blank nor a "#" comment, numbered from 1 among all the lines."""
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if line and line[0] != "#":
            yield lineno, line, line.split()


def _cut(text: str) -> str:
    """``text`` for a one-line message: at most its first 40 characters, then "..."."""
    return text if len(text) <= 40 else text[:40] + "..."


def _significant(token: str) -> str:
    """An integer token's digits less its sign, underscores and leading zeros of
    any script ("+0_7" reads as 7): their count bounds int()'s quadratic read."""
    zeros, token = "_", token.lstrip("+-")
    while (token := token.lstrip(zeros))[:1].isdecimal() and int(token[0]) == 0:
        zeros += token[0]  # one more script's zero: a pass per script at most
    return token.replace("_", "")
