"""Exception types shared across the package, and the brute-force cap behind
``ResourceLimitError``.

The cap and its check live here, not in ``enumeration``, so that the command
line can show the cap in its help, and refuse a table over it, without
loading the enumeration code.
"""

from __future__ import annotations

# Largest vertex count a brute-force enumeration runs without an explicit cap.
BRUTE_FORCE_CAP = 12


class CompolabError(Exception):
    """Base class for all errors raised by this library."""


class InvalidParametersError(CompolabError, ValueError):
    """Arguments are outside an operation's domain (e.g. m > n)."""


class MalformedInputError(CompolabError, ValueError):
    """External input (edge lists, graph files, b-files) cannot be parsed."""


class ResourceLimitError(CompolabError, RuntimeError):
    """A brute-force request exceeds the enumeration cap or the connectivity table's bound."""


class InconsistentResultError(CompolabError, ValueError):
    """Two computations of one value disagree, as when a memo cell is rewritten."""


def check_cap(n: int, cap: int | None) -> None:
    """Raise ``ResourceLimitError`` when n vertices exceed ``cap``, or
    ``BRUTE_FORCE_CAP`` when ``cap`` is None."""
    limit = BRUTE_FORCE_CAP if cap is None else cap
    if n > limit:
        raise ResourceLimitError(
            f"{n} vertices exceeds the brute-force cap of {limit} "
            f"(pass a higher cap explicitly to proceed)"
        )
