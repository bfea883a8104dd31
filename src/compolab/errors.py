"""Exception types shared across the package, and the brute-force bounds
behind ``ResourceLimitError``.

The bounds and their one check, ``check_cap``, live here, not in
``enumeration`` or ``stats``, so that the command line can show the cap in
its help, and refuse a table or a suite over a bound (``_check_walks``),
without loading the brute-force code.  What the input parsers share lives in
``reading``.
"""

from __future__ import annotations

# Largest vertex count a brute-force enumeration runs without an explicit cap.
BRUTE_FORCE_CAP = 12

# Largest vertex count any brute-force walk takes, whatever the cap: at 20
# vertices a connectivity table takes 0.2-0.7 s on one core (a path 0.23 s,
# K20 - K10 0.57 s, K20 0.67 s) and 1 MiB, with 4 MiB of scratch while it is
# built, and a walk over Bell(17) or more partitions would never end anyway.
MAX_BRUTE_N = 20


class CompolabError(Exception):
    """Base class for all errors raised by this library."""


class InvalidParametersError(CompolabError, ValueError):
    """Arguments are outside an operation's domain (e.g. m > n)."""


class MalformedInputError(CompolabError, ValueError):
    """External input (edge lists, graph files, b-files) cannot be parsed."""


class ResourceLimitError(CompolabError, RuntimeError):
    """A brute-force request walks more vertices than the cap or ``MAX_BRUTE_N``."""


class InconsistentResultError(CompolabError, ValueError):
    """Two computations of one value disagree, as when a memo cell is rewritten."""


def check_cap(n: int, cap: int | None) -> None:
    """Raise ``ResourceLimitError`` when n vertices exceed ``cap`` (or
    ``BRUTE_FORCE_CAP`` when ``cap`` is None), or ``MAX_BRUTE_N`` whatever the
    cap.  This is the one comparison of a vertex count with a brute bound."""
    limit = BRUTE_FORCE_CAP if cap is None else cap
    if n > limit:
        raise ResourceLimitError(
            f"{n} vertices exceeds the brute-force cap of {limit} "
            f"(pass a higher cap explicitly to proceed)"
        )
    if n > MAX_BRUTE_N:
        raise ResourceLimitError(f"{n} vertices exceeds the brute-force limit of {MAX_BRUTE_N}, "
                                 "which no cap raises")


def _check_walks(largest: int, cap: int) -> None:
    """Refuse, before any cell, brute walks up to ``largest`` vertices that
    pass a bound, naming the first vertex count over it."""
    check_cap(min(largest, min(cap, MAX_BRUTE_N) + 1), cap)
