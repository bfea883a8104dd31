"""Exception types shared across the package, and the brute-force cap behind
``ResourceLimitError``.

The cap lives here, not in ``enumeration``, so that the command line can show
it in its help without loading the enumeration code.
"""

# Largest vertex count a brute-force enumeration runs without an explicit cap.
BRUTE_FORCE_CAP = 12


class CompolabError(Exception):
    """Base class for all errors raised by this library."""


class InvalidParametersError(CompolabError, ValueError):
    """Arguments are outside an operation's domain (e.g. m > n)."""


class MalformedInputError(CompolabError, ValueError):
    """External input (edge lists, graph files, b-files) cannot be parsed."""


class ResourceLimitError(CompolabError, RuntimeError):
    """A brute-force request exceeds the configured enumeration cap."""


class InconsistentResultError(CompolabError, ValueError):
    """Two computations of one value disagree, as when a memo cell is rewritten."""
