"""Exception types shared across the package."""


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
