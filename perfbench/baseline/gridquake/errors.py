"""Exception hierarchy shared across the package.

The CLI maps these to exit codes: ConfigError -> 2, LimitError -> 3,
InternalError -> 4.
"""


class GridQuakeError(Exception):
    """Base class for all package errors."""


class ConfigError(GridQuakeError):
    """Bad input document, config file, or CLI arguments."""


class LimitError(GridQuakeError):
    """A solver limit was exceeded (instance too large, cap hit)."""


class InternalError(GridQuakeError):
    """An invariant that should hold by construction was violated."""
