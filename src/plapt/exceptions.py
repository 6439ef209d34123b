"""Package-wide exception types.

Two failure categories are distinguished so callers (and the CLI exit
codes) can react differently: arguments outside the supported domain
versus numerical breakdown of an otherwise valid computation.
"""

__all__ = ["PlaptError", "DomainError", "NumericalError"]


class PlaptError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(PlaptError, ValueError):
    """An argument or parameter lies outside the supported domain."""


class NumericalError(PlaptError, RuntimeError):
    """An iteration failed to converge or an intermediate quantity degenerated."""
