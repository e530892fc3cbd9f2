"""Exception types shared across the package, and the integer check."""

import operator


class ExactKMedoidsError(Exception):
    """Base class for all errors raised by this package."""


class EmptyDataset(ExactKMedoidsError):
    """A dataset with no data rows where at least one is required."""


class ShapeError(ExactKMedoidsError):
    """Mismatched row length or point dimension."""

    def __init__(self, message, row=None):
        super().__init__(message)
        self.row = row


class ParseError(ExactKMedoidsError):
    """A cell that could not be parsed as a 64-bit real."""

    def __init__(self, message, row=None, column=None):
        super().__init__(message)
        self.row = row
        self.column = column


class InsufficientData(ExactKMedoidsError):
    """Too few rows or points for the requested operation."""


class InvalidArguments(ExactKMedoidsError):
    """Arguments that violate an operation's preconditions."""


class UnknownMetric(ExactKMedoidsError):
    """A metric name not present in the registry."""


class DistanceOverflow(ExactKMedoidsError):
    """Distances that are not finite, or so large that an objective overflows."""


class RankOverflow(ExactKMedoidsError):
    """A combination rank or count that does not fit in 64 bits."""


class InstanceTooLarge(ExactKMedoidsError):
    """An instance beyond the configured enumeration or memory limits."""

    def __init__(self, message, estimate=None):
        super().__init__(message)
        self.estimate = estimate


def check_int(value, name: str) -> int:
    """Refuse a `name` that is not an integer (2.7, "2"); return it as an int."""
    try:
        return operator.index(value)
    except TypeError:
        raise InvalidArguments(f"{name} must be an integer, got {value!r}") from None
