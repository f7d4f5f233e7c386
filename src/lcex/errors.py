"""Exception types shared across the package."""


class LcexError(Exception):
    """Base class for all lcex errors."""


class EmptyInput(LcexError):
    """Raised when an input string is empty."""


class OutOfRange(LcexError):
    """Raised when a 1-based position lies outside [1..n]."""


class ParamOutOfRange(LcexError):
    """Raised when a build parameter violates its admissible range."""


class FormatError(LcexError):
    """Raised when an index container is malformed or has a bad version."""
