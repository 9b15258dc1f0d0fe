"""Exception types shared across the package."""


class PcolError(Exception):
    """Base class for all package errors."""


class NotPrimePowerError(PcolError):
    """The requested field order is not a prime power."""


class UnsupportedError(PcolError):
    """The request exceeds a hard implementation limit."""


class OutOfRangeError(PcolError):
    """An index, label, or parameter lies outside its valid range."""


class TooLargeError(PcolError):
    """The operation would exceed the configured size guard."""


class NotSurjectiveError(PcolError):
    """A coloring does not attain every declared color."""

    def __init__(self, missing_color: int):
        self.missing_color = missing_color
        super().__init__(f"color {missing_color} is never attained")


class InconsistentError(PcolError):
    """Row-sum regularity or detailed balance cannot be satisfied."""


class DisconnectedError(PcolError):
    """The color graph of a quotient matrix is disconnected."""


class SpectrumNotInGraphError(PcolError):
    """A matrix eigenvalue is not an eigenvalue of the ambient Hamming graph."""


class SizeMismatchError(PcolError):
    """Collection size and outer coloring shape do not agree."""


class BadOuterColoringError(PcolError):
    """The outer coloring does not have the required quotient structure."""


class NotEssentialError(PcolError):
    """A coloring required to depend on all arguments has a dummy argument."""


class NotPowerOfTwoError(PcolError):
    """A parameter that must be a power of two is not."""


class BadDensityError(PcolError):
    """Density parameters violate their constraints."""


class InvalidPartitionError(PcolError):
    """A color grouping is not a partition of the color set."""


class ParseError(PcolError):
    """A coloring file is malformed."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + where)


class LengthMismatchError(PcolError):
    """A coloring file payload does not contain exactly q**n values."""


class ColorOutOfRangeError(PcolError):
    """A coloring file contains a color value not below k."""
