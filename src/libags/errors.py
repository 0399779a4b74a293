"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: validation-type errors exit 1,
I/O errors (plain OSError) exit 2.
"""


class LibagsError(Exception):
    """Base class for all package errors."""


class ParseError(LibagsError):
    """A file could not be parsed (malformed row, bad number, empty file)."""


class SchemaError(ParseError):
    """A file parsed but its columns do not match the expected schema."""


class ValidationError(LibagsError, ValueError):
    """Inputs violate a documented precondition or invariant."""


class DivergenceError(LibagsError):
    """Training produced a non-finite loss."""


class NoPositiveImportance(LibagsError):
    """Every candidate importance is zero; there is nothing to allocate."""
