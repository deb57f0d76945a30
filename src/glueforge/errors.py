"""Error taxonomy shared across the package.

Parse failures and invariant violations are kept distinct because the CLI
maps them to different exit codes (2 and 3 respectively).  Every other
exception, PrecisionLossError included, is an internal fault (exit 5).
"""


class GlueforgeError(Exception):
    """Base class for all package errors."""


class ParseError(GlueforgeError):
    """Malformed input file or descriptor."""


class ValidationError(GlueforgeError):
    """Structurally well-formed input violating a stated invariant."""


class BackendMismatchError(ValidationError):
    """Operation mixing markings or maps over different backends."""


class EmptyProjectionError(ValidationError):
    """Annular projection requested for a slope equal to the annulus core."""


class PrecisionLossError(ArithmeticError):
    """A result that no double can hold.

    Raised for a balanced point whose y = 1/(c^2 + d^2) is below the
    least double, 2^-1074, and if the decimal path of `halfplane` finds
    no correctly rounded double.  Not a GlueforgeError: the input is fine
    and glueforge cannot represent the answer, so the CLI reports it as
    an internal fault (exit 5).
    """


# Longest repr of an input value that an error message quotes in full.
CLIP_CHARS = 60


def clip(value: object) -> str:
    """repr of an input value for an error message: past CLIP_CHARS, a
    prefix and the full length, so a 10,000-digit slope costs one line."""
    text = repr(value)
    if len(text) <= CLIP_CHARS:
        return text
    return f"{text[:CLIP_CHARS]}... ({len(text)} chars)"


def json_int(value: object) -> int:
    """value when JSON decoded it as an integer.  A float, a numeric string
    or true/false raises TypeError, which each parser reports as a
    ParseError in its own words."""
    if type(value) is not int:
        raise TypeError(f"{clip(value)} is not an integer")
    return value
