"""Error taxonomy shared across the package.

Parse failures and invariant violations are kept distinct because the CLI
maps them to different exit codes (2 and 3 respectively).  A reader raises
ParseError only for input without the schema's shape: bad JSON, a missing
key, a value of the wrong JSON type.  A rule about what well-shaped values
mean is its record's, checked by the constructor as a ValidationError, and
no reader turns one into the other.  Every other exception,
PrecisionLossError included, is an internal fault (exit 5).
"""


class GlueforgeError(Exception):
    """Base class for all package errors."""


class ParseError(GlueforgeError):
    """Malformed input file or descriptor."""


class ValidationError(GlueforgeError):
    """Structurally well-formed input violating a stated invariant."""


class BackendMismatchError(ValidationError):
    """Operation mixing markings or maps over different backends."""


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


def ascii_int(text: str) -> int:
    """text as ASCII digits after an optional minus; any other spelling int()
    takes ('+1', '1_0', ' 1', other scripts' digits) raises ValueError."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"{clip(text)} is not an integer")
    return int(text)


def ascii_float(text: str) -> float:
    """text as an ASCII spelling that float() takes, without a leading plus;
    any other spelling float() takes ('+0.3', '0_3', ' 0.3', other scripts'
    digits) raises ValueError."""
    if not text.isascii() or text.startswith("+") or "_" in text or text.strip() != text:
        raise ValueError(f"{clip(text)} is not a number")
    return float(text)


def json_str(value: object, field: str) -> str:
    """value when JSON decoded it as a string.  An id or a name is never
    coerced: a number, null or any other value is a ParseError that names
    the field."""
    if type(value) is not str:
        raise ParseError(f"{field} must be a string, not {clip(value)}")
    return value


def json_int(value: object) -> int:
    """value when JSON decoded it as an integer.  A float, a numeric string
    or true/false raises TypeError, which each parser reports as a
    ParseError in its own words."""
    if type(value) is not int:
        raise TypeError(f"{clip(value)} is not an integer")
    return value


def json_bool(obj: dict, key: str, default: bool) -> bool:
    """The JSON true or false under key, default when absent; any other
    value, such as the string "false", is malformed."""
    value = obj.get(key, default)
    if not isinstance(value, bool):
        raise ParseError(f"{key} must be true or false, not {clip(value)}")
    return value
