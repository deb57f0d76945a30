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
    """A float result beyond double precision.

    Not a GlueforgeError: the input is fine and glueforge cannot represent
    the answer, so the CLI reports it as an internal fault (exit 5).
    """
