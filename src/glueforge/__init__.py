"""glueforge: exact combinatorics of decorated-manifold gluings at desk scale."""

__version__ = "0.1.0"

from .errors import (
    BackendMismatchError,
    GlueforgeError,
    ParseError,
    ValidationError,
)

__all__ = [
    "__version__",
    "GlueforgeError",
    "ParseError",
    "ValidationError",
    "BackendMismatchError",
]
