"""No except handler of the package turns a broken rule into malformed
input: readers raise ParseError (exit 2) only for JSON or text without the
schema's shape, and a rule that a record checks stays a ValidationError
(exit 3) wherever the file states it."""

import ast
import pathlib

import glueforge
from glueforge import errors

SRC = pathlib.Path(glueforge.__file__).parent

# the names of the exception types whose handler catches a ValidationError:
# its bases, itself and its subclasses
CATCHES_VALIDATION = {c.__name__ for c in errors.ValidationError.__mro__} | {
    name
    for name, c in vars(errors).items()
    if isinstance(c, type) and issubclass(c, errors.ValidationError)
}


def _name(node: ast.expr) -> str | None:
    """The name that a bare or dotted name ends with."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Name):
        return node.id
    return node.attr if isinstance(node, ast.Attribute) else None


def validation_to_parse(tree: ast.Module) -> list[int]:
    """The line of each except handler that catches a ValidationError and
    raises a ParseError."""
    lines = []
    for handler in ast.walk(tree):
        if not isinstance(handler, ast.ExceptHandler):
            continue
        caught = handler.type
        types = caught.elts if isinstance(caught, ast.Tuple) else [caught]
        if caught is not None and not {_name(t) for t in types} & CATCHES_VALIDATION:
            continue
        raised = (n.exc for n in ast.walk(handler) if isinstance(n, ast.Raise) and n.exc)
        if any(_name(exc) == "ParseError" for exc in raised):
            lines.append(handler.lineno)
    return lines


def test_no_handler_turns_a_validation_error_into_a_parse_error():
    found = {}
    for path in sorted(SRC.glob("*.py")):
        found[path.name] = validation_to_parse(ast.parse(path.read_text(), str(path)))
    assert {"gluing.py", "torus.py", "hypgraph.py"} <= found.keys()
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_the_error_kind_check_sees_a_conversion():
    for code, lines in (
        ("try:\n    f()\nexcept ValidationError as e:\n    raise ParseError(str(e))", [3]),
        ("try:\n    f()\nexcept (ValueError, ValidationError):\n    raise ParseError('x')", [3]),
        ("try:\n    f()\nexcept errors.GlueforgeError:\n    raise errors.ParseError", [3]),
        ("try:\n    f()\nexcept BackendMismatchError:\n    if x:\n        raise ParseError", [3]),
        ("try:\n    f()\nexcept:\n    raise ParseError('x')", [3]),
        ("try:\n    f()\nexcept (TypeError, ValueError) as e:\n    raise ParseError(str(e))", []),
        ("try:\n    f()\nexcept ValidationError:\n    raise", []),
        ("try:\n    f()\nexcept ValidationError as e:\n    print(e)", []),
    ):
        assert validation_to_parse(ast.parse(code)) == lines, code
