"""Canonical JSON emission shared by certificates, gluings and skeletons.

Reproducibility contract: every artifact is serialized through
canonical_dumps, so identical in-memory values yield byte-identical
files and stable content hashes.
"""

from __future__ import annotations

from itertools import chain
from json.encoder import encode_basestring

_INT = {int}
_SEQUENCES = {list, tuple}
_INFINITY = float("inf")


def canonical_dumps(obj: object) -> str:
    """Deterministic two-space-indented JSON with a trailing newline: the
    text of `json.dumps(obj, indent=2, ensure_ascii=False) + "\\n"`.

    Key order is the insertion order of the dicts handed in; callers build
    their payloads in a fixed field order.  With an indent, `json` before
    Python 3.13 runs its pure-Python encoder, one generator per container.
    This writer appends to one list instead, joins a list of ints or of
    int sequences in one expression, and writes a list of int sequences
    that one call meets twice at the same depth only once: a graph's
    edges, which each boundary on the graph hands out as one tuple."""
    parts: list[str] = []
    _write(obj, 0, parts, {})
    parts.append("\n")
    return "".join(parts)


def _scalar(obj: object) -> str:
    """The text of a value that is no container, as `json` writes it."""
    if isinstance(obj, str):
        return encode_basestring(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        if obj != obj:
            return "NaN"
        if obj == _INFINITY:
            return "Infinity"
        if obj == -_INFINITY:
            return "-Infinity"
        return float.__repr__(obj)
    raise TypeError(f"Object of type {obj.__class__.__name__} is not JSON serializable")


def _int_rows(seq: list | tuple, level: int, memo: dict) -> str | None:
    """The text of a nonempty list at depth level that holds only ints, or
    only nonempty sequences of ints; None for any other list.  memo keeps
    the text of each list of sequences by its id and depth: the object
    being written holds every list alive for the whole call, so an id
    names one list throughout."""
    types = set(map(type, seq))
    outer = "\n" + "  " * level
    inner = outer + "  "
    if types == _INT:
        return "[" + inner + ("," + inner).join(map(int.__repr__, seq)) + outer + "]"
    if not types <= _SEQUENCES or not all(seq):
        return None
    key = (id(seq), level)
    text = memo.get(key)
    if text is None:
        if set(map(type, chain.from_iterable(seq))) != _INT:
            return None
        row_sep = "," + inner + "  "
        head, tail = "[" + inner + "  ", inner + "]"
        rows = [head + row_sep.join(map(int.__repr__, row)) + tail for row in seq]
        text = memo[key] = "[" + inner + ("," + inner).join(rows) + outer + "]"
    return text


def _write(obj: object, level: int, parts: list[str], memo: dict) -> None:
    """Append the text of obj at depth level."""
    if isinstance(obj, (list, tuple)):
        text = _int_rows(obj, level, memo) if obj else "[]"
        if text is not None:
            parts.append(text)
            return
        inner = "\n" + "  " * (level + 1)
        lead = "[" + inner
        for value in obj:
            parts.append(lead)
            lead = "," + inner
            _write(value, level + 1, parts, memo)
        parts.append(inner[:-2] + "]")
    elif isinstance(obj, dict):
        if not obj:
            parts.append("{}")
            return
        inner = "\n" + "  " * (level + 1)
        lead = "{" + inner
        for key, value in obj.items():
            if not isinstance(key, str):  # coerced as `json` coerces keys
                if not (isinstance(key, (int, float)) or key is None):
                    raise TypeError(
                        f"keys must be str, int, float, bool or None, not {key.__class__.__name__}"
                    )
                key = _scalar(key)
            parts.append(lead + encode_basestring(key) + ": ")
            lead = "," + inner
            _write(value, level + 1, parts, memo)
        parts.append(inner[:-2] + "}")
    else:
        parts.append(_scalar(obj))


def sha256_of_text(text: str) -> str:
    return sha256_of_bytes(text.encode("utf-8"))


def sha256_of_bytes(data: bytes) -> str:
    # CPython's builtin SHA-256, about 5 ms for 1 MiB: `hashlib` loads
    # OpenSSL, the largest import of a cold run
    try:
        from _sha2 import sha256  # Python 3.12 and later
    except ImportError:
        try:
            from _sha256 import sha256  # Python 3.10 and 3.11
        except ImportError:  # an interpreter built without them
            from hashlib import sha256
    return sha256(data).hexdigest()
