"""Canonical JSON emission shared by certificates, gluings and skeletons.

Reproducibility contract: every artifact is serialized through
canonical_dumps, so identical in-memory values yield byte-identical
files and stable content hashes.
"""

from __future__ import annotations

import json


def canonical_dumps(obj: object) -> str:
    """Deterministic two-space-indented JSON with a trailing newline.

    Key order is the insertion order of the dicts handed in; callers build
    their payloads in a fixed field order.
    """
    return json.dumps(obj, indent=2, ensure_ascii=False) + "\n"


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
