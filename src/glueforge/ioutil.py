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
    # hashlib loads OpenSSL, the largest import of a cold run; `model
    # --format obj` hashes nothing and so never pays for it
    import hashlib

    return hashlib.sha256(text.encode("utf-8")).hexdigest()
