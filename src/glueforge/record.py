"""Frozen value records whose classes compile nothing when defined.

`dataclasses` writes each generated method as source text and compiles it
with `exec` when the class statement runs, so every cold start pays again.
For glueforge's 43 record classes that was 42-57 ms of each cold
`import glueforge.cli` (5 runs, 2-core VM, Python 3.11.7), and importing
`dataclasses` loads `inspect`, about 10 ms more: close to 40 % of a cold
`glueforge validate`.  `Record` defines its methods once.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any


class FrozenRecordError(AttributeError):
    """An attempt to assign or delete an attribute of a record."""


class Record:
    """Immutable value with the semantics of `dataclass(frozen=True)`: a
    subclass declares its fields as annotations, in order, and a class
    attribute of the same name is a default.  No `__slots__`, because
    `cached_property` and trusted constructors write `__dict__`."""

    _fields: tuple[str, ...] = ()
    _defaults: dict[str, Any] = {}

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        own = cls.__dict__.get("__annotations__", {})
        cls._fields = fields = cls._fields + tuple(n for n in own if n not in cls._fields)
        cls._defaults = {**cls._defaults, **{n: cls.__dict__[n] for n in own if n in cls.__dict__}}
        # _values maps __dict__ to the field tuple
        if len(fields) > 1:
            cls._values = itemgetter(*fields)
        else:  # itemgetter of one key returns the bare value
            cls._values = staticmethod(lambda d: tuple([d[n] for n in fields]))

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        fields = self._fields
        if kwargs or len(args) != len(fields):
            rest = fields[len(args):]
            missing = [n for n in rest if n not in kwargs and n not in self._defaults]
            unexpected = sorted(kwargs.keys() - set(rest))
            if len(args) > len(fields) or missing or unexpected:
                raise TypeError(
                    f"{type(self).__name__} takes {fields}: got {len(args)} positional,"
                    f" missing {missing}, unexpected or repeated {unexpected}"
                )
            args += tuple(kwargs[n] if n in kwargs else self._defaults[n] for n in rest)
        self.__dict__.update(zip(fields, args))
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values(self.__dict__) == other._values(other.__dict__)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self.__dict__))

    def __repr__(self) -> str:
        body = ", ".join(f"{n}={self.__dict__[n]!r}" for n in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenRecordError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenRecordError(f"cannot delete field {name!r}")


def replace(record: Record, /, **changes: Any) -> Any:
    """A copy with some fields changed, checked again by `__post_init__`."""
    return type(record)(**{**{n: record.__dict__[n] for n in record._fields}, **changes})
