"""Slopes, SL(2,Z) maps, markings and canonical charts of the torus.

Slopes p/q (q >= 0, gcd 1, infinity = 1/0) are the curve-graph vertices;
two slopes are adjacent iff |p a' - p' a| = 1 (the Farey graph, whose
kernels live in `farey`).  Mapping classes are integer matrices of
determinant +-1 acting on slopes and markings; their action on the upper
half plane, with the rest of the Teichmueller geometry that only the model
skeleton runs, lives in `halfplane`.

Conventions fixed here and recorded in exported reports:
  * the canonical chart of a slope w is the orientation-preserving map
    normalizer_to_infinity(w) sending w to infinity;
  * markings are unordered-looking pairs (base, transversal) with
    intersection number one.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .errors import ParseError, ValidationError, clip, json_int
from .record import Record

if TYPE_CHECKING:  # fractions loads decimal: Slope.value imports it when called
    from fractions import Fraction

__all__ = [
    "Slope",
    "INFINITY",
    "parse_slope",
    "intersection_number",
    "is_adjacent",
    "cf_expansion",
    "SurfaceMap",
    "IDENTITY",
    "REFLECTION",
    "FareyMarking",
    "normalizer_to_infinity",
]


class Slope(Record):
    """Primitive slope p/q in canonical form: q > 0, or (1, 0) for infinity."""

    p: int
    q: int

    def __post_init__(self) -> None:
        p, q = self.p, self.q
        if p == 0 and q == 0:
            raise ValidationError("slope 0/0 is not a curve")
        g = math.gcd(p, q)
        p, q = p // g, q // g
        if q < 0:
            p, q = -p, -q
        if q == 0:
            p = 1
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    @property
    def is_infinity(self) -> bool:
        return self.q == 0

    def value(self) -> Fraction | None:
        from fractions import Fraction

        return None if self.q == 0 else Fraction(self.p, self.q)

    def __str__(self) -> str:
        return "inf" if self.q == 0 else f"{self.p}/{self.q}"

    def sort_key(self) -> tuple[int, int]:
        return (self.q, self.p)


def _primitive_slope(p: int, q: int) -> Slope:
    """Slope of a vector already known to be primitive, such as a unimodular
    image or a convergent of a slope: the canonical sign, without the gcd."""
    if q < 0:
        p, q = -p, -q
    elif q == 0:
        p = 1
    s = object.__new__(Slope)
    fields = s.__dict__
    fields["p"] = p
    fields["q"] = q
    return s


INFINITY = Slope(1, 0)


def parse_slope(text: str) -> Slope:
    """Parse 'p/q', a bare integer, or 'inf'."""
    s = text.strip()
    if s in ("inf", "1/0", "-1/0"):
        return INFINITY
    try:
        if "/" in s:
            num, den = s.split("/")
            return Slope(int(num), int(den))
        return Slope(int(s), 1)
    except (ValueError, ValidationError) as exc:
        raise ParseError(f"bad slope {clip(text)}") from exc


def intersection_number(a: Slope, b: Slope) -> int:
    return abs(a.p * b.q - b.p * a.q)


def is_adjacent(a: Slope, b: Slope) -> bool:
    return intersection_number(a, b) == 1


def cf_expansion(a: Slope) -> list[int]:
    """Canonical continued fraction [a0; a1, ..., ak], ai >= 1 for i >= 1, ak >= 2.

    Uses the floor convention, so negative rationals get a0 = floor(p/q).
    Infinity is rejected (no expansion in this chart).
    """
    if a.is_infinity:
        raise ValidationError("infinity has no continued-fraction expansion")
    p, q = a.p, a.q
    out: list[int] = []
    while True:
        n, r = divmod(p, q)
        out.append(n)
        if r == 0:
            return out
        p, q = q, r


class SurfaceMap(Record):
    """Mapping class of the torus as an integer matrix with det = +-1.

    Slopes transform as column vectors (p, q).
    """

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self) -> None:
        if self.det not in (1, -1):
            raise ValidationError(f"surface map must have det +-1, got {self.det}")

    @property
    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    @property
    def entries(self) -> tuple[tuple[int, int], tuple[int, int]]:
        return ((self.a, self.b), (self.c, self.d))

    def inverse(self) -> "SurfaceMap":
        s = self.det
        return SurfaceMap(s * self.d, -s * self.b, -s * self.c, s * self.a)

    def compose(self, other: "SurfaceMap") -> "SurfaceMap":
        """self after other (matrix product self * other)."""
        return SurfaceMap(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def __matmul__(self, other: "SurfaceMap") -> "SurfaceMap":
        return self.compose(other)

    def power(self, n: int) -> "SurfaceMap":
        if n < 0:
            return self.inverse().power(-n)
        out = IDENTITY
        base = self
        while n:
            if n & 1:
                out = out @ base
            base = base @ base
            n >>= 1
        return out

    def on_slope(self, s: Slope) -> Slope:
        return _primitive_slope(self.a * s.p + self.b * s.q, self.c * s.p + self.d * s.q)

    def on_marking(self, m: "FareyMarking") -> "FareyMarking":
        return FareyMarking(self.on_slope(m.base), self.on_slope(m.transversal))

    def is_involution(self) -> bool:
        sq = self @ self
        return sq in (IDENTITY, SurfaceMap(-1, 0, 0, -1))

    def to_json(self) -> list[list[int]]:
        return [[self.a, self.b], [self.c, self.d]]

    @staticmethod
    def from_json(rows: object) -> "SurfaceMap":
        try:
            (a, b), (c, d) = rows  # type: ignore[misc]
            return SurfaceMap(json_int(a), json_int(b), json_int(c), json_int(d))
        except (TypeError, ValueError, ValidationError) as exc:
            raise ParseError(f"bad surface map {clip(rows)}") from exc


IDENTITY = SurfaceMap(1, 0, 0, 1)
REFLECTION = SurfaceMap(1, 0, 0, -1)


class FareyMarking(Record):
    """Complete marking: base and transversal slopes with intersection one."""

    base: Slope
    transversal: Slope

    def __post_init__(self) -> None:
        if intersection_number(self.base, self.transversal) != 1:
            raise ValidationError(
                f"marking slopes must intersect once: {self.base}, {self.transversal}"
            )

    def slopes(self) -> tuple[Slope, Slope]:
        return (self.base, self.transversal)

    def __str__(self) -> str:
        return f"({self.base},{self.transversal})"


def normalizer_to_infinity(w: Slope, neighbour: Slope | None = None) -> SurfaceMap:
    """Canonical orientation-preserving map sending w to infinity.

    Deterministic: the Farey neighbour sent to 0 is r/s with p s - q r = 1
    and 0 <= s < q (s = 0 and M = identity when w is already infinity).
    Passing any Farey neighbour of w spares the modular inverse.
    """
    if w.is_infinity:
        return IDENTITY
    p, q = w.p, w.q
    if q == 1:
        s = 0
    elif neighbour is None:
        s = pow(p % q, -1, q)
    else:
        # p t - q u = +-1 for the neighbour u/t, so +-t inverts p mod q
        t = neighbour.q
        s = (t if p * t - q * neighbour.p == 1 else -t) % q
    r = (p * s - 1) // q
    return SurfaceMap(s, -r, -q, p)
