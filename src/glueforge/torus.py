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

TorusBackend, the curve-graph contract on the Farey graph, imports
`farey` and `halfplane` where a method runs.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Sequence

from .errors import ParseError, ValidationError, ascii_int, clip, json_int
from .record import Record

if TYPE_CHECKING:  # fractions loads decimal: Slope.value imports it when called
    from fractions import Fraction

    from .gluing import SlotMap
    from .halfplane import TeichPoint, Tube
    from .surface import ProjectionResult

__all__ = [
    "Slope",
    "INFINITY",
    "parse_slope",
    "intersection_number",
    "cf_expansion",
    "SurfaceMap",
    "IDENTITY",
    "REFLECTION",
    "FareyMarking",
    "normalizer_to_infinity",
    "TorusBackend",
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
    """Parse 'p/q', a bare integer, or 'inf', of ASCII integers (`ascii_int`)."""
    s = text.strip()
    if s in ("inf", "1/0", "-1/0"):
        return INFINITY
    try:
        num, slash, den = s.partition("/")
        return Slope(ascii_int(num), ascii_int(den) if slash else 1)
    except ValueError as exc:
        raise ParseError(f"bad slope {clip(text)}") from exc


def intersection_number(a: Slope, b: Slope) -> int:
    return abs(a.p * b.q - b.p * a.q)


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

    def inverse(self) -> "SurfaceMap":
        s = self.det
        return SurfaceMap(s * self.d, -s * self.b, -s * self.c, s * self.a)

    def __matmul__(self, other: "SurfaceMap") -> "SurfaceMap":
        """self after other (matrix product self * other)."""
        return SurfaceMap(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

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
        except (TypeError, ValueError) as exc:
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


def _json_slope(value: object) -> Slope:
    """A slope, which JSON writes as a string ('p/q', an integer or 'inf');
    a number or any other type is a parse error."""
    if not isinstance(value, str):
        raise ParseError(f"slope {clip(value)} is not a string")
    return parse_slope(value)


def _slopes(vertices: Sequence) -> Sequence[Slope]:
    if not all(isinstance(v, Slope) for v in vertices):
        raise ValidationError("torus curve vertices are slopes")
    return vertices


class TorusBackend(Record):
    """The Farey graph as a `surface.BackendHandle`: curve vertices are
    slopes, a marking is a FareyMarking, and a slot map a mapping class
    (its matrix), orientation-reversing iff its determinant is -1."""

    kind = "torus"

    def to_json(self) -> dict:
        return {"kind": self.kind}

    def distances_from(self, a: Slope, targets: Sequence[Slope]) -> list[int]:
        # one chart, where consecutive adjacent or equal targets cost O(1)
        from .farey import distances_from

        if not isinstance(a, Slope):
            raise ValidationError("torus curve vertices are slopes")
        return distances_from(a, _slopes(targets))

    def marking_distance(self, payload: FareyMarking, targets: Sequence[Slope]) -> int:
        # the other slope of the marking is a Farey neighbour of each, which
        # spares each row's chart its modular inverse
        from .farey import distances_from

        base, transversal = payload.slopes()
        return min(
            min(distances_from(base, _slopes(targets), transversal)),
            min(distances_from(transversal, targets, base)),
        )

    def curve_geodesic(self, a: Slope, b: Slope) -> list[Slope]:
        from .farey import farey_geodesic

        return farey_geodesic(a, b)

    def geodesic(self, x: FareyMarking, y: FareyMarking) -> list[Slope]:
        return self.curve_geodesic(x.base, y.base)

    def sup_projection(
        self, x: FareyMarking, y: FareyMarking, denom_bound: int | None
    ) -> ProjectionResult:
        # the exact pivot search, certified by the sweep when bounded
        from .farey import max_subsurface_projection
        from .surface import ProjectionResult

        label, value = max_subsurface_projection(x, y, denom_bound=denom_bound)
        return ProjectionResult(label, value, certified=denom_bound is not None)

    def check_marking(self, payload: object) -> FareyMarking:
        if not isinstance(payload, FareyMarking):
            raise ValidationError("torus marking payload must be a FareyMarking")
        return payload

    def marking_elements(self, payload: FareyMarking) -> tuple[Slope, Slope]:
        return payload.slopes()

    def marking_to_json(self, payload: FareyMarking) -> dict:
        return {"base": str(payload.base), "transversal": str(payload.transversal)}

    def marking_from_json(self, obj: dict) -> FareyMarking:
        if "base" not in obj or "transversal" not in obj:
            raise ParseError("torus marking needs base and transversal")
        return FareyMarking(_json_slope(obj["base"]), _json_slope(obj["transversal"]))

    def check_disks(self, elements: tuple) -> None:
        if not all(isinstance(e, Slope) for e in elements):
            raise ValidationError("torus disk set elements must be slopes")

    def disks_to_json(self, elements: tuple[Slope, ...]) -> list[str]:
        return [str(s) for s in elements]

    def disks_from_json(self, obj: list) -> tuple[Slope, ...]:
        return tuple(_json_slope(s) for s in obj)

    def check_map(self, f: SlotMap) -> None:
        if f.matrix is None or f.perm is not None:
            raise ValidationError("torus slot map needs a matrix and no permutation")
        if not f.graph_reversing:
            # so that equal maps are equal records
            raise ValidationError("torus slot map takes its orientation from its matrix, not a flag")

    def identity_map(self) -> SlotMap:
        from .gluing import SlotMap

        return SlotMap(self, matrix=IDENTITY)

    def apply_map(self, f: SlotMap, payload: FareyMarking) -> FareyMarking:
        return f.matrix.on_marking(payload)

    def invert_map(self, f: SlotMap) -> SlotMap:
        return type(f)(self, matrix=f.matrix.inverse())

    def compose_maps(self, f: SlotMap, g: SlotMap) -> SlotMap:
        return type(f)(self, matrix=f.matrix @ g.matrix)

    def map_reverses(self, f: SlotMap) -> bool:
        return f.matrix.det == -1

    def map_is_involution(self, f: SlotMap) -> bool:
        return f.matrix.is_involution()

    def map_to_json(self, f: SlotMap) -> list[list[int]]:
        return f.matrix.to_json()

    def map_from_json(self, obj: object) -> SlotMap:
        from .gluing import SlotMap

        return SlotMap(self, matrix=SurfaceMap.from_json(obj))

    def sigma(self, payload: FareyMarking) -> TeichPoint:
        from .halfplane import sigma_of_marking

        return sigma_of_marking(payload)

    def tube(self, mu: FareyMarking, nu: FareyMarking, samples: int) -> Tube:
        from .halfplane import tube

        return tube(mu, nu, samples)
