"""Upper-half-plane Teichmueller geometry of the torus.

Teichmueller space is the upper half plane with the distance halved, so
that the translation length conventions match the curve-length formula
len_z(p/q) = |p - q z| / sqrt(y).  Mapping classes act on points by
Moebius transformations (det +1) or anti-Moebius ones (det -1, conjugate
first).  Only the model skeleton runs this geometry; the certificates and
the collapse are exact Farey-graph combinatorics (`torus`, `farey`).

The shortest slope at x + iy costs O(log 1/y): Lagrange-Gauss reduction of
the lattice Z + Zz runs exactly on the dyadic rationals x and y, and only
the few short vectors of the reduced basis meet the float tie rule.
Balanced points are checked against their exact values; one that double
precision cannot hold raises PrecisionLossError, an internal fault.
"""

from __future__ import annotations

import math
from typing import Iterable

from .errors import PrecisionLossError, ValidationError
from .record import Record
from .torus import FareyMarking, Slope, SurfaceMap, cf_expansion, normalizer_to_infinity

__all__ = [
    "TeichPoint",
    "on_point",
    "sigma_matrix",
    "sigma_of_marking",
    "curve_length",
    "shortest_slope",
    "shortest_marking",
    "teich_distance",
    "teich_geodesic",
    "relative_cf_max_coeff",
]


class TeichPoint(Record):
    """Point x + iy of the upper half plane, y > 0."""

    x: float
    y: float

    def __post_init__(self) -> None:
        if not (self.y > 0):
            raise ValidationError(f"half-plane point needs y > 0, got {self.y}")

    @property
    def z(self) -> complex:
        return complex(self.x, self.y)

    def close_to(self, other: "TeichPoint", tol: float = 1e-9) -> bool:
        return abs(self.z - other.z) <= tol * max(1.0, abs(self.z), abs(other.z))


def on_point(g: SurfaceMap, z: TeichPoint) -> TeichPoint:
    """The image of z under g: Moebius for det +1, anti-Moebius for det -1."""
    w = complex(z.x, z.y)
    if g.det == -1:
        w = w.conjugate()
    img = (g.a * w + g.b) / (g.c * w + g.d)
    return TeichPoint(img.real, img.imag)


def sigma_matrix(m: FareyMarking) -> SurfaceMap:
    """The orientation-preserving map sending 0/1 to base and 1/0 to transversal."""
    t, b = m.transversal, m.base
    cand = SurfaceMap(t.p, b.p, t.q, b.q)
    if cand.det == -1:
        cand = SurfaceMap(t.p, -b.p, t.q, -b.q)
    return cand


# cosh d - 1 (d the half-plane distance) between a float balanced point
# and the exact one is accepted up to 1/SIGMA_COSH_INV_TOL.  The float image
# of i cancels its imaginary part away as axis powers grow: the error stays
# below 1e-5 in distance up to power 14 and reaches 0.03 at power 18.
SIGMA_COSH_INV_TOL = 10**6


def sigma_of_marking(m: FareyMarking) -> TeichPoint:
    """Balanced point of the marking: the sigma matrix applied to i.

    The point is the float Moebius image of i.  It is checked against the
    exact point x = (ac + bd)/(c^2 + d^2), y = 1/(c^2 + d^2), and a point
    that double precision cannot hold raises PrecisionLossError.
    """
    g = sigma_matrix(m)
    s = g.c * g.c + g.d * g.d
    try:
        w = (g.a * 1j + g.b) / (g.c * 1j + g.d)
    except OverflowError:  # entries beyond the range of a double
        w = complex(math.nan, math.nan)
    if not (math.isfinite(w.real) and 0.0 < w.imag < math.inf) or _cosh_gap_exceeds(
        w, g.a * g.c + g.b * g.d, s
    ):
        raise PrecisionLossError(
            f"balanced point with c^2 + d^2 of {s.bit_length()} bits"
            " is beyond double precision"
        )
    return TeichPoint(w.real, w.imag)


def _cosh_gap_exceeds(w: complex, x: int, s: int) -> bool:
    """Whether cosh d - 1 = |w - z|^2 / (2 Im w Im z) between w and
    z = (x + i)/s exceeds 1/SIGMA_COSH_INV_TOL, in integers: with the
    floats Re w = a/b and Im w = c/e, the gap times 2 b^2 e^2 s^2 Im w Im z
    is (a s - x b)^2 e^2 + (c s - e)^2 b^2."""
    a, b = w.real.as_integer_ratio()
    c, e = w.imag.as_integer_ratio()
    scaled = (a * s - x * b) ** 2 * e * e + (c * s - e) ** 2 * b * b
    return scaled * SIGMA_COSH_INV_TOL > 2 * c * e * s * b * b


def curve_length(z: TeichPoint, a: Slope) -> float:
    """Flat-torus length len_z(p/q) = |p - q z| / sqrt(y) at unit area."""
    return abs(complex(a.p, 0) - a.q * z.z) / math.sqrt(z.y)


_TIE_TOL = 1e-9


def _norm_sq(z: TeichPoint, p: int, q: int) -> float:
    # (length * sqrt(y))^2; monotone proxy for curve_length at fixed z.
    dx = p - q * z.x
    dy = q * z.y
    return dx * dx + dy * dy


def _slope_tie_key(s: Slope) -> tuple[int, int, int, int]:
    # Finite slopes first (spec examples demand 0/1 over 1/0 at z = i),
    # then lexicographic on (q, |p|, p).
    return (1 if s.is_infinity else 0, s.q, abs(s.p), s.p)


def _tie_break(z: TeichPoint, cands: Iterable[Slope]) -> Slope:
    """Shortest candidate at z under the float tie rule, in visiting order."""
    best: Slope | None = None
    best_n = math.inf
    for cand in cands:
        n = _norm_sq(z, cand.p, cand.q)
        if best is None or n < best_n * (1 - _TIE_TOL):
            best, best_n = cand, n
        elif n <= best_n * (1 + _TIE_TOL) and _slope_tie_key(cand) < _slope_tie_key(best):
            best, best_n = cand, min(best_n, n)
    assert best is not None
    return best


def _short_slopes(z: TeichPoint) -> list[Slope]:
    """Slopes of the lattice Z + Zz within twice the minimal squared length.

    Lagrange-Gauss reduction (H. Cohen, A Course in Computational Algebraic
    Number Theory, section 1.3) runs in O(log 1/y) steps on z.x and z.y as
    exact rationals (a double is a dyadic rational), scaled to integers.
    For a reduced basis b1, b2 (|b1| <= |b2|, |<b1, b2>| <= |b1|^2 / 2)
    every other primitive vector is at least three times as long, squared,
    as b1, so only b1, b2, b2 + b1 and b2 - b1 can come near the minimum.
    They are returned in (q, p) order, 1/0 first.
    """
    xn, xd = z.x.as_integer_ratio()
    yn, yd = z.y.as_integer_ratio()
    den = math.lcm(xd, yd)
    # a lattice vector p + q z as (den * real part, den * imaginary part, p, q)
    u = (den, 0, 1, 0)
    v = (xn * (den // xd), yn * (den // yd), 0, 1)
    nu = u[0] ** 2
    nv = v[0] ** 2 + v[1] ** 2
    if nv < nu:
        u, v, nu, nv = v, u, nv, nu
    while True:
        k = (2 * (u[0] * v[0] + u[1] * v[1]) + nu) // (2 * nu)
        v = tuple(b - k * a for a, b in zip(u, v))
        nv = v[0] ** 2 + v[1] ** 2
        if nv >= nu:
            break
        u, v, nu, nv = v, u, nv, nu
    vectors = [u, v, tuple(b + a for a, b in zip(u, v)), tuple(b - a for a, b in zip(u, v))]
    # p + q z is the slope p/(-q)
    out = {Slope(w[2], -w[3]) for w in vectors if w[0] ** 2 + w[1] ** 2 <= 2 * nu}
    return sorted(out, key=Slope.sort_key)


def shortest_slope(z: TeichPoint) -> Slope:
    """Shortest slope at z; ties resolved by the documented key.

    The tie rule visits the short slopes in (q, p) order, as a scan over
    denominators would.  A slope more than twice as long, squared, as the
    shortest never wins or ties, so dropping it changes nothing.
    """
    return _tie_break(z, _short_slopes(z))


def _shortest_neighbour(z: TeichPoint, base: Slope) -> Slope:
    # Neighbours of base are the pullbacks of the integers under the
    # canonical chart; the squared norm is quadratic in the integer, so a
    # window around the real minimizer suffices.
    minv = normalizer_to_infinity(base).inverse()
    ac = complex(minv.a, 0) - minv.c * z.z
    bc = complex(minv.b, 0) - minv.d * z.z
    denom = abs(ac) ** 2
    k_star = 0.0 if denom == 0 else -(ac.conjugate() * bc).real / denom
    k0 = math.floor(k_star)
    return _tie_break(z, (minv.on_slope(Slope(k, 1)) for k in range(k0 - 3, k0 + 5)))


def shortest_marking(z: TeichPoint) -> FareyMarking:
    """Shortest slope plus its shortest Farey neighbour, with the fixed tie-break."""
    base = shortest_slope(z)
    return FareyMarking(base, _shortest_neighbour(z, base))


def teich_distance(z: TeichPoint, w: TeichPoint) -> float:
    """Half the hyperbolic half-plane distance."""
    d2 = (z.x - w.x) ** 2 + (z.y - w.y) ** 2
    return 0.5 * math.acosh(1.0 + d2 / (2.0 * z.y * w.y))


def teich_geodesic(z: TeichPoint, w: TeichPoint, t: float) -> TeichPoint:
    """Point at parameter t in [0, 1], proportional to arc length, from z to w."""
    if not (0.0 <= t <= 1.0):
        raise ValidationError(f"geodesic parameter must lie in [0,1], got {t}")
    scale = max(1.0, abs(z.x), abs(w.x))
    if abs(z.x - w.x) <= 1e-12 * scale:
        y = z.y ** (1.0 - t) * w.y ** t
        return TeichPoint(z.x, y)
    c = (w.x * w.x + w.y * w.y - z.x * z.x - z.y * z.y) / (2.0 * (w.x - z.x))
    r = math.hypot(z.x - c, z.y)
    th_z = math.atan2(z.y, z.x - c)
    th_w = math.atan2(w.y, w.x - c)
    u_z = math.log(math.tan(th_z / 2.0))
    u_w = math.log(math.tan(th_w / 2.0))
    u = (1.0 - t) * u_z + t * u_w
    th = 2.0 * math.atan(math.exp(u))
    return TeichPoint(c + r * math.cos(th), r * math.sin(th))


def relative_cf_max_coeff(m_from: FareyMarking, m_to: FareyMarking) -> int:
    """Max |coefficient| of the target base expanded in the source marking chart."""
    rel = sigma_matrix(m_from).inverse().on_slope(m_to.base)
    if rel.is_infinity:
        return 0
    return max(abs(c) for c in cf_expansion(rel))
