"""Upper-half-plane Teichmueller geometry of the torus.

Teichmueller space is the upper half plane with the distance halved, so
that the translation length conventions match the curve-length formula
len_z(p/q) = |p - q z| / sqrt(y).  Mapping classes act on points by
Moebius transformations (det +1) or anti-Moebius ones (det -1, conjugate
first).  Only the model skeleton runs this geometry, through the torus
backend: `sigma_of_marking` for an anchor, and `tube` for a tube, which
returns a `Tube`, the one record of a tube's geometry and its thickness
facts.  The certificates and the collapse are exact Farey-graph
combinatorics.

The shortest slope at x + iy costs O(log 1/y): Lagrange-Gauss reduction of
the lattice Z + Zz runs exactly on the rationals x and y, scaled to
integers, and only the few short vectors of the reduced basis meet the
tie rule.

Two arithmetics, picked from integers before any float work (`_exact`).
The balanced point of sigma = [[a, b], [c, d]] is the rational point
((ac + bd) + i)/(c^2 + d^2), and its precision demand (`precision_demand`)
is the bit length of max(c^2 + d^2, |ac + bd|), that is of 1/y and |x|/y.
`sigma_of_marking` picks for its one point, and `tube` for both ends of a
tube at once.  A tube's continued-fraction coefficient
(`Tube.cf_coefficient`) needs no pick: it is read on both paths from
integers, `relative_cf_max_coeff` of the `balanced_marking`s of the
tube's two sigma matrices.

* Up to PRECISION_BITS the double path runs: the balanced point is the
  float Moebius image of i, and tubes are measured and sampled in doubles
  (`teich_distance`, `teich_geodesic`, `shortest_slope`, `curve_length`).
  Complex division errs in x by about |ac + bd| 2^-52 of y, at most
  2^-12 of y within 40 bits, so a balanced point lies within
  cosh d - 1 of about 2^-25 of the exact one, far below 1e-6.
* Above it the decimal path (`decimalpath`) works from the integer
  matrices, and every number it returns is correctly rounded.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, Iterable

from .errors import ValidationError
from .record import Record
from .torus import FareyMarking, Slope, SurfaceMap, cf_expansion

if TYPE_CHECKING:  # the decimal path imports fractions when it runs
    from fractions import Fraction

__all__ = [
    "PRECISION_BITS",
    "TeichPoint",
    "on_point",
    "sigma_matrix",
    "precision_demand",
    "sigma_of_marking",
    "balanced_marking",
    "curve_length",
    "shortest_slope",
    "teich_distance",
    "teich_geodesic",
    "relative_cf_max_coeff",
    "TubeSample",
    "Tube",
    "tube",
]

# the largest precision demand that the double path answers
PRECISION_BITS = 40


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

    def to_json(self) -> list[float]:
        return [self.x, self.y]


class TubeSample(Record):
    """One fiber of a tube: parameter, modulus, and its shortest geometry."""

    t: float
    point: TeichPoint
    systole: float
    shortest: Slope

    def to_json(self) -> dict:
        return {
            "t": self.t,
            "point": self.point.to_json(),
            "systole": self.systole,
            "shortest": [self.shortest.p, self.shortest.q],
        }


# i, the balanced point of the identity
_I = TeichPoint(0.0, 1.0)


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


def precision_demand(g: SurfaceMap) -> int:
    """Bits a double must resolve at the balanced point g i: the bit length
    of max(c^2 + d^2, |ac + bd|), which are 1/y and |x|/y."""
    return max(g.c * g.c + g.d * g.d, abs(g.a * g.c + g.b * g.d)).bit_length()


def _exact(*gs: SurfaceMap) -> bool:
    """The arithmetic rule: the decimal path runs when one of these sigma
    matrices demands more than PRECISION_BITS."""
    return any(precision_demand(g) > PRECISION_BITS for g in gs)


def sigma_of_marking(m: FareyMarking) -> TeichPoint:
    """Balanced point of the marking: the sigma matrix applied to i.

    Within PRECISION_BITS it is the float Moebius image of i, beyond them
    the correctly rounded exact point (`decimalpath.balanced_point`).
    """
    g = sigma_matrix(m)
    if _exact(g):
        from .decimalpath import balanced_point

        return balanced_point(g)
    return on_point(g, _I)


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


def _tie_break(
    cands: Iterable[Slope], norm: Callable[[int, int], float], tol: float | Fraction
) -> Slope:
    """Shortest candidate under the tie rule, in visiting order: norms within
    a relative tol of the best tie, and the tie key decides.  The double
    path passes float norms, the decimal path exact ones."""
    best: Slope | None = None
    best_n = math.inf
    for cand in cands:
        n = norm(cand.p, cand.q)
        if best is None or n < best_n * (1 - tol):
            best, best_n = cand, n
        elif n <= best_n * (1 + tol) and _slope_tie_key(cand) < _slope_tie_key(best):
            best, best_n = cand, min(best_n, n)
    assert best is not None
    return best


def _scaled(xn: int, xd: int, yn: int, yd: int) -> tuple[int, int, int]:
    """(X, Y, den) with x = X/den and y = Y/den, for x = xn/xd, y = yn/yd."""
    den = math.lcm(xd, yd)
    return xn * (den // xd), yn * (den // yd), den


def _short_slopes(x: int, y: int, den: int) -> list[Slope]:
    """Slopes of the lattice Z + Zz, z = (x + iy)/den, within twice the
    minimal squared length.

    Lagrange-Gauss reduction (H. Cohen, A Course in Computational Algebraic
    Number Theory, section 1.3) runs in O(log 1/y) steps on integers.
    For a reduced basis b1, b2 (|b1| <= |b2|, |<b1, b2>| <= |b1|^2 / 2)
    every other primitive vector is at least three times as long, squared,
    as b1, so only b1, b2, b2 + b1 and b2 - b1 can come near the minimum.
    They are returned in (q, p) order, 1/0 first.
    """
    # a lattice vector p + q z as (den * real part, den * imaginary part, p, q)
    u0, u1, up, uq, nu = den, 0, 1, 0, den * den
    v0, v1, vp, vq, nv = x, y, 0, 1, x * x + y * y
    while True:
        if nv < nu:
            u0, u1, up, uq, nu, v0, v1, vp, vq, nv = v0, v1, vp, vq, nv, u0, u1, up, uq, nu
        k = (2 * (u0 * v0 + u1 * v1) + nu) // (2 * nu)
        v0, v1, vp, vq = v0 - k * u0, v1 - k * u1, vp - k * up, vq - k * uq
        nv = v0 * v0 + v1 * v1
        if nv >= nu:
            break
    # b1 = u, b2 = v, b2 + b1 and b2 - b1; p + q z is the slope p/(-q)
    out = {Slope(up, -uq)}
    for w0, w1, wp, wq in (
        (v0, v1, vp, vq),
        (v0 + u0, v1 + u1, vp + up, vq + uq),
        (v0 - u0, v1 - u1, vp - up, vq - uq),
    ):
        if w0 * w0 + w1 * w1 <= 2 * nu:
            out.add(Slope(wp, -wq))
    return sorted(out, key=Slope.sort_key)


def shortest_slope(z: TeichPoint) -> Slope:
    """Shortest slope at z; ties resolved by the documented key.

    The tie rule visits the short slopes in (q, p) order, as a scan over
    denominators would.  A slope more than twice as long, squared, as the
    shortest never wins or ties, so dropping it changes nothing.
    """
    cands = _short_slopes(*_scaled(*z.x.as_integer_ratio(), *z.y.as_integer_ratio()))
    return _tie_break(cands, lambda p, q: _norm_sq(z, p, q), _TIE_TOL)


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


def balanced_marking(g: SurfaceMap) -> FareyMarking:
    """The shortest marking at the exact balanced point g i.  At i only 0/1
    and 1/0 have length 1, and g carries slopes and their lengths at i to
    g i, so the marking is g(0/1) and g(1/0), ordered by the tie key."""
    ends = (g.on_slope(Slope(0, 1)), g.on_slope(Slope(1, 0)))
    return FareyMarking(*sorted(ends, key=_slope_tie_key))


def relative_cf_max_coeff(m_from: FareyMarking, m_to: FareyMarking) -> int:
    """Max |coefficient| of the target base expanded in the source marking chart."""
    rel = sigma_matrix(m_from).inverse().on_slope(m_to.base)
    if rel.is_infinity:
        return 0
    return max(abs(c) for c in cf_expansion(rel))


# ------------------------------------------------------------------ tubes


def _tube_norm(g_a: SurfaceMap, g_b: SurfaceMap) -> int:
    m = g_a.inverse() @ g_b
    return m.a * m.a + m.b * m.b + m.c * m.c + m.d * m.d


class Tube(Record):
    """The geometry of one tube: the sigma matrices of its ends, its two
    end points, its length, whether it is degenerate (one point, length 0),
    and its samples at equal steps of arclength.  Its JSON leaves out the
    sigma matrices, from which its continued-fraction coefficient is read;
    a tube read back from JSON has none."""

    ends: tuple[SurfaceMap, SurfaceMap] | None
    sigma_a: TeichPoint
    sigma_b: TeichPoint
    length: float
    degenerate: bool
    samples: tuple[TubeSample, ...]

    @property
    def min_systole(self) -> float:
        return min(s.systole for s in self.samples)

    @property
    def cf_coefficient(self) -> int:
        """`relative_cf_max_coeff` of the `balanced_marking`s of the ends,
        read from integers on both paths."""
        return relative_cf_max_coeff(*map(balanced_marking, self.ends))

    def to_json(self) -> dict:
        return {
            "sigma_a": self.sigma_a.to_json(),
            "sigma_b": self.sigma_b.to_json(),
            "length": self.length,
            "degenerate": self.degenerate,
            "samples": [s.to_json() for s in self.samples],
        }


def tube(mu: FareyMarking, nu: FareyMarking, n: int) -> Tube:
    """The tube between the balanced points of mu and nu, by the rule for a
    whole tube, with n samples.  A degenerate tube is the product of one
    fiber with an interval: two samples of its one point for any n."""
    if n < 2:
        raise ValidationError("tube sampling needs at least 2 samples")
    ends = (sigma_matrix(mu), sigma_matrix(nu))
    degenerate = _tube_norm(*ends) == 2
    if degenerate:
        n = 2
    if _exact(*ends):
        from .decimalpath import balanced_point, exact_tube_length, exact_tube_samples

        z_a, z_b = map(balanced_point, ends)
        length = 0.0 if degenerate else exact_tube_length(*ends)
        return Tube(ends, z_a, z_b, length, degenerate, exact_tube_samples(*ends, n))
    z_a, z_b = (on_point(g, _I) for g in ends)
    length = 0.0 if degenerate else teich_distance(z_a, z_b)
    far = z_a if degenerate else z_b
    samples = []
    for k in range(n):
        z = teich_geodesic(z_a, far, k / (n - 1))
        # curve_length of the shortest slope is exactly what systole returns
        shortest = shortest_slope(z)
        samples.append(TubeSample(k / (n - 1), z, curve_length(z, shortest), shortest))
    return Tube(ends, z_a, z_b, length, degenerate, tuple(samples))
