"""Upper-half-plane Teichmueller geometry of the torus.

Teichmueller space is the upper half plane with the distance halved, so
that the translation length conventions match the curve-length formula
len_z(p/q) = |p - q z| / sqrt(y).  Mapping classes act on points by
Moebius transformations (det +1) or anti-Moebius ones (det -1, conjugate
first).  Only the model skeleton runs this geometry; the certificates and
the collapse are exact Farey-graph combinatorics (`torus`, `farey`).

The shortest slope at x + iy costs O(log 1/y): Lagrange-Gauss reduction of
the lattice Z + Zz runs exactly on the rationals x and y, scaled to
integers, and only the few short vectors of the reduced basis meet the
tie rule.

Two arithmetics, picked from integers before any float work.  The balanced
point of sigma = [[a, b], [c, d]] is the rational point
((ac + bd) + i)/(c^2 + d^2), and its precision demand (`precision_demand`)
is the bit length of max(c^2 + d^2, |ac + bd|), that is of 1/y and |x|/y.

* Up to PRECISION_BITS the double path runs: the balanced point is the
  float Moebius image of i, and tubes are measured and sampled in doubles
  (`teich_distance`, `teich_geodesic`, `shortest_slope`, `curve_length`).
  Complex division errs in x by about |ac + bd| 2^-52 of y, at most
  2^-12 of y within 40 bits, so a balanced point lies within
  cosh d - 1 of about 2^-25 of the exact one, far below 1e-6.
* Above it the decimal path (`balanced_point`, `exact_tube_length`,
  `exact_tube_samples`, `balanced_marking`) works from the integer
  matrices.  Balanced points are the correctly rounded exact rationals.  A
  tube between sigma(mu) i and sigma(nu) i has length
  1/2 arcosh(N/2), N = a^2 + b^2 + c^2 + d^2 of M = sigma(mu)^-1 sigma(nu).
  Samples lie on the exact geodesic, whose centre and squared radius are
  rational, at equal steps of the arclength parameter s: x = c + r tanh s,
  y = r sech s, with no trigonometry.  The shortest slope is taken on the
  exact decimal sample under the same tie rule applied to exact norms.
  The working precision is sized from the bit lengths, and a double is
  accepted only when a second evaluation at a higher precision rounds to
  the same double (A. Ziv, "Fast evaluation of elementary mathematical
  functions with correctly rounded last bit", ACM TOMS 17, 1991).  So
  every number this path returns is correctly rounded and does not depend
  on the platform's libm.  `decimal` and `fractions` are imported on this
  path only.

A point with y below 2^-1074 has no double; its balanced point raises
PrecisionLossError, an internal fault.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

from .errors import PrecisionLossError, ValidationError
from .record import Record
from .torus import FareyMarking, Slope, SurfaceMap, cf_expansion, normalizer_to_infinity

if TYPE_CHECKING:  # the decimal path imports decimal and fractions when it runs
    from decimal import Decimal
    from fractions import Fraction

__all__ = [
    "PRECISION_BITS",
    "TeichPoint",
    "on_point",
    "sigma_matrix",
    "precision_demand",
    "sigma_of_marking",
    "balanced_point",
    "balanced_marking",
    "curve_length",
    "shortest_slope",
    "shortest_marking",
    "teich_distance",
    "teich_geodesic",
    "exact_tube_length",
    "exact_tube_samples",
    "relative_cf_max_coeff",
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


def precision_demand(g: SurfaceMap) -> int:
    """Bits a double must resolve at the balanced point g i: the bit length
    of max(c^2 + d^2, |ac + bd|), which are 1/y and |x|/y."""
    return max(g.c * g.c + g.d * g.d, abs(g.a * g.c + g.b * g.d)).bit_length()


def sigma_of_marking(m: FareyMarking) -> TeichPoint:
    """Balanced point of the marking: the sigma matrix applied to i.

    Within PRECISION_BITS it is the float Moebius image of i, beyond them
    the correctly rounded exact point (`balanced_point`).
    """
    g = sigma_matrix(m)
    if precision_demand(g) > PRECISION_BITS:
        return balanced_point(g)
    w = (g.a * 1j + g.b) / (g.c * 1j + g.d)
    return TeichPoint(w.real, w.imag)


def balanced_point(g: SurfaceMap) -> TeichPoint:
    """The correctly rounded point g i = ((ac + bd) + i)/(c^2 + d^2): the
    true division of two ints rounds correctly.  A y below the double
    range raises PrecisionLossError."""
    s = g.c * g.c + g.d * g.d
    y = 1 / s
    if y == 0.0:
        raise PrecisionLossError(
            f"balanced point with c^2 + d^2 of {s.bit_length()} bits"
            " is beyond the double exponent range"
        )
    return TeichPoint((g.a * g.c + g.b * g.d) / s, y)


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


def _window(minv: SurfaceMap, k0: int) -> Iterator[Slope]:
    # Neighbours of a base are the pullbacks minv(k/1) of the integers under
    # its canonical chart; the squared norm is quadratic in k, so a window
    # around the real minimizer k0 suffices.
    return (minv.on_slope(Slope(k, 1)) for k in range(k0 - 3, k0 + 5))


def _shortest_neighbour(z: TeichPoint, base: Slope) -> Slope:
    minv = normalizer_to_infinity(base).inverse()
    ac = complex(minv.a, 0) - minv.c * z.z
    bc = complex(minv.b, 0) - minv.d * z.z
    denom = abs(ac) ** 2
    k_star = 0.0 if denom == 0 else -(ac.conjugate() * bc).real / denom
    return _tie_break(_window(minv, math.floor(k_star)), lambda p, q: _norm_sq(z, p, q), _TIE_TOL)


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


# ------------------------------------------------------------ decimal path

# bits carried past the 53 of a double, and the second evaluation's lead
_GUARD_BITS = 64
# precision doublings before the rounding test gives up
_ZIV_ROUNDS = 4


def _balanced_ints(g: SurfaceMap) -> tuple[int, int, int]:
    """(ac + bd, c^2 + d^2, a^2 + b^2): g i = (X + i)/S with |g i|^2 = R/S."""
    return g.a * g.c + g.b * g.d, g.c * g.c + g.d * g.d, g.a * g.a + g.b * g.b


def _exact_tie_break(cands: Iterable[Slope], x: int, y: int, den: int) -> tuple[Slope, int]:
    """The tie rule on exact norms at z = (x + iy)/den: the shortest slope
    and its norm |p den - q (x + iy)|^2."""
    from fractions import Fraction

    def norm(p: int, q: int) -> int:
        return (p * den - q * x) ** 2 + (q * y) ** 2

    best = _tie_break(cands, norm, Fraction(_TIE_TOL))
    return best, norm(best.p, best.q)


def balanced_marking(g: SurfaceMap) -> FareyMarking:
    """`shortest_marking` at the exact balanced point g i, on exact norms."""
    x, den, _ = _balanced_ints(g)
    base, _ = _exact_tie_break(_short_slopes(x, 1, den), x, 1, den)
    minv = normalizer_to_infinity(base).inverse()
    # the k minimizing |k (a - c z) + (b - d z)|^2, scaled by den
    ar, ai = minv.a * den - minv.c * x, -minv.c
    br, bi = minv.b * den - minv.d * x, -minv.d
    k0 = -(ar * br + ai * bi) // (ar * ar + ai * ai)
    neighbour, _ = _exact_tie_break(_window(minv, k0), x, 1, den)
    return FareyMarking(base, neighbour)


def _correctly_rounded(evaluate: Callable[[], object], bits: int) -> object:
    """evaluate() under a decimal context of `bits` bits and again
    _GUARD_BITS higher; a result is accepted when both give the same
    doubles (Ziv's rounding test), and a mismatch doubles the precision."""
    from decimal import localcontext

    for _ in range(_ZIV_ROUNDS):
        with localcontext() as ctx:
            ctx.prec = bits * 30103 // 100000 + 2
            first = evaluate()
            ctx.prec += _GUARD_BITS * 30103 // 100000
            if evaluate() == first:
                return first
        bits *= 2
    raise PrecisionLossError(f"no correctly rounded double after {bits // 2} bits")


def exact_tube_length(g_a: SurfaceMap, g_b: SurfaceMap) -> float:
    """Correctly rounded length 1/2 arcosh(N/2) of the tube from g_a i to
    g_b i, N = a^2 + b^2 + c^2 + d^2 of M = g_a^-1 g_b; N = 2 exactly when
    M fixes i."""
    from decimal import Decimal

    m = g_a.inverse() @ g_b
    n = m.a * m.a + m.b * m.b + m.c * m.c + m.d * m.d

    def length() -> float:
        # arcosh u = ln(u + sqrt(u^2 - 1)), with u = N/2
        return float(((n + Decimal(n * n - 4).sqrt()) / 2).ln() / 2)

    return _correctly_rounded(length, 53 + _GUARD_BITS)


def exact_tube_samples(
    g_a: SurfaceMap, g_b: SurfaceMap, n: int
) -> tuple[tuple[float, TeichPoint, float, Slope], ...]:
    """n correctly rounded samples (t, point, systole, shortest slope) at
    equal steps of arclength on the exact geodesic from g_a i to g_b i.

    The ends are the exact balanced points.  A geodesic with x_a != x_b is
    the semicircle of rational centre c = (|z_b|^2 - |z_a|^2)/(2 (x_b - x_a))
    and r^2 = (x_a - c)^2 + y_a^2.  Its arclength parameter at a point is
    s = ln((r + (x - c))/y), taken as -ln((r - (x - c))/y) when x < c so
    that no branch cancels, and the point at s is x = c + r tanh s,
    y = r sech s.  A vertical geodesic interpolates ln y.  A sample has
    to hold x to a 2^-53 part of y, so the working precision carries
    log2((|c| + r)/y_min) + 53 + _GUARD_BITS bits.
    """
    if n < 2:
        raise ValidationError("tube sampling needs at least 2 samples")
    from decimal import Decimal

    xa, sa, ra = _balanced_ints(g_a)
    xb, sb, rb = _balanced_ints(g_b)
    for g in (g_a, g_b):
        balanced_point(g)  # a y beyond the double range stops here
    cross = xb * sa - xa * sb
    if cross == 0:
        scale = 0
    else:
        cd, cn = 2 * cross, rb * sa - ra * sb
        if cd < 0:
            cd, cn = -cd, -cn
        ua, ub = xa * cd - cn * sa, xb * cd - cn * sb
        # (x - c) at the end a is ua/(sa cd), and r = sqrt(ua^2 + cd^2)/(sa cd)
        scale = max(
            0,
            cn.bit_length() - cd.bit_length() + 2,
            (ua * ua + cd * cd).bit_length() // 2 - (sa * cd).bit_length() + 2,
        )
    bits = max(sa.bit_length(), sb.bit_length()) + scale + 53 + _GUARD_BITS

    def interior() -> Iterator[tuple[int, int, int]]:
        # the points at k = 1 .. n - 2 as (X, Y, den) of the current context
        if cross == 0:
            la, lb = -Decimal(sa).ln(), -Decimal(sb).ln()
            for k in range(1, n - 1):
                y = (((n - 1 - k) * la + k * lb) / (n - 1)).exp()
                yield _scaled(xa, sa, *y.as_integer_ratio())
            return
        c = Decimal(cn) / cd
        r = Decimal(ua * ua + cd * cd).sqrt() / (sa * cd)

        def arclength(u: int) -> Decimal:
            # (r +- (x - c))/y at an end is (rho +- u)/cd, rho = sqrt(u^2 + cd^2)
            rho = Decimal(u * u + cd * cd).sqrt()
            return ((rho + u) / cd).ln() if u >= 0 else -((rho - u) / cd).ln()

        s_a, s_b = arclength(ua), arclength(ub)
        for k in range(1, n - 1):
            # symmetric in the ends, so a tube symmetric about x = c
            # meets s = 0, and x = c, exactly
            e = (((n - 1 - k) * s_a + k * s_b) / (n - 1)).exp()
            e2 = e * e
            x, y = c + r * (e2 - 1) / (e2 + 1), 2 * r * e / (e2 + 1)
            yield _scaled(*x.as_integer_ratio(), *y.as_integer_ratio())

    def samples() -> list[tuple[float, float, float, Slope]]:
        out = []
        for x, y, den in ((xa, 1, sa), *interior(), (xb, 1, sb)):
            slope, norm = _exact_tie_break(_short_slopes(x, y, den), x, y, den)
            # len^2 = |p - q z|^2 / y = norm / (den y)
            out.append((x / den, y / den, float((Decimal(norm) / (den * y)).sqrt()), slope))
        return out

    points = _correctly_rounded(samples, bits)
    return tuple(
        (k / (n - 1), TeichPoint(x, y), systole, slope)
        for k, (x, y, systole, slope) in enumerate(points)
    )
