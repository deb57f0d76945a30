"""The decimal path of `halfplane`: balanced points and tubes whose
precision demand passes PRECISION_BITS, from the integer sigma matrices.
`sigma_of_marking` and `tube` import it only when `_exact` picks it.

Balanced points are the correctly rounded exact rationals.  A tube
between sigma(mu) i and sigma(nu) i has length 1/2 arcosh(N/2),
N = a^2 + b^2 + c^2 + d^2 of M = sigma(mu)^-1 sigma(nu).  Samples lie on
the exact geodesic, whose centre and squared radius are rational, at
equal steps of the arclength parameter s: x = c + r tanh s,
y = r sech s, with no trigonometry.  The shortest slope is taken on the
exact decimal sample under the same tie rule applied to exact norms.
The working precision is sized from the bit lengths, and a double is
accepted only when a second evaluation at a higher precision rounds to
the same double (A. Ziv, "Fast evaluation of elementary mathematical
functions with correctly rounded last bit", ACM TOMS 17, 1991).  So
every number this path returns is correctly rounded and does not depend
on the platform's libm.  `decimal` and `fractions` are imported on this
path only.  A point with y below 2^-1074 has no double; its balanced
point raises PrecisionLossError, an internal fault.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator

from .errors import PrecisionLossError
from .halfplane import _TIE_TOL, TeichPoint, TubeSample, _scaled, _short_slopes, _tie_break, _tube_norm
from .torus import Slope, SurfaceMap

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


def exact_tube_length(g_a: SurfaceMap, g_b: SurfaceMap) -> float:
    """Correctly rounded length 1/2 arcosh(N/2) of the tube from g_a i to
    g_b i, N = a^2 + b^2 + c^2 + d^2 of M = g_a^-1 g_b (`_tube_norm`);
    N = 2 exactly when M fixes i, and the tube is one point."""
    from decimal import Decimal

    n = _tube_norm(g_a, g_b)

    def length() -> float:
        # arcosh u = ln(u + sqrt(u^2 - 1)), with u = N/2
        return float(((n + Decimal(n * n - 4).sqrt()) / 2).ln() / 2)

    return _correctly_rounded(length, 53 + _GUARD_BITS)


def exact_tube_samples(g_a: SurfaceMap, g_b: SurfaceMap, n: int) -> tuple[TubeSample, ...]:
    """n correctly rounded samples at equal steps of arclength on the
    exact geodesic from g_a i to g_b i.

    The ends are the exact balanced points.  A geodesic with x_a != x_b is
    the semicircle of rational centre c = (|z_b|^2 - |z_a|^2)/(2 (x_b - x_a))
    and r^2 = (x_a - c)^2 + y_a^2.  Its arclength parameter at a point is
    s = ln((r + (x - c))/y), taken as -ln((r - (x - c))/y) when x < c so
    that no branch cancels, and the point at s is x = c + r tanh s,
    y = r sech s.  No geodesic between two balanced points is vertical:
    (X + i)/S has X^2 + 1 = RS (`_balanced_ints`), so X/S is in lowest
    terms and x alone names the point; x_a = x_b only on a degenerate
    tube, whose n = 2 samples are its ends.  A sample has to hold x to a
    2^-53 part of y, so the working precision carries
    log2((|c| + r)/y_min) + 53 + _GUARD_BITS bits.
    """
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
            assert n == 2, "a degenerate tube takes two samples"
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
        TubeSample(k / (n - 1), TeichPoint(x, y), systole, slope)
        for k, (x, y, systole, slope) in enumerate(points)
    )

