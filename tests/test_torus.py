"""Torus backend: slopes, Farey graph, projections, half-plane geometry."""

from __future__ import annotations

import math
import random
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from glueforge.errors import (
    GlueforgeError,
    ParseError,
    PrecisionLossError,
    ValidationError,
)
from glueforge.farey import (
    AnnulusLabel,
    distances_from,
    farey_geodesic,
    max_subsurface_projection,
)
from glueforge.halfplane import (
    PRECISION_BITS,
    TeichPoint,
    balanced_marking,
    curve_length,
    on_point,
    precision_demand,
    relative_cf_max_coeff,
    shortest_slope,
    sigma_matrix,
    sigma_of_marking,
    teich_distance,
    teich_geodesic,
)
from glueforge.torus import (
    IDENTITY,
    INFINITY,
    REFLECTION,
    FareyMarking,
    Slope,
    SurfaceMap,
    cf_expansion,
    intersection_number,
    parse_slope,
)

from oracles import (
    FareyOracle,
    annular_projection_distance,
    cold,
    reference_balanced_marking,
    scan_shortest_slope,
    systole,
)

A_GOLD = SurfaceMap(2, 1, 1, 1)


@pytest.fixture(scope="module")
def oracle() -> FareyOracle:
    return FareyOracle(endpoint_denom=12, graph_denom=64)


@pytest.fixture(scope="module")
def big_oracle() -> FareyOracle:
    return FareyOracle(endpoint_denom=40, graph_denom=80)


# --- slopes -------------------------------------------------------------


def test_slope_canonical_form():
    assert Slope(2, 4) == Slope(1, 2)
    assert Slope(-3, -6) == Slope(1, 2)
    assert Slope(3, -6) == Slope(-1, 2)
    assert Slope(5, 0) == INFINITY
    assert Slope(-1, 0) == INFINITY
    with pytest.raises(ValidationError):
        Slope(0, 0)


def test_parse_slope():
    assert parse_slope("8/5") == Slope(8, 5)
    assert parse_slope("-1/2") == Slope(-1, 2)
    assert parse_slope("3") == Slope(3, 1)
    assert parse_slope("inf") == INFINITY
    with pytest.raises(ParseError):
        parse_slope("x/y")


def test_intersection_and_adjacency():
    assert intersection_number(Slope(0, 1), INFINITY) == 1
    assert intersection_number(Slope(2, 5), Slope(1, 2)) == 1
    assert intersection_number(Slope(0, 1), Slope(1, 2)) == 1
    assert intersection_number(Slope(1, 3), Slope(2, 3)) == 3
    assert intersection_number(Slope(1, 2), Slope(1, 3)) == 1
    assert intersection_number(Slope(1, 3), Slope(2, 3)) != 1


def test_cf_expansion_frozen():
    assert cf_expansion(Slope(5, 8)) == [0, 1, 1, 1, 2]
    assert cf_expansion(Slope(-1, 2)) == [-1, 2]
    assert cf_expansion(Slope(7, 1)) == [7]
    with pytest.raises(ValidationError):
        cf_expansion(INFINITY)


@given(st.integers(-300, 300), st.integers(1, 120))
def test_cf_reconstructs_value(p, q):
    s = Slope(p, q)
    coeffs = cf_expansion(s)
    val = Fraction(coeffs[-1])
    for c in reversed(coeffs[:-1]):
        val = c + 1 / val
    assert val == s.value()
    assert all(c >= 1 for c in coeffs[1:])
    if len(coeffs) > 1:
        assert coeffs[-1] >= 2


# --- surface maps -------------------------------------------------------


def test_surface_map_validation_and_inverse():
    with pytest.raises(ValidationError):
        SurfaceMap(2, 0, 0, 2)
    m = SurfaceMap(13, 8, 8, 5)
    assert m.det == 1
    assert m @ m.inverse() == IDENTITY
    r = SurfaceMap(13, -8, 8, -5)
    assert r.det == -1
    assert r @ r.inverse() == IDENTITY


def test_golden_cube_frozen():
    assert A_GOLD.power(3) == SurfaceMap(13, 8, 8, 5)
    assert A_GOLD.power(0) == IDENTITY
    assert A_GOLD.power(-1) == A_GOLD.inverse()


def test_map_actions_on_slopes():
    m3 = A_GOLD.power(3)
    assert m3.on_slope(Slope(0, 1)) == Slope(8, 5)
    assert m3.on_slope(INFINITY) == Slope(13, 8)


def test_reflection_fixes_imaginary_axis():
    z = TeichPoint(0.0, 2.5)
    img = on_point(REFLECTION, z)
    assert img.z == pytest.approx(z.z, rel=1e-9)


@given(st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5))
def test_map_action_is_functorial(i, j, k):
    m1 = A_GOLD.power(i) @ REFLECTION
    m2 = SurfaceMap(1, j, 0, 1) @ A_GOLD.power(k)
    s = Slope(2, 5)
    assert (m1 @ m2).on_slope(s) == m1.on_slope(m2.on_slope(s))
    z = TeichPoint(0.3, 0.7)
    lhs, rhs = on_point(m1 @ m2, z), on_point(m1, on_point(m2, z))
    assert lhs.z == pytest.approx(rhs.z, rel=1e-9)


@given(st.integers(-4, 4), st.booleans(), st.integers(-200, 200), st.integers(0, 60))
def test_intersection_invariant_under_maps(k, refl, p, q):
    m = A_GOLD.power(k)
    if refl:
        m = m @ REFLECTION
    a = Slope(p, q) if (p, q) != (0, 0) else INFINITY
    b = Slope(1, 2)
    assert intersection_number(m.on_slope(a), m.on_slope(b)) == intersection_number(a, b)


# --- farey distance and geodesics ---------------------------------------


def test_farey_distance_frozen_examples():
    assert distances_from(Slope(2, 5), [INFINITY])[0] == 3
    assert distances_from(Slope(0, 1), [Slope(0, 1)])[0] == 0
    assert distances_from(Slope(0, 1), [INFINITY])[0] == 1
    assert distances_from(Slope(0, 1), [Slope(8, 5)])[0] == 3
    # Every neighbour of 13/8 has the form (5+13k)/(3+8k) or (8+13k)/(5+8k),
    # none of which lies within distance 2 of 0/1, so this pair is at 4.
    assert distances_from(Slope(0, 1), [Slope(13, 8)])[0] == 4
    assert distances_from(INFINITY, [Slope(8, 5)])[0] == 3
    assert distances_from(INFINITY, [Slope(13, 8)])[0] == 3


def test_farey_distance_agrees_with_bfs_oracle(oracle):
    for a in oracle.endpoints:
        for b in oracle.endpoints:
            sa, sb = Slope(*a), Slope(*b)
            assert distances_from(sa, [sb])[0] == oracle.distance(a, b), (a, b)


def test_oracle_truncation_stability():
    # Doubling the oracle graph cap never changes the sampled distances,
    # so the truncation at denominator 64 is not introducing detours.
    small = FareyOracle(endpoint_denom=10, graph_denom=64)
    big = FareyOracle(endpoint_denom=10, graph_denom=128)
    rng = random.Random(20260814)
    pts = small.endpoints
    for _ in range(300):
        a = rng.choice(pts)
        b = rng.choice(pts)
        assert small.distance(a, b) == big.distance(a, b)


def test_farey_distance_symmetry_and_adjacency():
    rng = random.Random(7)
    for _ in range(200):
        a = Slope(rng.randrange(-30, 31), rng.randrange(0, 13))
        b = Slope(rng.randrange(-30, 31), rng.randrange(0, 13))
        d = distances_from(a, [b])[0]
        assert d == distances_from(b, [a])[0]
        assert (d == 0) == (a == b)
        assert (d == 1) == (intersection_number(a, b) == 1)


# --- large heights: the kernel's cost follows the continued fraction ----


def fibonacci_ratio(terms: int) -> Slope:
    """F(n+2)/F(n+1), whose continued fraction has the given number of terms."""
    a, b = 1, 1
    for _ in range(terms - 1):
        a, b = b, a + b
    return Slope(a + b, b)


@pytest.mark.parametrize("q", [600, 5000, 10**6])
def test_one_over_q_in_a_fresh_process(q):
    # a fresh interpreter has nothing memoized, so the answer cannot lean
    # on earlier, smaller questions
    code = (
        "from glueforge.farey import distances_from, farey_geodesic\n"
        "from glueforge.torus import INFINITY, Slope\n"
        f"s = Slope(1, {q})\n"
        "print(distances_from(INFINITY, [s])[0], distances_from(s, [INFINITY])[0])\n"
        "print(*farey_geodesic(INFINITY, s))\n"
    )
    out = cold(["-B", "-c", code])
    assert out.returncode == 0, out.stderr
    assert out.stdout.decode().splitlines() == ["2 2", f"inf 0/1 1/{q}"]


def test_fibonacci_ratio_of_5000_terms_needs_no_recursion():
    s = fibonacci_ratio(5000)
    assert len(cf_expansion(s)) == 5000
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        d_inf = distances_from(INFINITY, [s])[0]
        d_zero = distances_from(Slope(0, 1), [s])[0]
        row = distances_from(s, [INFINITY, Slope(0, 1), s])
    finally:
        sys.setrecursionlimit(limit)
    # all-ones expansions: every second term can be skipped
    assert d_inf == 5000 // 2 + 1
    assert d_zero == (5000 + 3) // 2
    assert row == [d_inf, d_zero, 0]


def test_fibonacci_closed_form_matches_bfs_oracle(big_oracle):
    # the closed form checked above at 5000 terms, against plain BFS where
    # the oracle reaches: F(n+2)/F(n+1) - 1 = F(n)/F(n+1) lies in [0, 1]
    terms = 1
    while True:
        s = fibonacci_ratio(terms)
        if s.q > 40:
            break
        assert big_oracle.distance((1, 0), (s.p - s.q, s.q)) == terms // 2 + 1
        assert distances_from(INFINITY, [s])[0] == terms // 2 + 1
        terms += 1
    assert terms > 8


@pytest.mark.parametrize("k", [1, 2, 7, 50, 199, 500])
def test_distance_invariant_under_high_axis_powers(k):
    m = A_GOLD.power(k)
    pairs = [
        (INFINITY, Slope(0, 1)),
        (Slope(2, 5), INFINITY),
        (Slope(0, 1), Slope(13, 8)),
        (Slope(3, 7), Slope(-5, 9)),
        (Slope(1, 1000), Slope(0, 1)),
        (fibonacci_ratio(40), Slope(-2, 3)),
    ]
    for refl in (False, True):
        g = m @ REFLECTION if refl else m
        for a, b in pairs:
            d = distances_from(a, [b])[0]
            assert distances_from(g.on_slope(a), [g.on_slope(b)])[0] == d
            assert distances_from(g.on_slope(b), [g.on_slope(a)])[0] == d


def test_distances_from_matches_pairwise_distance():
    rng = random.Random(20261017)
    pool = [INFINITY, Slope(0, 1), fibonacci_ratio(60), Slope(1, 10**6)]
    pool += [Slope(rng.randrange(-10**9, 10**9), rng.randrange(1, 10**6)) for _ in range(40)]
    pool += [A_GOLD.power(k).on_slope(Slope(rng.randrange(-9, 10), 1)) for k in range(0, 300, 37)]
    for a in pool:
        assert distances_from(a, pool) == [distances_from(a, [t])[0] for t in pool]
    assert distances_from(INFINITY, []) == []


def test_distances_from_agrees_with_bfs_oracle(big_oracle):
    slopes = [Slope(*e) for e in big_oracle.endpoints]
    rng = random.Random(3)
    for a in rng.sample(big_oracle.endpoints, 25):
        assert distances_from(Slope(*a), slopes) == [
            big_oracle.distance(a, b) for b in big_oracle.endpoints
        ], a


def test_farey_geodesic_frozen_example():
    path = farey_geodesic(Slope(2, 5), INFINITY)
    assert path == [Slope(2, 5), Slope(1, 2), Slope(0, 1), INFINITY]


def test_farey_geodesic_properties():
    rng = random.Random(11)
    for _ in range(120):
        a = Slope(rng.randrange(-20, 21), rng.randrange(0, 9))
        b = Slope(rng.randrange(-20, 21), rng.randrange(0, 9))
        path = farey_geodesic(a, b)
        assert path[0] == a and path[-1] == b
        assert len(path) == distances_from(a, [b])[0] + 1
        for u, v in zip(path, path[1:]):
            assert intersection_number(u, v) == 1


def test_farey_geodesic_deterministic():
    a, b = Slope(3, 7), Slope(-5, 9)
    assert farey_geodesic(a, b) == farey_geodesic(a, b)
    assert farey_geodesic(a, a) == [a]
    assert farey_geodesic(Slope(0, 1), INFINITY) == [Slope(0, 1), INFINITY]


# --- annular projections -------------------------------------------------


def test_annular_projection_frozen_examples():
    w = AnnulusLabel(INFINITY)
    assert annular_projection_distance(w, Slope(1, 3), Slope(7, 2)) == 5
    assert annular_projection_distance(w, Slope(4, 1), Slope(4, 1)) == 2
    w0 = AnnulusLabel(Slope(0, 1))
    assert annular_projection_distance(w0, Slope(3, 1), Slope(3, 4)) == 3


@given(st.integers(-3, 3), st.booleans(), st.integers(0, 40), st.integers(1, 9))
def test_annular_projection_equivariance(k, twist, pw, qw):
    # Orientation-preserving naturality: applying the same map to the
    # annulus and both slopes leaves the projection distance unchanged.
    m = A_GOLD.power(k)
    if twist:
        m = m @ SurfaceMap(1, 1, 0, 1)
    w = AnnulusLabel(Slope(pw, qw))
    a, b = Slope(1, 3), Slope(7, 2)
    if w.core in (a, b):
        return
    lhs = annular_projection_distance(w, a, b)
    rhs = annular_projection_distance(
        AnnulusLabel(m.on_slope(w.core)), m.on_slope(a), m.on_slope(b)
    )
    assert lhs == rhs


# --- markings ------------------------------------------------------------


def test_marking_validation():
    FareyMarking(Slope(0, 1), INFINITY)
    FareyMarking(Slope(0, 1), Slope(1, 2))
    with pytest.raises(ValidationError):
        FareyMarking(Slope(1, 3), Slope(2, 3))
    with pytest.raises(ValidationError):
        FareyMarking(Slope(0, 1), Slope(0, 1))


def test_max_subsurface_projection_twist_family():
    m1 = FareyMarking(Slope(0, 1), INFINITY)
    for n in (1, 3, 10):
        m2 = FareyMarking(Slope(n, 1), INFINITY)
        label, value = max_subsurface_projection(m1, m2)
        assert label == AnnulusLabel(INFINITY)
        assert value == n + 2


def test_max_subsurface_projection_identical_markings():
    m = FareyMarking(Slope(2, 5), Slope(1, 2))
    _, value = max_subsurface_projection(m, m)
    assert value <= 2


def test_max_subsurface_projection_golden_certified():
    # Oracle: independent sweep over every annulus core with q <= 64 in a
    # wide window, taking the max over the four slope pairs directly.
    m1 = FareyMarking(Slope(0, 1), INFINITY)
    m2 = FareyMarking(Slope(8, 5), Slope(13, 8))

    def proj(core: Slope) -> int:
        best = -1
        for x in m1.slopes():
            for y in m2.slopes():
                if core in (x, y):
                    continue
                best = max(best, annular_projection_distance(AnnulusLabel(core), x, y))
        return best

    cores = [INFINITY]
    for q in range(1, 65):
        for p in range(-3 * q, 4 * q + 1):
            if math.gcd(p, q) == 1:
                cores.append(Slope(p, q))
    oracle_best = max(proj(c) for c in cores)

    label, value = max_subsurface_projection(m1, m2, denom_bound=64)
    assert value == oracle_best
    assert proj(label.core) == value


# --- sigma and lengths ----------------------------------------------------


def test_sigma_frozen_examples():
    m = FareyMarking(Slope(1, 1), INFINITY)
    pt = sigma_of_marking(m)
    assert pt.z == pytest.approx(complex(1.0, 1.0), rel=1e-9)
    m0 = FareyMarking(Slope(0, 1), INFINITY)
    assert sigma_of_marking(m0).z == pytest.approx(complex(0.0, 1.0), rel=1e-9)


def test_sigma_matrix_orientation():
    for m in (
        FareyMarking(Slope(0, 1), INFINITY),
        FareyMarking(INFINITY, Slope(0, 1)),
        FareyMarking(Slope(8, 5), Slope(13, 8)),
    ):
        a = sigma_matrix(m)
        assert a.det == 1
        assert a.on_slope(Slope(0, 1)) == m.base
        assert a.on_slope(INFINITY) == m.transversal


@given(st.integers(-4, 4), st.booleans(), st.integers(-3, 3))
def test_sigma_equivariance(k, refl, j):
    m = FareyMarking(Slope(1, 2), Slope(1, 1))
    g = A_GOLD.power(k) @ SurfaceMap(1, j, 0, 1)
    if refl:
        g = g @ REFLECTION
    lhs = sigma_of_marking(g.on_marking(m))
    rhs = on_point(g, sigma_of_marking(m))
    assert lhs.z == pytest.approx(rhs.z, rel=1e-9)


def test_curve_length_frozen():
    i = TeichPoint(0.0, 1.0)
    assert curve_length(i, Slope(0, 1)) == pytest.approx(1.0)
    assert curve_length(i, INFINITY) == pytest.approx(1.0)
    assert curve_length(i, Slope(1, 1)) == pytest.approx(math.sqrt(2))
    z = TeichPoint(0.0, 2.0)
    assert curve_length(z, Slope(0, 1)) == pytest.approx(math.sqrt(2))
    assert curve_length(z, INFINITY) == pytest.approx(1 / math.sqrt(2))


@given(st.integers(-3, 3), st.booleans(), st.integers(-60, 60), st.integers(0, 20))
def test_curve_length_invariance(k, refl, p, q):
    if (p, q) == (0, 0):
        return
    g = A_GOLD.power(k)
    if refl:
        g = g @ REFLECTION
    z = TeichPoint(0.37, 1.21)
    s = Slope(p, q)
    assert curve_length(on_point(g, z), g.on_slope(s)) == pytest.approx(
        curve_length(z, s), rel=1e-9
    )


@given(st.integers(-40, 40), st.integers(0, 12), st.integers(-40, 40), st.integers(0, 12))
def test_collar_inequality(p1, q1, p2, q2):
    # Two short curves must intersect little: i(a,b) <= len(a) * len(b)
    # fails in general, but at every z the product of lengths of a and b
    # bounds i(a,b) from below never -- we assert the standard direction:
    # i(a,b) <= len_z(a) * len_z(b) for the flat torus.
    if (p1, q1) == (0, 0) or (p2, q2) == (0, 0):
        return
    a, b = Slope(p1, q1), Slope(p2, q2)
    z = TeichPoint(0.2, 0.8)
    assert intersection_number(a, b) <= curve_length(z, a) * curve_length(z, b) + 1e-9


# --- shortest markings ----------------------------------------------------


def test_shortest_marking_frozen():
    # the shortest markings at the balanced points i and 1 + i
    for m in (FareyMarking(Slope(0, 1), INFINITY), FareyMarking(Slope(1, 1), INFINITY)):
        assert balanced_marking(sigma_matrix(m)) == m
    # At 3i the vertical slope 1/0 has length 1/sqrt(3), strictly shortest
    # under len_z(p/q) = |p - q z|/sqrt(y).
    assert shortest_slope(TeichPoint(0.0, 3.0)) == INFINITY


def test_shortest_slope_thin_point():
    assert shortest_slope(TeichPoint(0.0, 25.0)) == INFINITY
    assert shortest_slope(TeichPoint(0.0, 0.04)) == Slope(0, 1)


def _sl2z_word(rng: random.Random, length: int) -> SurfaceMap:
    g = IDENTITY
    for _ in range(length):
        g = g @ rng.choice(
            (SurfaceMap(1, 1, 0, 1), SurfaceMap(1, -1, 0, 1), SurfaceMap(0, -1, 1, 0))
        )
    return g


def test_shortest_slope_matches_denominator_scan():
    # the three tie points i, e^{i pi/3}, (1 + i)/2 and their images under
    # the modular group, rational x with small denominators, and generic
    # points, with y from 10 down to 1e-3
    rng = random.Random(31337)
    ties = (complex(0.0, 1.0), complex(0.5, math.sqrt(3) / 2), complex(0.5, 0.5))
    points = [(w.real, w.imag) for w in ties]
    while len(points) < 600:
        g = _sl2z_word(rng, rng.randrange(0, 6))
        base = rng.choice(ties)
        w = (g.a * base + g.b) / (g.c * base + g.d)
        if w.imag >= 1e-3:
            points.append((w.real, w.imag))
    for _ in range(1500):
        q = rng.randrange(1, 13)
        points.append((rng.randrange(-3 * q, 3 * q + 1) / q, 10 ** rng.uniform(-3, 1)))
    for _ in range(1500):
        points.append((rng.uniform(-3, 3), 10 ** rng.uniform(-3, 1)))
    for x, y in points:
        s = shortest_slope(TeichPoint(x, y))
        assert (s.p, s.q) == scan_shortest_slope(x, y), (x, y)


def test_shortest_slope_at_a_very_thin_point():
    # the scan would walk about a million denominators here
    z = TeichPoint(1 / math.pi, 1e-12)
    start = time.perf_counter()
    best = shortest_slope(z)
    assert time.perf_counter() - start < 1.0
    x, y = Fraction(z.x), Fraction(z.y)

    def exact_norm(p: int, q: int) -> Fraction:
        return (p - q * x) ** 2 + (q * y) ** 2

    # no smaller q gives a smaller |p - q x|, so the shortest p - q z is a
    # best approximation of the second kind: p/q is a convergent of x
    others = {(1, 0)}
    h0, k0, h1, k1 = 0, 1, 1, 0
    for a in cf_expansion(Slope(*x.as_integer_ratio())):
        for j in range(1, a + 1):
            others.add((j * h1 + h0, j * k1 + k0))
        h0, k0, h1, k1 = h1, k1, a * h1 + h0, a * k1 + k0
    assert (best.p, best.q) in others
    others.discard((best.p, best.q))
    assert best.q > 10**5
    assert all(exact_norm(best.p, best.q) < exact_norm(p, q) for p, q in others)


def test_sigma_of_marking_bits_up_to_axis_power_14():
    # within PRECISION_BITS the balanced point is the float Moebius image of
    # i; past them (from (1/2, 1/1) at power 14) the rounded exact point
    for k in range(-14, 15):
        g = A_GOLD.power(k)
        for m in (
            g.on_marking(FareyMarking(Slope(0, 1), INFINITY)),
            g.on_marking(FareyMarking(Slope(1, 2), Slope(1, 1))),
            (g @ REFLECTION).on_marking(FareyMarking(Slope(1, 1), INFINITY)),
        ):
            s = sigma_matrix(m)
            if precision_demand(s) <= PRECISION_BITS:
                expected = on_point(s, TeichPoint(0.0, 1.0))
            else:
                expected = exactly_rounded_balanced_point(s)
            assert sigma_of_marking(m) == expected


def exactly_rounded_balanced_point(s: SurfaceMap) -> TeichPoint:
    # Fraction -> float rounds correctly
    n = s.c * s.c + s.d * s.d
    return TeichPoint(float(Fraction(s.a * s.c + s.b * s.d, n)), float(Fraction(1, n)))


@pytest.mark.parametrize("k", [18, 24, 30])
def test_sigma_of_marking_past_40_bits_is_correctly_rounded(k):
    # the float Moebius image cancels y away from about power 18; the
    # exact point is the rational ((ac + bd) + i)/(c^2 + d^2)
    m = A_GOLD.power(k).on_marking(FareyMarking(Slope(0, 1), INFINITY))
    s = sigma_matrix(m)
    assert precision_demand(s) > PRECISION_BITS
    assert sigma_of_marking(m) == exactly_rounded_balanced_point(s)


@pytest.mark.parametrize("k", [400, 800])
def test_sigma_of_marking_beyond_double_precision(k):
    # from about power 390 y = 1/(c^2 + d^2) is below the least double
    m = A_GOLD.power(k).on_marking(FareyMarking(Slope(0, 1), INFINITY))
    with pytest.raises(PrecisionLossError, match="beyond the double exponent range") as info:
        sigma_of_marking(m)
    assert not isinstance(info.value, GlueforgeError)


def test_sigma_round_trip_small_denominators():
    rng = random.Random(20260814)
    seen = 0
    for _ in range(250):
        g = IDENTITY
        for _ in range(rng.randrange(0, 7)):
            g = g @ rng.choice(
                (A_GOLD, A_GOLD.inverse(), SurfaceMap(1, 1, 0, 1), SurfaceMap(1, 0, 1, 1))
            )
        m = g.on_marking(FareyMarking(Slope(0, 1), INFINITY))
        if max(m.base.q, m.transversal.q, abs(m.base.p), abs(m.transversal.p)) > 34:
            continue
        seen += 1
        # base and transversal both have length 1 at the balanced point
        assert shortest_slope(sigma_of_marking(m)) in m.slopes()
        rt = balanced_marking(sigma_matrix(m))
        assert {rt.base, rt.transversal} == {m.base, m.transversal}
    assert seen >= 100


def test_balanced_marking_matches_the_reduction_at_depth():
    # the images of 0/1 and 1/0 against the former Lagrange-Gauss
    # reduction and neighbour window, on words of up to 80 letters
    rng = random.Random(26)
    for _ in range(5000):
        g = _sl2z_word(rng, rng.randrange(0, 81))
        assert balanced_marking(g) == reference_balanced_marking(g), g


# --- half-plane geometry ---------------------------------------------------


def test_teich_distance_frozen():
    i = TeichPoint(0.0, 1.0)
    assert teich_distance(i, TeichPoint(0.0, 2.0)) == pytest.approx(0.5 * math.log(2))
    assert teich_distance(i, i) == 0.0


def test_teich_distance_symmetry_and_triangle():
    rng = random.Random(5)
    for _ in range(60):
        pts = [TeichPoint(rng.uniform(-2, 2), rng.uniform(0.1, 4)) for _ in range(3)]
        a, b, c = pts
        assert teich_distance(a, b) == pytest.approx(teich_distance(b, a))
        assert teich_distance(a, c) <= teich_distance(a, b) + teich_distance(b, c) + 1e-9


def test_teich_geodesic_frozen_midpoint():
    i = TeichPoint(0.0, 1.0)
    four_i = TeichPoint(0.0, 4.0)
    mid = teich_geodesic(i, four_i, 0.5)
    assert mid.z == pytest.approx(complex(0.0, 2.0), rel=1e-9)
    assert teich_geodesic(i, four_i, 0.0).z == pytest.approx(i.z, rel=1e-9)
    assert teich_geodesic(i, four_i, 1.0).z == pytest.approx(four_i.z, rel=1e-9)


def test_teich_geodesic_arc_length_parametrization():
    z = TeichPoint(-1.3, 0.4)
    w = TeichPoint(2.1, 1.7)
    total = teich_distance(z, w)
    for t in (0.25, 0.5, 0.75):
        p = teich_geodesic(z, w, t)
        assert teich_distance(z, p) == pytest.approx(t * total, rel=1e-6)


def test_teich_geodesic_bad_parameter():
    with pytest.raises(ValidationError):
        teich_geodesic(TeichPoint(0, 1), TeichPoint(0, 2), 1.5)


def test_map_action_on_points_is_isometric():
    rng = random.Random(13)
    for _ in range(40):
        g = A_GOLD.power(rng.randrange(-3, 4))
        if rng.random() < 0.5:
            g = g @ REFLECTION
        z = TeichPoint(rng.uniform(-2, 2), rng.uniform(0.2, 3))
        w = TeichPoint(rng.uniform(-2, 2), rng.uniform(0.2, 3))
        assert teich_distance(on_point(g, z), on_point(g, w)) == pytest.approx(
            teich_distance(z, w), rel=1e-9
        )


# --- thickness --------------------------------------------------------------


def test_relative_cf_coefficient_twist():
    m1 = FareyMarking(Slope(0, 1), INFINITY)
    for n in (5, 50):
        m2 = FareyMarking(Slope(n, 1), INFINITY)
        assert relative_cf_max_coeff(m1, m2) == n


def test_tube_sample_systoles_frozen():
    i = TeichPoint(0.0, 1.0)
    four_i = TeichPoint(0.0, 4.0)
    pts = [teich_geodesic(i, four_i, t) for t in (0.0, 0.5, 1.0)]
    assert pts[0].z == pytest.approx(complex(0.0, 1.0), rel=1e-9)
    assert pts[1].z == pytest.approx(complex(0.0, 2.0), rel=1e-9)
    assert pts[2].z == pytest.approx(complex(0.0, 4.0), rel=1e-9)
    assert systole(pts[2]) == pytest.approx(0.5)
