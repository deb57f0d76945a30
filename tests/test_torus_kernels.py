"""Depth-linear torus kernels against their references.

The ladder row and the recurrence pivot search replaced a per-target row
and a pivot search that mapped every convergent back by a full product;
the pivot search then stopped running the twelve slope pairs in full.
The former kernels live on in tests/oracles.py; here the new ones must
agree with them, and with the BFS oracle where it reaches, on seeded
inputs that exercise every step kind: repeated vertices, steps that are
not edges, the source itself on the path, infinity among the slopes, and
continued fractions of up to 6,000 terms.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glueforge import farey
from glueforge.farey import (
    _pivot_projections,
    distances_from,
    farey_geodesic,
    max_subsurface_projection,
)
from glueforge.torus import (
    IDENTITY,
    INFINITY,
    REFLECTION,
    FareyMarking,
    Slope,
    SurfaceMap,
    _primitive_slope,
    cf_expansion,
    normalizer_to_infinity,
)

from builders import MOVES, random_map
from oracles import (
    FareyOracle,
    enumerated_pivot_projections,
    reference_core_projection,
    reference_max_subsurface_projection,
    reference_pivot_candidates,
    reference_row,
)


def random_slope(rng: random.Random, bits: int) -> Slope:
    while True:
        p, q = rng.randrange(-(2**bits), 2**bits), rng.randrange(0, 2**bits)
        if p or q:
            return Slope(p, q)


def random_neighbour(rng: random.Random, s: Slope) -> Slope:
    """A Farey neighbour of s: the pullback of an integer under its chart,
    with small, large and huge integers all likely."""
    back = normalizer_to_infinity(s).inverse()
    k = rng.choice((0, 1, -1, 2, -2, 3, rng.randrange(-40, 40), rng.randrange(-(10**9), 10**9)))
    return back.on_slope(Slope(k, 1))


def random_path(rng: random.Random, source: Slope, start: Slope, steps: int) -> list[Slope]:
    """A walk along Farey edges, with repeated vertices, jumps that are not
    edges, and visits to the source mixed in."""
    path = [start]
    for _ in range(steps):
        r = rng.random()
        if r < 0.05:
            path.append(random_slope(rng, rng.choice((3, 12, 60))))
        elif r < 0.1:
            path.append(path[-1])
        elif r < 0.13:
            path.append(source)
        else:
            path.append(random_neighbour(rng, path[-1]))
    return path


# --------------------------------------------------- trusted construction


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(0, len(MOVES) - 1), max_size=12),
    st.integers(-(10**30), 10**30),
    st.integers(-(10**30), 10**30),
)
def test_primitive_slope_equals_checked_slope_on_unimodular_images(word, p, q):
    g = IDENTITY
    for i in word:
        g = g @ MOVES[i]
    s = Slope(p, q) if (p, q) != (0, 0) else INFINITY
    num, den = g.a * s.p + g.b * s.q, g.c * s.p + g.d * s.q
    for vec in ((num, den), (-num, -den)):
        trusted = _primitive_slope(*vec)
        checked = Slope(*vec)
        assert (trusted.p, trusted.q) == (checked.p, checked.q)
        assert trusted == checked and hash(trusted) == hash(checked)
    assert g.on_slope(s) == Slope(num, den)


def test_primitive_slope_canonical_signs():
    assert (_primitive_slope(3, -5).p, _primitive_slope(3, -5).q) == (-3, 5)
    assert _primitive_slope(-1, 0) == INFINITY
    assert _primitive_slope(-1, 0).p == 1
    assert _primitive_slope(-7, -2) == Slope(7, 2)


# ----------------------------------------------------------- ladder rows


def test_ladder_row_matches_per_target_row_on_seeded_walks():
    rng = random.Random(2024)
    for _ in range(400):
        source = random_slope(rng, rng.choice((2, 6, 40, 300)))
        if rng.random() < 0.2:
            source = INFINITY
        start = random_slope(rng, rng.choice((2, 6, 40)))
        path = random_path(rng, source, start, rng.randrange(1, 80))
        if rng.random() < 0.5:
            path.reverse()
        assert distances_from(source, path) == reference_row(source, path)


def test_ladder_row_matches_per_target_row_on_geodesics():
    rng = random.Random(77)
    axis = SurfaceMap(2, 1, 1, 1)
    for _ in range(60):
        a = random_map(rng, rng.randrange(0, 40)).on_slope(Slope(0, 1))
        b = random_map(rng, rng.randrange(0, 40)).on_slope(INFINITY)
        path = farey_geodesic(a, b)
        for source in (a, b, path[len(path) // 2], random_slope(rng, 20), INFINITY):
            assert distances_from(source, path) == reference_row(source, path)
            assert distances_from(source, path[::-1]) == reference_row(source, path[::-1])
    # a deep axis geodesic: rows from both ends, the middle and off the path
    b = axis.power(300).on_slope(Slope(0, 1))
    path = farey_geodesic(Slope(0, 1), b)
    for source in (Slope(0, 1), b, path[150], axis.power(150).on_slope(Slope(2, 7))):
        assert distances_from(source, path) == reference_row(source, path)


def test_ladder_row_matches_bfs_oracle():
    oracle = FareyOracle(endpoint_denom=40, graph_denom=80)
    vertices = [v for v in oracle.endpoints]
    small = set(vertices)
    rng = random.Random(4141)
    for _ in range(300):
        source = rng.choice(vertices)
        walk = [rng.choice(vertices)]
        for _ in range(rng.randrange(1, 40)):
            r = rng.random()
            if r < 0.06:
                walk.append(rng.choice(vertices))  # not an edge, as a rule
            elif r < 0.12:
                walk.append(walk[-1])
            elif r < 0.15:
                walk.append(source)
            else:
                nbrs = sorted(v for v in oracle.graph[walk[-1]] if v in small)
                walk.append(rng.choice(nbrs))
        got = distances_from(Slope(*source), [Slope(*v) for v in walk])
        assert got == [oracle.distance(source, v) for v in walk], (source, walk)


def test_ladder_row_on_a_path_through_a_huge_quotient():
    # 1/10^60 and its neighbours: one partial quotient of 61 digits
    big = 10**60
    path = [Slope(0, 1), Slope(1, big), Slope(1, big - 1), Slope(2, 2 * big - 1), INFINITY]
    for source in (Slope(0, 1), Slope(1, 1), INFINITY, Slope(3, 2 * big)):
        assert distances_from(source, path) == reference_row(source, path)


# --------------------------------------------------------- pivot search


def marking_from(g: SurfaceMap, flip: bool) -> FareyMarking:
    m = FareyMarking(g.on_slope(Slope(0, 1)), g.on_slope(INFINITY))
    return FareyMarking(m.transversal, m.base) if flip else m


def long_cf_map(rng: random.Random, terms: int) -> SurfaceMap:
    """A product of parabolics whose image of 0/1 has a continued fraction
    of about `terms` terms."""
    g = IDENTITY
    for i in range(terms):
        g = g @ MOVES[i % 2].power(rng.choice((1, 1, 1, 2, 3)))
    return g


def scored_cores(pairs) -> dict[Slope, int]:
    scored: dict[Slope, int] = {}
    for core, value in pairs:
        assert scored.setdefault(core, value) == value, core
    return scored


def assert_pivots_match(m1: FareyMarking, m2: FareyMarking) -> None:
    scored = scored_cores(_pivot_projections(m1, m2))
    assert scored == scored_cores(enumerated_pivot_projections(m1, m2))
    ref = reference_pivot_candidates(m1, m2)
    assert scored.keys() == ref.keys()
    for core, neighbour in ref.items():
        assert scored[core] == reference_core_projection(core, neighbour, m1, m2), core
    label, value = max_subsurface_projection(m1, m2)
    assert (label.core, value) == reference_max_subsurface_projection(m1, m2)


def check_pivots_on_seeded_markings() -> None:
    rng = random.Random(31337)
    for _ in range(250):
        m1 = marking_from(random_map(rng, rng.randrange(0, 25)), rng.random() < 0.5)
        r = rng.random()
        if r < 0.1:
            m2 = m1
        elif r < 0.2:
            m2 = FareyMarking(m1.transversal, m1.base)
        elif r < 0.35:
            # shares a slope with m1
            m2 = FareyMarking(m1.base, random_neighbour(rng, m1.base))
        else:
            m2 = marking_from(random_map(rng, rng.randrange(0, 25)), rng.random() < 0.5)
        assert_pivots_match(m1, m2)
        assert_pivots_match(m2, m1)


def test_pivot_search_matches_reference_on_seeded_markings():
    check_pivots_on_seeded_markings()


@pytest.mark.parametrize("meet", [0, 1])
def test_pivot_search_matches_reference_when_runs_meet_no_ladder(monkeypatch, meet):
    # a run that has not met a ladder within _MEET steps goes on alone:
    # the same cores and values, at more cost
    monkeypatch.setattr(farey, "_MEET", meet)
    check_pivots_on_seeded_markings()


def test_pivot_search_with_infinity_among_the_slopes():
    rng = random.Random(5)
    origin = FareyMarking(Slope(0, 1), INFINITY)
    for _ in range(40):
        other = marking_from(random_map(rng, rng.randrange(1, 30)), rng.random() < 0.5)
        for m1 in (origin, FareyMarking(INFINITY, Slope(rng.randrange(-9, 9), 1))):
            assert_pivots_match(m1, other)
            assert_pivots_match(other, m1)


@pytest.mark.parametrize("terms", [300, 2000])
def test_pivot_search_matches_reference_on_long_continued_fractions(terms):
    rng = random.Random(terms)
    g = long_cf_map(rng, terms)
    assert len(cf_expansion(g.on_slope(Slope(0, 1)))) >= terms // 2
    assert_pivots_match(marking_from(IDENTITY, False), marking_from(g, False))
    if terms > 300:
        return
    # both orientations, and two long expansions against each other
    h = long_cf_map(rng, terms // 3)
    assert_pivots_match(marking_from(g @ REFLECTION, True), marking_from(h, False))
    assert_pivots_match(marking_from(h, True), marking_from(g, False))


def fibonacci_marking(n: int) -> FareyMarking:
    """(F(n+1)/F(n), F(n)/F(n-1)): Farey neighbours whose continued
    fractions are n ones."""
    a, b = 1, 1
    for _ in range(n - 1):
        a, b = b, a + b
    return FareyMarking(Slope(a + b, b), Slope(b, a))


GOLDEN = SurfaceMap(2, 1, 1, 1)
ORIGIN = FareyMarking(Slope(0, 1), INFINITY)


def assert_search_matches_enumeration(m1: FareyMarking, m2: FareyMarking) -> None:
    """The search against the twelve-pair enumeration alone, for inputs
    too deep for the slope-by-slope reference."""
    enumerated = list(enumerated_pivot_projections(m1, m2))
    assert scored_cores(_pivot_projections(m1, m2)) == scored_cores(enumerated)
    best = min(enumerated, key=lambda cv: (-cv[1], cv[0].sort_key()))
    label, value = max_subsurface_projection(m1, m2)
    assert (label.core, value) == best


@pytest.mark.parametrize("k", [500, 3000])
def test_pivot_search_matches_enumeration_on_golden_stacks(k):
    far = GOLDEN.power(k).on_marking(ORIGIN)
    assert_search_matches_enumeration(ORIGIN, far)
    assert_search_matches_enumeration(far, ORIGIN)


def test_pivot_search_matches_enumeration_on_fibonacci_markings():
    fib = fibonacci_marking(1000)
    for other in (ORIGIN, REFLECTION.on_marking(fib), fibonacci_marking(997)):
        assert_search_matches_enumeration(fib, other)
        assert_search_matches_enumeration(other, fib)


def test_pivot_search_values_each_golden_core_about_once():
    # the enumeration runs all eight cross pairs in full: 7,984 cores, of
    # which 1,002 distinct; the search values 1,010
    far = GOLDEN.power(500).on_marking(ORIGIN)
    enumerated = list(enumerated_pivot_projections(ORIGIN, far))
    assert len(enumerated) == 7984
    assert len({core for core, _ in enumerated}) == 1002
    assert sum(1 for _ in _pivot_projections(ORIGIN, far)) == 1010
