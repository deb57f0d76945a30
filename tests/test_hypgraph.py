"""Graph-laboratory tests: frozen small cases plus oracle cross-checks.

The four-point constant is checked against the exhaustive quadruple scans
in oracles.brute_force_delta and oracles.exhaustive_delta, quasiconvexity
against explicit geodesic enumeration, and the stability scan against a
direct triple-loop oracle written independently below.
"""

import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from glueforge.errors import ParseError, ValidationError
from glueforge.hypgraph import FiniteGraph, cycle_graph, geodesic_interval
from glueforge.hyplab import (
    _far_apart_pairs,
    _widest_gap,
    check_qconvex_stability,
    four_point_delta,
    quasiconvexity_constant,
    read_graph,
)
from builders import complete_graph, path_graph
from oracles import PathWitness


def adj_dict(g: FiniteGraph) -> dict:
    return {v: row for v, row in enumerate(g.adjacency)}


def stability_oracle(m: list[list[int]], sub: list[int], r: int) -> tuple:
    """Direct scan: for each h0, max excess over configs with d(x,y) > h0."""
    n = len(m)
    to_sub = [min(m[v][s] for s in sub) for v in range(n)]
    configs = []
    for y in sub:
        for x in range(n):
            if m[x][y] > to_sub[x] + r:
                continue
            for z in range(n):
                if m[y][x] + m[x][z] == m[y][z]:
                    configs.append((m[x][y], m[z][y] - to_sub[z]))
    hmax = max(max(row) for row in m)
    return tuple(
        (h0, max((e for t, e in configs if t > h0), default=0)) for h0 in range(hmax + 1)
    )


@st.composite
def connected_graphs(draw, min_n=2, max_n=9, extra_edges=10):
    n = draw(st.integers(min_n, max_n))
    edges = set()
    for v in range(1, n):
        edges.add((draw(st.integers(0, v - 1)), v))
    for u, v in draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=extra_edges,
        )
    ):
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return FiniteGraph.from_edges(n, edges)


@st.composite
def random_trees(draw, min_n=1, max_n=40):
    n = draw(st.integers(min_n, max_n))
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    return FiniteGraph.from_edges(n, edges)


# ---------------------------------------------------------------- graphs


def test_graph_validation_rejects_bad_edges():
    with pytest.raises(ValidationError):
        FiniteGraph.from_edges(0, [])
    with pytest.raises(ValidationError, match="self-loop"):
        FiniteGraph.from_edges(3, [(0, 0), (0, 1), (1, 2)])
    with pytest.raises(ValidationError, match="duplicate"):
        FiniteGraph.from_edges(3, [(0, 1), (1, 0), (1, 2)])
    with pytest.raises(ValidationError, match="out of range"):
        FiniteGraph.from_edges(3, [(0, 3)])


def test_graph_validation_names_unreachable_vertex():
    with pytest.raises(ValidationError, match="no path from 0 to 2"):
        FiniteGraph.from_edges(4, [(0, 1), (2, 3)])


def test_graph_validation_is_linear_in_the_edges():
    # a vertex count far beyond memory must not be allocated before the
    # connectivity check
    with pytest.raises(ValidationError, match="no path from 0 to 3"):
        FiniteGraph.from_edges(10**9, [(0, 1), (2, 1)])
    with pytest.raises(ValidationError, match="no path from 0 to 1"):
        FiniteGraph.from_edges(10**9, [])


def test_single_vertex_graph_is_fine():
    g = FiniteGraph.from_edges(1, [])
    assert four_point_delta(g) == 0


def test_distance_frozen_examples():
    assert path_graph(4).d(0, 3) == 3
    t = complete_graph(4)
    assert all(t.d(i, j) == 1 for i in range(4) for j in range(4) if i != j)
    assert cycle_graph(6).d(0, 3) == 3


# ---------------------------------------------------------------- delta


def test_delta_frozen_small_graphs():
    k4 = complete_graph(4)
    c6 = cycle_graph(6)
    assert four_point_delta(k4) == 0
    assert four_point_delta(c6) == 1
    # against the independent quadruple scan
    assert oracles.brute_force_delta(k4.rows()) == 0
    assert oracles.brute_force_delta(c6.rows()) == 1


def test_delta_fixed_trees_are_zero():
    assert four_point_delta(path_graph(7)) == 0
    star = FiniteGraph.from_edges(6, [(0, v) for v in range(1, 6)])
    assert four_point_delta(star) == 0


def test_delta_matches_oracle_on_petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    t = FiniteGraph.from_edges(10, outer + inner + spokes)
    assert four_point_delta(t) == oracles.brute_force_delta(t.rows())


@settings(max_examples=60, deadline=None)
@given(connected_graphs(max_n=8))
def test_delta_matches_oracle_on_random_graphs(g):
    t = g
    assert four_point_delta(t) == oracles.brute_force_delta(t.rows())


@settings(max_examples=60, deadline=None)
@given(connected_graphs(max_n=9), st.randoms(use_true_random=False))
def test_delta_invariant_under_vertex_permutation(g, rng):
    t = g
    perm = list(range(g.vertex_count))
    rng.shuffle(perm)
    relabelled = FiniteGraph.from_edges(g.vertex_count, [(perm[u], perm[v]) for u, v in g.edges])
    assert four_point_delta(relabelled) == four_point_delta(t)


@settings(max_examples=80, deadline=None)
@given(random_trees(max_n=40))
def test_delta_random_trees_zero(g):
    assert four_point_delta(g) == 0


def cycle_edges(vertices: list[int]) -> list[tuple[int, int]]:
    return list(zip(vertices, vertices[1:] + vertices[:1]))


def chorded_sparse_graph(rng: random.Random, n: int, chords: int) -> FiniteGraph:
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    while len(edges) < min(n - 1 + chords, n * (n - 1) // 2):
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    return FiniteGraph.from_edges(n, edges)


def differential_graphs() -> list:
    rng = random.Random(20261018)
    out = []
    for n in (2, 5, 12, 24):
        tree = FiniteGraph.from_edges(n, [(rng.randrange(v), v) for v in range(1, n)])
        out.append(pytest.param(tree, id=f"tree{n}"))
    out += [pytest.param(cycle_graph(n), id=f"cycle{n}") for n in (3, 4, 5, 8, 11, 16)]
    out += [pytest.param(complete_graph(n), id=f"complete{n}") for n in (4, 7)]
    for n, chords in ((10, 2), (14, 4), (18, 3), (20, 10), (24, 6), (24, 40)):
        g = chorded_sparse_graph(rng, n, chords)
        out.append(pytest.param(g, id=f"sparse{n}+{chords}"))
    # block sums: two cycles sharing a cut vertex, with pendant paths, so
    # that the worst quadruple sits in one block
    for p, q in ((6, 10), (9, 4), (12, 7)):
        first = cycle_edges(list(range(p)))
        second = cycle_edges([0] + list(range(p, p + q - 1)))
        tails = [(3, p + q - 1), (p + q - 1, p + q)]
        g = FiniteGraph.from_edges(p + q + 1, first + second + tails)
        out.append(pytest.param(g, id=f"C{p}+C{q}"))
    return out


@pytest.mark.parametrize("g", differential_graphs())
def test_delta_equals_exhaustive_oracles(g):
    t = g
    expected = oracles.exhaustive_delta(t)
    assert four_point_delta(t) == expected
    if g.vertex_count <= 14:
        assert oracles.brute_force_delta(t.rows()) == expected
    # the relabelled graph has the same constant
    rng = random.Random(g.vertex_count)
    perm = list(range(g.vertex_count))
    rng.shuffle(perm)
    relabelled = FiniteGraph.from_edges(g.vertex_count, [(perm[u], perm[v]) for u, v in g.edges])
    assert four_point_delta(relabelled) == expected


def test_delta_of_block_sum_is_the_larger_block():
    # C_6 (delta 1) and C_10 (delta 2) sharing vertex 0
    first = cycle_edges(list(range(6)))
    second = cycle_edges([0] + list(range(6, 15)))
    t = FiniteGraph.from_edges(15, first + second)
    assert four_point_delta(cycle_graph(6)) == 1
    assert four_point_delta(cycle_graph(10)) == 2
    assert four_point_delta(t) == 2 == oracles.exhaustive_delta(t)


def test_far_apart_pairs_match_their_definition():
    rng = random.Random(7)
    for n, chords in ((8, 4), (12, 6), (16, 12)):
        g = chorded_sparse_graph(rng, n, chords)
        m = g.rows()
        adj = g.adjacency
        expected = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if all(m[w][v] <= m[u][v] for w in adj[u])
            and all(m[u][w] <= m[u][v] for w in adj[v])
        ]
        assert _far_apart_pairs(m) == expected


def test_pair_scan_stops_at_the_first_pair_within_the_best_gap():
    # not a metric, so matching its two pairs reports gap 4, above the
    # bound that holds in a metric: the scan must return the gap in hand
    # once no pair is longer than it
    m = [[0, 2, 0, 0], [2, 0, 0, 0], [0, 0, 0, 2], [0, 0, 2, 0]]
    pairs = [(0, 1), (2, 3)]
    assert _widest_gap(m, pairs, 0) == 4
    assert _widest_gap(m, pairs, 2) == 2
    assert _widest_gap(m, pairs, 3) == 3


def test_delta_large_seeded_tree_zero():
    import random as _random

    rng = _random.Random(20260814)
    edges = [(rng.randrange(v), v) for v in range(1, 200)]
    g = FiniteGraph.from_edges(200, edges)
    assert four_point_delta(g) == 0


def test_clique_blocks_skip_the_pair_scan():
    # every pair of a clique is far apart and no scan stop fires before the
    # last one, so a scan would match about 45,000 pairs against each other
    t = complete_graph(300)
    t.rows()
    start = time.perf_counter()
    assert four_point_delta(t) == 0
    assert time.perf_counter() - start < 1.0


def gnp_graph(rng: random.Random, n: int, p: float) -> FiniteGraph:
    """A connected draw of G(n, p): draws are repeated until one is."""
    while True:
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        try:
            return FiniteGraph.from_edges(n, edges)
        except ValidationError:
            continue


def split_graph(rng: random.Random, k: int, s: int) -> FiniteGraph:
    """A clique on 0..k-1 plus s independent vertices, each joined to a
    random nonempty part of the clique."""
    edges = [(u, v) for u in range(k) for v in range(u + 1, k)]
    for i in range(k, k + s):
        nbrs = [u for u in range(k) if rng.random() < 0.5] or [rng.randrange(k)]
        edges += [(u, i) for u in nbrs]
    return FiniteGraph.from_edges(k + s, edges)


def kernel_graphs() -> list:
    rng = random.Random(909)
    out = []
    for n in (1, 2, 9, 30):
        tree = FiniteGraph.from_edges(n, [(rng.randrange(v), v) for v in range(1, n)])
        out.append(pytest.param(tree, id=f"tree{n}"))
    out += [pytest.param(cycle_graph(n), id=f"cycle{n}") for n in (3, 6, 11, 20)]
    out += [pytest.param(complete_graph(n), id=f"complete{n}") for n in (2, 5, 12)]
    for p, q in ((6, 10), (5, 8)):
        first = cycle_edges(list(range(p)))
        second = cycle_edges([0] + list(range(p, p + q - 1)))
        g = FiniteGraph.from_edges(p + q, first + second + [(2, p + q - 1)])
        out.append(pytest.param(g, id=f"C{p}+C{q}"))
    for n, chords in ((20, 4), (40, 12), (60, 30)):
        out.append(pytest.param(chorded_sparse_graph(rng, n, chords), id=f"sparse{n}+{chords}"))
    for n, p in ((12, 0.3), (25, 0.5), (40, 0.15)):
        out.append(pytest.param(gnp_graph(rng, n, p), id=f"G({n},{p})"))
    for k, s in ((3, 4), (8, 10), (15, 20)):
        out.append(pytest.param(split_graph(rng, k, s), id=f"split{k}+{s}"))
    return out


@pytest.mark.parametrize("g", kernel_graphs())
def test_list_kernels_match_the_former_array_kernels(g):
    t = g
    assert four_point_delta(t) == oracles.array_four_point_delta(t)
    n = g.vertex_count
    rng = random.Random(n * 31 + len(g.edges))
    # the widest geodesic interval is the subset hyplab takes
    rows = t.rows()
    diameter = max(map(max, rows))
    x = next(u for u, row in enumerate(rows) if max(row) == diameter)
    subsets = [geodesic_interval(t, x, rows[x].index(diameter)), list(range(n))]
    subsets += [rng.sample(range(n), rng.randint(1, min(n, 6))) for _ in range(6)]
    for sub in subsets:
        assert quasiconvexity_constant(t, sub) == oracles.array_quasiconvexity_constant(t, sub)
        for r in (0, 1, rng.randint(2, 4)):
            rep = check_qconvex_stability(t, sub, r)
            assert (rep.table, rep.extremal) == oracles.array_stability(t, sub, r)


def test_graph_computes_rows_as_they_are_read():
    g = cycle_graph(10)
    assert g.vertex_count == 10 and g.rows_held == 0
    assert g.d(0, 5) == 5 and g.rows_held == 1
    # symmetric: d(3, 0) is read off row 0
    assert g.d(3, 0) == 3 and g.rows_held == 1
    assert g.row(7) == [3, 4, 5, 4, 3, 2, 1, 0, 1, 2] and g.rows_held == 2
    assert g.d(7, 2) == 5 and g.d(2, 9) == 3 and g.rows_held == 3
    assert g.rows() == cycle_graph(10).rows() and g.rows_held == 10


# ---------------------------------------------------------------- geodesics


def test_geodesic_interval_examples():
    c6 = cycle_graph(6)
    assert geodesic_interval(c6, 0, 3) == [0, 1, 2, 3, 4, 5]
    assert geodesic_interval(c6, 0, 2) == [0, 1, 2]
    p4 = path_graph(4)
    assert geodesic_interval(p4, 0, 3) == [0, 1, 2, 3]


def test_enumerate_geodesics_cycle():
    g = cycle_graph(6)
    fam = oracles.enumerate_geodesics(g, 0, 3)
    assert not fam.sampled
    assert fam.count == 2
    assert set(fam.paths) == {(0, 1, 2, 3), (0, 5, 4, 3)}


def test_enumerate_geodesics_matches_recursive_oracle():
    g = cycle_graph(6)
    t = g
    expected = set(oracles.all_geodesics(adj_dict(g), t.d, 0, 3))
    assert set(oracles.enumerate_geodesics(t, 0, 3).paths) == expected


def test_count_geodesics_cube():
    edges = [(u, u ^ (1 << b)) for u in range(8) for b in range(3) if u < u ^ (1 << b)]
    g = FiniteGraph.from_edges(8, edges)
    assert oracles.count_geodesics(g, 0, 7) == 6


def test_enumerate_geodesics_sampled_fallback():
    g = cycle_graph(6)
    t = g
    fam = oracles.enumerate_geodesics(t, 0, 3, cap=1, sample_size=40, seed=7)
    assert fam.sampled
    assert fam.count == 2
    assert set(fam.paths) <= {(0, 1, 2, 3), (0, 5, 4, 3)}
    again = oracles.enumerate_geodesics(t, 0, 3, cap=1, sample_size=40, seed=7)
    assert fam.paths == again.paths


def test_enumerate_geodesics_trivial_endpoints():
    g = path_graph(3)
    fam = oracles.enumerate_geodesics(g, 1, 1)
    assert fam.paths == ((1,),) and fam.count == 1


# ---------------------------------------------------------------- quasiconvexity


def test_quasiconvexity_frozen_examples():
    c6 = cycle_graph(6)
    assert quasiconvexity_constant(c6, [2]) == 0
    assert quasiconvexity_constant(c6, list(range(6))) == 0
    assert quasiconvexity_constant(c6, [0, 3]) == 1
    with pytest.raises(ValidationError):
        quasiconvexity_constant(c6, [])


@settings(max_examples=60, deadline=None)
@given(connected_graphs(max_n=8), st.data())
def test_quasiconvexity_matches_geodesic_enumeration(g, data):
    t = g
    sub = data.draw(
        st.lists(st.integers(0, g.vertex_count - 1), min_size=1, max_size=3, unique=True)
    )
    adj = adj_dict(g)
    worst = 0
    for x in sub:
        for y in sub:
            for path in oracles.all_geodesics(adj, t.d, x, y):
                for v in path:
                    worst = max(worst, min(t.d(v, s) for s in sub))
    assert quasiconvexity_constant(t, sub) == worst


@settings(max_examples=60, deadline=None)
@given(connected_graphs(max_n=8), st.data())
def test_geodesically_closed_subsets_have_constant_zero(g, data):
    t = g
    sub = set(
        data.draw(
            st.lists(st.integers(0, g.vertex_count - 1), min_size=1, max_size=2, unique=True)
        )
    )
    while True:
        grown = set(sub)
        for x in sub:
            for y in sub:
                grown.update(geodesic_interval(t, x, y))
        if grown == sub:
            break
        sub = grown
    assert quasiconvexity_constant(t, sorted(sub)) == 0


# ---------------------------------------------------------------- stability


def test_stability_subset_all_vertices_degenerate():
    t = cycle_graph(6)
    rep = check_qconvex_stability(t, list(range(6)), 0)
    assert rep.degenerate
    assert all(rp == 0 for _, rp in rep.table)
    assert rep.extremal is None
    assert dict(rep.table)[0] == 0


def test_stability_tree_leaf_frozen():
    t = path_graph(5)
    for leaf in (0, 4):
        rep = check_qconvex_stability(t, [leaf], 0)
        assert dict(rep.table)[0] == 0
        assert rep.degenerate
        assert rep.table == tuple((h, 0) for h in range(5))


def test_stability_cycle_antipodal_frozen():
    # worked example: excess 3 is achieved (e.g. x=2,y=0,z=3) by any config
    # whose geodesic [y,z] crosses to the far subset point, and dies once
    # h0 reaches 2 because d(x,y) <= 2 on all admissible configs
    t = cycle_graph(6)
    rep = check_qconvex_stability(t, [0, 3], 1)
    assert rep.table == ((0, 3), (1, 3), (2, 0), (3, 0))
    assert not rep.degenerate
    assert rep.extremal == (5, 3, 0)
    m = t.rows()
    assert rep.table == stability_oracle(m, [0, 3], 1)


def test_stability_matches_oracle_more_cases():
    cases = [
        (cycle_graph(6), [0, 3], 0),
        (cycle_graph(6), [0, 2], 1),
        (cycle_graph(7), [0, 3], 2),
        (path_graph(6), [0, 5], 1),
        (complete_graph(5), [0], 3),
    ]
    for g, sub, r in cases:
        t = g
        rep = check_qconvex_stability(t, sub, r)
        assert rep.table == stability_oracle(t.rows(), sub, r)


@settings(max_examples=60, deadline=None)
@given(connected_graphs(max_n=8), st.data())
def test_stability_oracle_agreement_and_monotone(g, data):
    t = g
    sub = data.draw(
        st.lists(st.integers(0, g.vertex_count - 1), min_size=1, max_size=3, unique=True)
    )
    r = data.draw(st.integers(0, 2))
    rep = check_qconvex_stability(t, sub, r)
    assert rep.table == stability_oracle(t.rows(), sorted(set(sub)), r)
    values = [rp for _, rp in rep.table]
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert rep.degenerate == (rep.extremal is None)
    if rep.extremal is not None:
        x, y, z = rep.extremal
        to_sub = min(t.d(z, s) for s in sub)
        assert t.d(z, y) - to_sub == dict(rep.table)[0]
    d = rep.to_json()
    assert d["r"] == r and len(d["table"]) == len(rep.table)


def test_stability_rejects_bad_input():
    t = cycle_graph(6)
    with pytest.raises(ValidationError):
        check_qconvex_stability(t, [], 1)
    with pytest.raises(ValidationError):
        check_qconvex_stability(t, [0], -1)


# ---------------------------------------------------------------- paths


def test_path_witness_claim_validation():
    with pytest.raises(ValidationError):
        PathWitness(())
    with pytest.raises(ValidationError, match="unknown path claim"):
        PathWitness((0, 1), claim="stroll")
    with pytest.raises(ValidationError, match="no constants"):
        PathWitness((0, 1), claim="geodesic", k=Fraction(2))
    with pytest.raises(ValidationError, match="k >= 1"):
        PathWitness((0, 1), claim="quasigeodesic", k=Fraction(1, 2))
    with pytest.raises(ValidationError, match="window"):
        PathWitness((0, 1), claim="local-quasigeodesic", k=Fraction(2))
    with pytest.raises(ValidationError, match="no window"):
        PathWitness((0, 1), claim="quasigeodesic", k=Fraction(2), window=3)


def test_path_witness_validate_against_table():
    t = cycle_graph(6)
    PathWitness((0, 1, 2, 3)).validate(t.d)
    with pytest.raises(ValidationError, match="not adjacent"):
        PathWitness((0, 2)).validate(t.d)
    with pytest.raises(ValidationError, match="not a geodesic"):
        PathWitness((0, 1, 2, 3, 4)).validate(t.d)
    PathWitness((0, 1, 2, 3, 4), claim="quasigeodesic", k=Fraction(2)).validate(t.d)
    with pytest.raises(ValidationError, match="violated"):
        PathWitness((0, 1, 2, 3, 4), claim="quasigeodesic", k=Fraction(3, 2)).validate(t.d)
    # within window 2 every interval is geodesic, so k=1 suffices locally
    PathWitness((0, 1, 2, 3, 4), claim="local-quasigeodesic", k=Fraction(1), window=2).validate(t.d)
    with pytest.raises(ValidationError, match="violated"):
        PathWitness(
            (0, 1, 2, 3, 4), claim="local-quasigeodesic", k=Fraction(1), window=4
        ).validate(t.d)
    with pytest.raises(ValidationError, match="revisited"):
        PathWitness((0, 1, 0), claim="quasigeodesic", k=Fraction(2)).validate(t.d)


# ---------------------------------------------------------------- parsing


def test_read_graph_round_trip():
    text = "# a path\n4 3\n0 1\n1 2\n\n2 3\n"
    g = read_graph(text)
    assert g == path_graph(4)


def test_read_graph_errors():
    with pytest.raises(ParseError, match="empty"):
        read_graph("\n# only comments\n")
    with pytest.raises(ParseError, match="header"):
        read_graph("4\n")
    with pytest.raises(ParseError, match="bad header"):
        read_graph("four 3\n0 1\n1 2\n2 3\n")
    with pytest.raises(ParseError, match="expected 3 edge lines"):
        read_graph("4 3\n0 1\n1 2\n")
    with pytest.raises(ParseError, match="edge line"):
        read_graph("4 3\n0 1\n1 2 9\n2 3\n")
    with pytest.raises(ValidationError):
        read_graph("4 2\n0 1\n2 3\n")
