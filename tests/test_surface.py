"""Backend-contract tests: delegation identities, mismatch errors, and the
isometry/equivariance invariants of the pushforward SlotMap.apply."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glueforge.errors import BackendMismatchError, ParseError, ValidationError
from glueforge.farey import farey_distance, max_subsurface_projection
from glueforge.gluing import SlotMap
from glueforge.hypgraph import FiniteGraph, cycle_graph, path_graph
from glueforge.surface import (
    AbstractMarking,
    BackendHandle,
    DiskSet,
    GraphProjection,
    as_torus_marking,
    curve_distances_from,
    disk_distance,
    geodesic_between,
    marking_distance,
    marking_to_path_distance,
    sup_projection,
)
from glueforge.torus import IDENTITY, INFINITY, REFLECTION, FareyMarking, Slope, SurfaceMap
from oracles import marking_diameter

T_MAP = SurfaceMap(1, 1, 0, 1)
L_MAP = SurfaceMap(1, 0, 1, 1)


def torus_marking(base: Slope, transversal: Slope) -> AbstractMarking:
    return AbstractMarking(BackendHandle.torus(), FareyMarking(base, transversal))


def rand_word(rng: random.Random, length: int, orientation_preserving: bool = True) -> SurfaceMap:
    m = IDENTITY
    for _ in range(rng.randrange(1, length + 1)):
        m = m @ rng.choice([T_MAP, L_MAP, T_MAP.inverse(), L_MAP.inverse()])
    if rng.random() < 0.25:
        m = m @ SurfaceMap(-1, 0, 0, -1)
    if not orientation_preserving and rng.random() < 0.5:
        m = m @ REFLECTION
    return m


def rand_torus_marking(rng: random.Random, length: int = 7) -> AbstractMarking:
    word = rand_word(rng, length)
    return torus_marking(word.on_slope(Slope(0, 1)), word.on_slope(INFINITY))


# ------------------------------------------------------------- handles


def test_backend_handle_validation():
    with pytest.raises(ValidationError, match="unknown backend kind"):
        BackendHandle("sphere")
    with pytest.raises(ValidationError, match="no graph data"):
        BackendHandle("torus", graph=cycle_graph(6))
    with pytest.raises(ValidationError, match="needs a FiniteGraph"):
        BackendHandle("graph")


def test_backend_equality_is_structural():
    h1 = BackendHandle.finite_graph(cycle_graph(6))
    h2 = BackendHandle.finite_graph(cycle_graph(6))
    assert h1 == h2
    assert BackendHandle.torus() == BackendHandle.torus()
    assert h1 != BackendHandle.finite_graph(path_graph(4))


def test_backend_json_round_trip():
    for handle in (
        BackendHandle.torus(),
        BackendHandle.finite_graph(
            cycle_graph(6),
            {"mu": [0, 1], "nu": [3]},
            [GraphProjection((0, 1), (3,), "W0", 7)],
        ),
    ):
        assert BackendHandle.from_json(handle.to_json()) == handle
    with pytest.raises(ParseError):
        BackendHandle.from_json({"kind": "sphere"})
    with pytest.raises(ParseError):
        BackendHandle.from_json(["torus"])
    with pytest.raises(ParseError):
        BackendHandle.from_json({"kind": "graph", "edges": [[0, 1]]})


def test_named_markings():
    h = BackendHandle.finite_graph(cycle_graph(6), {"mu": [0, 1]})
    assert h.named_marking("mu").payload == (0, 1)
    with pytest.raises(ValidationError, match="no marking named"):
        h.named_marking("nu")
    assert AbstractMarking.from_json(h, {"name": "mu"}) == h.named_marking("mu")


# ------------------------------------------------------------- markings


def test_marking_validation():
    h = BackendHandle.finite_graph(cycle_graph(6))
    AbstractMarking(h, (0, 1, 2))  # diameter 2
    with pytest.raises(ValidationError, match="diameter"):
        AbstractMarking(h, (0, 3))
    with pytest.raises(ValidationError, match="at least one"):
        AbstractMarking(h, ())
    with pytest.raises(ValidationError, match="outside"):
        AbstractMarking(h, (0, 9))
    with pytest.raises(ValidationError, match="repeats"):
        AbstractMarking(h, (1, 1))
    with pytest.raises(ValidationError, match="vertex tuple"):
        AbstractMarking(h, FareyMarking(Slope(0, 1), INFINITY))
    with pytest.raises(ValidationError, match="FareyMarking"):
        AbstractMarking(BackendHandle.torus(), (0, 1))


def test_marking_payload_canonical_order():
    h = BackendHandle.finite_graph(cycle_graph(6))
    assert AbstractMarking(h, (2, 1)) == AbstractMarking(h, (1, 2))


def test_marking_json_round_trip():
    m = torus_marking(Slope(8, 5), Slope(13, 8))
    assert AbstractMarking.from_json(BackendHandle.torus(), m.to_json()) == m
    h = BackendHandle.finite_graph(cycle_graph(6))
    g = AbstractMarking(h, (0, 1))
    assert AbstractMarking.from_json(h, g.to_json()) == g
    with pytest.raises(ParseError):
        AbstractMarking.from_json(BackendHandle.torus(), {"base": "0/1"})
    with pytest.raises(ParseError):
        AbstractMarking.from_json(BackendHandle.torus(), {"base": "0/1", "transversal": "0/1"})
    with pytest.raises(ParseError):
        AbstractMarking.from_json(h, {"slopes": []})


# ------------------------------------------------------------- distances


def test_marking_distance_frozen_examples():
    m = torus_marking(Slope(0, 1), INFINITY)
    assert marking_distance(m, m) == 0
    other = torus_marking(Slope(8, 5), Slope(13, 8))
    assert marking_distance(m, other) == 3
    h = BackendHandle.finite_graph(path_graph(4))
    assert marking_distance(AbstractMarking(h, (0,)), AbstractMarking(h, (1,))) == 1


def test_marking_distance_backend_mismatch():
    m = torus_marking(Slope(0, 1), INFINITY)
    h = BackendHandle.finite_graph(path_graph(4))
    g = AbstractMarking(h, (0,))
    with pytest.raises(BackendMismatchError):
        marking_distance(m, g)
    h2 = BackendHandle.finite_graph(cycle_graph(6))
    with pytest.raises(BackendMismatchError):
        marking_distance(AbstractMarking(h2, (0,)), g)


def test_curve_distance_and_diameter():
    h = BackendHandle.finite_graph(cycle_graph(6))
    assert curve_distances_from(h, 0, [3]) == [3]
    assert curve_distances_from(BackendHandle.torus(), Slope(0, 1), [Slope(8, 5)]) == [3]
    with pytest.raises(ValidationError):
        curve_distances_from(BackendHandle.torus(), 0, [1])
    m1 = AbstractMarking(h, (0, 1))
    m2 = AbstractMarking(h, (2, 3))
    assert marking_diameter(m1, m2) == 3
    assert marking_diameter(torus_marking(Slope(0, 1), INFINITY)) == 1


def test_curve_distances_from_is_a_row_of_curve_distance():
    g = BackendHandle.finite_graph(cycle_graph(7))
    row = [2, 0, 5, 6]
    assert curve_distances_from(g, 2, row) == [g.graph.d(2, v) for v in row]
    t = BackendHandle.torus()
    rng = random.Random(5)
    slopes = [rand_torus_marking(rng, 12).payload.base for _ in range(20)] + [INFINITY]
    for a in slopes[:5]:
        assert curve_distances_from(t, a, slopes) == [farey_distance(a, b) for b in slopes]
    assert curve_distances_from(t, INFINITY, []) == []
    with pytest.raises(ValidationError):
        curve_distances_from(t, INFINITY, [Slope(0, 1), 1])
    with pytest.raises(ValidationError):
        curve_distances_from(t, 0, [Slope(0, 1)])


# ------------------------------------------------------------- projections


def test_sup_projection_identical_markings_small():
    m = torus_marking(Slope(2, 5), Slope(1, 2))
    res = sup_projection(m, m)
    assert res.value <= 2
    assert not res.certified and not res.unmodeled


def test_sup_projection_delegates_to_torus():
    m1 = torus_marking(Slope(0, 1), INFINITY)
    m2 = torus_marking(Slope(8, 5), Slope(13, 8))
    label, value = max_subsurface_projection(
        FareyMarking(Slope(0, 1), INFINITY), FareyMarking(Slope(8, 5), Slope(13, 8))
    )
    res = sup_projection(m1, m2)
    assert (res.label, res.value) == (label, value)
    certified = sup_projection(m1, m2, denom_bound=34)
    assert certified.certified and certified.value >= value


def test_sup_projection_graph_lookup_and_unmodeled():
    h = BackendHandle.finite_graph(
        cycle_graph(6),
        projections=[
            GraphProjection((0,), (3,), "W0", 7),
            GraphProjection((3,), (0,), "W1", 4),
        ],
    )
    res = sup_projection(AbstractMarking(h, (0,)), AbstractMarking(h, (3,)))
    assert (res.label, res.value) == ("W0", 7)
    assert res.certified and not res.unmodeled
    res2 = sup_projection(AbstractMarking(h, (3,)), AbstractMarking(h, (0,)))
    assert res2.value == 7
    missing = sup_projection(AbstractMarking(h, (0,)), AbstractMarking(h, (1,)))
    assert missing.value == 0 and missing.unmodeled and not missing.certified
    assert missing.to_json()["unmodeled"] is True


# ------------------------------------------------------------- disks


def test_disk_distance_frozen_examples():
    h = BackendHandle.torus()
    m = torus_marking(Slope(2, 5), Slope(1, 2))
    disks = DiskSet(h, (Slope(0, 1),), owner="E0")
    assert disk_distance(m, disks) == 1  # d(0,1/2)=1 beats d(0,2/5)=2
    assert disk_distance(torus_marking(Slope(0, 1), INFINITY), disks) == 0
    far = DiskSet(h, (Slope(13, 8),), owner="E0")
    expect = min(farey_distance(Slope(13, 8), s) for s in (Slope(2, 5), Slope(1, 2)))
    assert disk_distance(m, far) == expect


def test_disk_distance_empty_names_boundary():
    h = BackendHandle.torus()
    m = torus_marking(Slope(0, 1), INFINITY)
    with pytest.raises(ValidationError, match="boundary E3"):
        disk_distance(m, DiskSet(h, (), owner="E3"))


def test_disk_set_validation_and_json():
    h = BackendHandle.torus()
    with pytest.raises(ValidationError):
        DiskSet(h, (0,))
    hg = BackendHandle.finite_graph(cycle_graph(6))
    with pytest.raises(ValidationError):
        DiskSet(hg, (Slope(0, 1),))
    with pytest.raises(ValidationError):
        DiskSet(hg, (9,))
    d = DiskSet(h, (Slope(0, 1), Slope(1, 2)), owner="E0")
    assert DiskSet.from_json(h, d.to_json(), owner="E0") == d
    dg = DiskSet(hg, (0, 3))
    assert DiskSet.from_json(hg, dg.to_json()) == dg


def test_disk_triangle_with_marking_diameter_slack():
    # the raw triangle disk(m) <= md(m,m') + disk(m') fails when the
    # markings share a slope and the disk set contains the partner's other
    # slope; the correct coarse inequality carries diam(m') <= 2
    h = BackendHandle.torus()
    m = torus_marking(Slope(0, 1), INFINITY)
    mp = torus_marking(Slope(3, 1), INFINITY)
    disks = DiskSet(h, (Slope(3, 1),), owner="E")
    assert marking_distance(m, mp) == 0
    assert disk_distance(mp, disks) == 0
    assert disk_distance(m, disks) == 1  # strict violation of the raw form
    rng = random.Random(20260814)
    for _ in range(200):
        a = rand_torus_marking(rng)
        b = rand_torus_marking(rng)
        dset = DiskSet(h, tuple({rand_torus_marking(rng).elements()[0]}), owner="E")
        lhs = disk_distance(a, dset)
        rhs = marking_distance(a, b) + disk_distance(b, dset) + marking_diameter(b)
        assert lhs <= rhs


def test_disk_triangle_graph_exhaustive():
    g = cycle_graph(6)
    h = BackendHandle.finite_graph(g)
    singles = [AbstractMarking(h, (v,)) for v in range(6)]
    disks = [DiskSet(h, (v,)) for v in range(6)]
    for m in singles:
        for mp in singles:
            for d in disks:
                assert disk_distance(m, d) <= marking_distance(m, mp) + disk_distance(
                    mp, d
                ) + marking_diameter(mp)


# ------------------------------------------------------------- pushforward


def push(m: SurfaceMap, marking: AbstractMarking) -> AbstractMarking:
    return SlotMap(marking.handle, matrix=m).apply(marking)


def test_pushforward_frozen_examples():
    m = torus_marking(Slope(0, 1), INFINITY)
    assert push(IDENTITY, m) == m
    assert push(REFLECTION, m) == m
    psi = SurfaceMap(13, 8, 8, 5) @ REFLECTION
    assert psi.det == -1
    image = push(psi, m)
    assert image.payload == FareyMarking(Slope(8, 5), Slope(13, 8))


def test_pushforward_graph_rotation():
    h = BackendHandle.finite_graph(cycle_graph(6))
    m = AbstractMarking(h, (0, 1))
    assert SlotMap(h, perm=[(v + 1) % 6 for v in range(6)]).apply(m).payload == (1, 2)
    assert SlotMap(h, perm=tuple((v + 2) % 6 for v in range(6))).apply(m).payload == (2, 3)


def test_pushforward_graph_rejects_bad_maps():
    h = BackendHandle.finite_graph(path_graph(4))
    with pytest.raises(ValidationError, match="bijection"):
        SlotMap(h, perm=[0, 0, 1, 2])
    with pytest.raises(ValidationError, match="distance preserving"):
        SlotMap(h, perm=[1, 0, 2, 3])
    flip = SlotMap(h, perm=[3, 2, 1, 0])
    assert flip.apply(AbstractMarking(h, (0,))).payload == (3,)
    with pytest.raises(BackendMismatchError):
        flip.apply(torus_marking(Slope(0, 1), INFINITY))


def test_pushforward_isometry_random_maps():
    rng = random.Random(20260814)
    for _ in range(300):
        m1 = rand_torus_marking(rng)
        m2 = rand_torus_marking(rng)
        word = rand_word(rng, 6, orientation_preserving=False)
        assert marking_distance(push(word, m1), push(word, m2)) == marking_distance(m1, m2)


def test_sup_projection_equivariance_orientation_preserving():
    # exact for det +1 words: pivot candidate sets shift along with the
    # chart, and per-annulus values are equivariant
    rng = random.Random(20260814)
    for _ in range(300):
        m1 = rand_torus_marking(rng)
        m2 = rand_torus_marking(rng)
        word = rand_word(rng, 6)
        assert word.det == 1
        before = sup_projection(m1, m2).value
        after = sup_projection(push(word, m1), push(word, m2)).value
        assert before == after


def test_pushforward_graph_isometry_exhaustive():
    h = BackendHandle.finite_graph(cycle_graph(6))
    rot = SlotMap(h, perm=[(v + 1) % 6 for v in range(6)])
    for u in range(6):
        for v in range(6):
            m1 = AbstractMarking(h, (u,))
            m2 = AbstractMarking(h, (v,))
            assert marking_distance(rot.apply(m1), rot.apply(m2)) == marking_distance(m1, m2)


# ------------------------------------------------------------- geodesics


def test_geodesic_between_torus():
    m1 = torus_marking(Slope(2, 5), Slope(1, 2))
    m2 = torus_marking(INFINITY, Slope(0, 1))
    path = geodesic_between(m1, m2)
    assert path[0] == Slope(2, 5) and path[-1] == INFINITY
    assert len(path) == farey_distance(Slope(2, 5), INFINITY) + 1


def test_geodesic_between_graph_deterministic():
    h = BackendHandle.finite_graph(cycle_graph(6))
    path = geodesic_between(AbstractMarking(h, (0,)), AbstractMarking(h, (3,)))
    assert path == [0, 1, 2, 3]
    p2 = geodesic_between(AbstractMarking(h, (0, 1)), AbstractMarking(h, (3, 2)))
    assert p2 == [1, 2]  # closest pair (1,2), not (0,3)


def test_marking_to_path_distance():
    h = BackendHandle.finite_graph(cycle_graph(6))
    m = AbstractMarking(h, (5,))
    assert marking_to_path_distance(m, [0, 1, 2, 3]) == 1
    tm = torus_marking(Slope(2, 5), Slope(1, 2))
    assert marking_to_path_distance(tm, [Slope(2, 5)]) == 0
    with pytest.raises(ValidationError):
        marking_to_path_distance(m, [])


def test_marking_rows_chart_through_the_partner_slope(monkeypatch):
    # the other slope of a marking is a Farey neighbour of each, so no
    # row from a marking slope pays the modular inverse of its chart
    from glueforge import farey

    neighbours = []
    real = farey.normalizer_to_infinity

    def recording(w, neighbour=None):
        neighbours.append(neighbour)
        return real(w, neighbour)

    monkeypatch.setattr(farey, "normalizer_to_infinity", recording)
    rng = random.Random(11)
    t = BackendHandle.torus()
    for _ in range(30):
        m, other = rand_torus_marking(rng, 40), rand_torus_marking(rng, 40)
        path = geodesic_between(other, rand_torus_marking(rng, 40))
        disks = DiskSet(t, (other.payload.base, rand_torus_marking(rng, 40).payload.base))

        expected = [
            min(farey_distance(x, y) for x in m.elements() for y in targets)
            for targets in (other.elements(), path, disks.elements)
        ]
        neighbours.clear()
        assert marking_distance(m, other) == expected[0]
        assert marking_to_path_distance(m, path) == expected[1]
        assert disk_distance(m, disks) == expected[2]
        assert len(neighbours) == 6 and None not in neighbours


def test_as_torus_marking():
    m = torus_marking(Slope(0, 1), INFINITY)
    assert as_torus_marking(m) == FareyMarking(Slope(0, 1), INFINITY)
    h = BackendHandle.finite_graph(cycle_graph(6))
    with pytest.raises(BackendMismatchError):
        as_torus_marking(AbstractMarking(h, (0,)))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 5), st.integers(0, 5))
def test_graph_geodesic_is_geodesic(u, shift):
    h = BackendHandle.finite_graph(cycle_graph(6))
    m1 = AbstractMarking(h, (u,))
    m2 = AbstractMarking(h, ((u + shift) % 6,))
    path = geodesic_between(m1, m2)
    assert len(path) == marking_distance(m1, m2) + 1
    for a, b in zip(path, path[1:]):
        assert h.graph.d(a, b) == 1
