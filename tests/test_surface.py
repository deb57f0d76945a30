"""Backend-contract tests: delegation identities, mismatch errors, and the
isometry/equivariance invariants of the pushforward SlotMap.apply."""

import ast
import pathlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import glueforge
from glueforge.errors import BackendMismatchError, ParseError, ValidationError
from glueforge.farey import distances_from, max_subsurface_projection
from glueforge.gluing import SlotMap
from glueforge.hypgraph import GraphBackend, GraphProjection, cycle_graph
from glueforge.surface import (
    AbstractMarking,
    BackendHandle,
    DiskSet,
    disk_distance,
    geodesic_between,
    marking_distance,
    marking_to_path_distance,
    sup_projection,
)
from glueforge.torus import (
    IDENTITY,
    INFINITY,
    REFLECTION,
    FareyMarking,
    Slope,
    SurfaceMap,
    TorusBackend,
)
from builders import path_graph, rand_word
from oracles import marking_diameter


def torus_marking(base: Slope, transversal: Slope) -> AbstractMarking:
    return AbstractMarking(BackendHandle.torus(), FareyMarking(base, transversal))


def rand_torus_marking(rng: random.Random, length: int = 7) -> AbstractMarking:
    word = rand_word(rng, length)
    return torus_marking(word.on_slope(Slope(0, 1)), word.on_slope(INFINITY))


# ------------------------------------------------------------- handles


def test_backend_handle_validation():
    # the contract has two implementations, and each checks its own data
    with pytest.raises(ParseError, match="unknown backend kind"):
        BackendHandle.from_json({"kind": "sphere"}, {})
    with pytest.raises(TypeError):
        TorusBackend(cycle_graph(6))  # the torus takes no graph data
    with pytest.raises(TypeError):
        GraphBackend()  # a graph backend needs its graph
    with pytest.raises(ValidationError, match="projection vertex 9 outside"):
        BackendHandle.finite_graph(cycle_graph(6), projections=[GraphProjection((9,), (0,), "W", 1)])
    with pytest.raises(ValidationError, match="diameter 3"):
        BackendHandle.finite_graph(cycle_graph(6), {"far": [0, 3]})


def test_both_backends_implement_the_whole_contract():
    operations = {name for name in vars(BackendHandle) if not name.startswith("_")}
    operations -= {"torus", "finite_graph", "from_json"}  # the contract's constructors
    assert {"distances_from", "sup_projection", "check_map", "tube"} <= operations
    for handle in (BackendHandle.torus(), BackendHandle.finite_graph(cycle_graph(6))):
        assert all(callable(getattr(handle, name)) for name in operations)
    assert (TorusBackend.kind, GraphBackend.kind) == ("torus", "graph")


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
        assert BackendHandle.from_json(handle.to_json(), {}) == handle
    with pytest.raises(ParseError):
        BackendHandle.from_json({"kind": "sphere"}, {})
    with pytest.raises(ParseError):
        BackendHandle.from_json(["torus"], {})
    with pytest.raises(ParseError):
        BackendHandle.from_json({"kind": "graph", "edges": [[0, 1]]}, {})


def test_named_markings():
    h = BackendHandle.finite_graph(cycle_graph(6), {"mu": [0, 1]})
    assert h.named_marking("mu") == (0, 1)
    with pytest.raises(ValidationError, match="no marking named"):
        h.named_marking("nu")
    assert AbstractMarking.from_json(h, {"name": "mu"}) == AbstractMarking(h, (0, 1))


BACKEND_KINDS = {"torus", "graph"}
IMPLEMENTATIONS = {"TorusBackend", "GraphBackend"}


# the torus layer: the Farey kernels and the half-plane geometry with its
# decimal path
TORUS_LAYER = {"farey", "halfplane", "decimalpath"}


def _backend_tests(tree: ast.AST, allowed: set[ast.AST], torus_layer: bool = False) -> list[str]:
    """What tells one backend from the other: anywhere, a read of is_torus
    or as_torus_marking; outside the allowed nodes, a comparison with a
    backend kind or of a handle's kind, a name of an implementation, and
    an AbstractMarking built from a tuple or list literal, which is one
    backend's payload; outside the torus layer, a run-time import of it
    (an import under `if TYPE_CHECKING:` only names types)."""
    typing_only = {
        n
        for node in ast.walk(tree)
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING"
        for n in ast.walk(node)
    }
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import | ast.ImportFrom) and not torus_layer and node not in typing_only:
            names = [getattr(node, "module", None) or "", *(a.name for a in node.names)]
            if TORUS_LAYER & {part for n in names for part in n.split(".")}:
                found.append(f"line {node.lineno}: {ast.unparse(node)}")
        name = getattr(node, "attr", None) or getattr(node, "id", None)
        if isinstance(node, ast.alias):  # an import
            name = node.name
        if name in ("is_torus", "as_torus_marking"):
            found.append(f"line {node.lineno}: {name}")
        if node in allowed:
            continue
        if name in IMPLEMENTATIONS:
            found.append(f"line {node.lineno}: {name}")
        if isinstance(node, ast.Compare):
            parts = list(ast.walk(node))
            kinds = {p.value for p in parts if isinstance(p, ast.Constant)}
            handle_kinds = [
                p
                for p in parts
                if isinstance(p, ast.Attribute) and p.attr == "kind" and "handle" in ast.unparse(p.value)
            ]
            if kinds & BACKEND_KINDS or handle_kinds:
                found.append(f"line {node.lineno}: {ast.unparse(node)}")
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "AbstractMarking":
            payload = [*node.args[1:2], *(k.value for k in node.keywords if k.arg == "payload")]
            if any(isinstance(p, (ast.Tuple, ast.List)) for p in payload):
                found.append(f"line {node.lineno}: {ast.unparse(node)}")
    return found


def test_only_the_backends_tell_torus_from_graph():
    # every other module asks the handle: the two implementations and the
    # constructors of BackendHandle, whose from_json reads the JSON kind,
    # are the only code that knows which backend it holds, and only the
    # torus implementation runs the torus layer
    src = pathlib.Path(glueforge.__file__).parent
    found = {}
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        allowed: set[ast.AST] = set()
        if path.name in ("torus.py", "hypgraph.py"):
            allowed = set(ast.walk(tree))
        elif path.name == "surface.py":
            handle = next(c for c in tree.body if getattr(c, "name", None) == "BackendHandle")
            for fn in handle.body:
                if getattr(fn, "name", None) in ("torus", "finite_graph", "from_json"):
                    allowed.update(ast.walk(fn))
        found[path.name] = _backend_tests(tree, allowed, path.stem in ("torus", *TORUS_LAYER))
    assert {"surface.py", "gluing.py", "model.py", "torus.py", "hypgraph.py"} <= found.keys()
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_the_kind_check_sees_each_way_to_branch_on_a_backend():
    for code in (
        "if m.handle.is_torus: pass",
        "if handle.kind == 'torus': pass",
        "x = 'graph' != h.kind",
        "ok = kind in ('torus', 'graph')",
        "if isinstance(h, TorusBackend): pass",
        "from .hypgraph import GraphBackend",
        "payload = as_torus_marking(m)",
        "m = AbstractMarking(handle, (path[-1],))",
        "m = AbstractMarking(h, payload=[0, 1])",
        "from .halfplane import balanced_marking",
        "from . import farey",
        "import glueforge.halfplane",
        "def f():\n    from glueforge.farey import farey_distance",
    ):
        assert _backend_tests(ast.parse(code), set()), code
    for code in (
        "if spec.kind == TRIVIAL_IBUNDLE: pass",
        "m = AbstractMarking(h, f(m.payload))",
        "if TYPE_CHECKING:\n    from .halfplane import Tube",
        "from .torus import farey_distance_row",
    ):
        assert _backend_tests(ast.parse(code), set()) == [], code
    assert _backend_tests(ast.parse("from .farey import distances_from"), set(), True) == []


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
    # a marking of the right shape whose slopes do not meet once breaks a rule
    with pytest.raises(ValidationError, match="intersect once"):
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
    assert h.distances_from(0, [3]) == [3]
    assert BackendHandle.torus().distances_from(Slope(0, 1), [Slope(8, 5)]) == [3]
    with pytest.raises(ValidationError):
        BackendHandle.torus().distances_from(0, [1])
    m1 = AbstractMarking(h, (0, 1))
    m2 = AbstractMarking(h, (2, 3))
    assert marking_diameter(m1, m2) == 3
    assert marking_diameter(torus_marking(Slope(0, 1), INFINITY)) == 1


def test_curve_distances_from_is_a_row_of_curve_distance():
    g = BackendHandle.finite_graph(cycle_graph(7))
    row = [2, 0, 5, 6]
    assert g.distances_from(2, row) == [g.graph.d(2, v) for v in row]
    t = BackendHandle.torus()
    rng = random.Random(5)
    slopes = [rand_torus_marking(rng, 12).payload.base for _ in range(20)] + [INFINITY]
    for a in slopes[:5]:
        assert t.distances_from(a, slopes) == [distances_from(a, [b])[0] for b in slopes]
    assert t.distances_from(INFINITY, []) == []
    with pytest.raises(ValidationError):
        t.distances_from(INFINITY, [Slope(0, 1), 1])
    with pytest.raises(ValidationError):
        t.distances_from(0, [Slope(0, 1)])


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
    disks = DiskSet(h, (Slope(0, 1),))
    assert disk_distance(m, disks) == 1  # d(0,1/2)=1 beats d(0,2/5)=2
    assert disk_distance(torus_marking(Slope(0, 1), INFINITY), disks) == 0
    far = DiskSet(h, (Slope(13, 8),))
    expect = min(distances_from(Slope(13, 8), [s])[0] for s in (Slope(2, 5), Slope(1, 2)))
    assert disk_distance(m, far) == expect


def test_disk_distance_empty_raises():
    h = BackendHandle.torus()
    m = torus_marking(Slope(0, 1), INFINITY)
    with pytest.raises(ValidationError, match="empty disk set"):
        disk_distance(m, DiskSet(h, ()))


def test_disk_set_validation_and_json():
    h = BackendHandle.torus()
    with pytest.raises(ValidationError):
        DiskSet(h, (0,))
    hg = BackendHandle.finite_graph(cycle_graph(6))
    with pytest.raises(ValidationError):
        DiskSet(hg, (Slope(0, 1),))
    with pytest.raises(ValidationError):
        DiskSet(hg, (9,))
    d = DiskSet(h, (Slope(0, 1), Slope(1, 2)))
    assert DiskSet.from_json(h, d.to_json()) == d
    dg = DiskSet(hg, (0, 3))
    assert DiskSet.from_json(hg, dg.to_json()) == dg


def test_disk_triangle_with_marking_diameter_slack():
    # the raw triangle disk(m) <= md(m,m') + disk(m') fails when the
    # markings share a slope and the disk set contains the partner's other
    # slope; the correct coarse inequality carries diam(m') <= 2
    h = BackendHandle.torus()
    m = torus_marking(Slope(0, 1), INFINITY)
    mp = torus_marking(Slope(3, 1), INFINITY)
    disks = DiskSet(h, (Slope(3, 1),))
    assert marking_distance(m, mp) == 0
    assert disk_distance(mp, disks) == 0
    assert disk_distance(m, disks) == 1  # strict violation of the raw form
    rng = random.Random(20260814)
    for _ in range(200):
        a = rand_torus_marking(rng)
        b = rand_torus_marking(rng)
        dset = DiskSet(h, tuple({rand_torus_marking(rng).elements()[0]}))
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


def apply(m: SurfaceMap, marking: AbstractMarking) -> AbstractMarking:
    return SlotMap(marking.handle, matrix=m).apply(marking)


def test_pushforward_frozen_examples():
    m = torus_marking(Slope(0, 1), INFINITY)
    assert apply(IDENTITY, m) == m
    assert apply(REFLECTION, m) == m
    psi = SurfaceMap(13, 8, 8, 5) @ REFLECTION
    assert psi.det == -1
    image = apply(psi, m)
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


def test_a_torus_map_reads_its_orientation_from_its_matrix():
    # a flag beside the matrix would make two maps that print alike unequal
    t = BackendHandle.torus()
    with pytest.raises(ValidationError, match="^torus slot map takes its orientation from its matrix, not a flag$"):
        SlotMap(t, matrix=REFLECTION, graph_reversing=False)
    assert SlotMap(t, matrix=REFLECTION) == SlotMap(t, matrix=REFLECTION, graph_reversing=True)


@pytest.mark.parametrize(
    "perm",
    [("1", "2", "3", "0"), (1.0, 2.0, 3.0, 0.0), (1, 2, 3, True), "1230", {1: 0, 0: 1}, range(4)],
    ids=["strings", "floats", "bool", "string", "dict", "range"],
)
def test_a_graph_map_takes_only_integer_permutations(perm):
    # as the file reader does: no entry is converted
    h = BackendHandle.finite_graph(cycle_graph(4))
    with pytest.raises(ValidationError, match="is not a list of integers$"):
        SlotMap(h, perm=perm)
    assert SlotMap(h, perm=[1, 2, 3, 0]).perm == (1, 2, 3, 0)
    assert SlotMap(h, perm=[1, 2, 3, 0]) == SlotMap(h, perm=(1, 2, 3, 0))


def test_pushforward_isometry_random_maps():
    rng = random.Random(20260814)
    for _ in range(300):
        m1 = rand_torus_marking(rng)
        m2 = rand_torus_marking(rng)
        word = rand_word(rng, 6, orientation_preserving=False)
        assert marking_distance(apply(word, m1), apply(word, m2)) == marking_distance(m1, m2)


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
        after = sup_projection(apply(word, m1), apply(word, m2)).value
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
    assert len(path) == distances_from(Slope(2, 5), [INFINITY])[0] + 1


def test_geodesic_between_graph_deterministic():
    h = BackendHandle.finite_graph(cycle_graph(6))
    path = geodesic_between(AbstractMarking(h, (0,)), AbstractMarking(h, (3,)))
    assert path == [0, 1, 2, 3]
    p2 = geodesic_between(AbstractMarking(h, (0, 1)), AbstractMarking(h, (3, 2)))
    assert p2 == [1, 2]  # closest pair (1,2), not (0,3)


def test_curve_geodesic_joins_two_vertices_on_both_backends():
    # the vertex geodesic under the marking one: the Farey geodesic of the
    # bases on the torus, the walk from the closest pair on a graph
    t = BackendHandle.torus()
    m1 = torus_marking(Slope(2, 5), Slope(1, 2))
    m2 = torus_marking(INFINITY, Slope(0, 1))
    assert t.curve_geodesic(Slope(2, 5), INFINITY) == geodesic_between(m1, m2)
    assert t.curve_geodesic(Slope(1, 2), Slope(1, 2)) == [Slope(1, 2)]
    h = BackendHandle.finite_graph(cycle_graph(7))
    for u in range(7):
        for v in range(7):
            path = h.curve_geodesic(u, v)
            assert path == geodesic_between(AbstractMarking(h, (u,)), AbstractMarking(h, (v,)))
            assert path[0] == u and path[-1] == v and len(path) == h.graph.d(u, v) + 1


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
            min(distances_from(x, [y])[0] for x in m.elements() for y in targets)
            for targets in (other.elements(), path, disks.elements)
        ]
        neighbours.clear()
        assert marking_distance(m, other) == expected[0]
        assert marking_to_path_distance(m, path) == expected[1]
        assert disk_distance(m, disks) == expected[2]
        assert len(neighbours) == 6 and None not in neighbours


def test_marking_payload_is_the_backends_value():
    m = torus_marking(Slope(0, 1), INFINITY)
    assert m.payload == FareyMarking(Slope(0, 1), INFINITY)
    h = BackendHandle.finite_graph(cycle_graph(6))
    g = AbstractMarking(h, (1, 0))
    assert g.payload == (0, 1)
    # a graph has no Teichmuller geometry: no balanced point, no tube
    assert h.sigma(g.payload) is None and h.tube(g.payload, g.payload, 2) is None


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
