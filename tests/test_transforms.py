"""Transformation tests: stack certificates, I-bundle collapse,
compression assembly and decomposition."""

import importlib.util
import json
import pathlib
import random
import sys
from fractions import Fraction

import pytest

from glueforge.decompose import full_and_maximal_decomposition
from glueforge.errors import BackendMismatchError, ValidationError
from glueforge.gluing import (
    COMPRESSION_BODY,
    GENERIC,
    TRIVIAL_IBUNDLE,
    TWISTED_IBUNDLE,
    BoundarySpec,
    CoverData,
    DecoratedManifoldSpec,
    GluingGraph,
    Identification,
    SlotMap,
    SubPiece,
    Splitting,
    heights,
    induced_markings,
)
from glueforge.ioutil import canonical_dumps, sha256_of_text
from glueforge.record import replace
from glueforge.surface import (
    AbstractMarking,
    BackendHandle,
    DiskSet,
    geodesic_between,
    marking_distance,
    marking_to_path_distance,
    sup_projection,
)
from glueforge.torus import (
    IDENTITY,
    REFLECTION,
    FareyMarking,
    Slope,
    SurfaceMap,
    parse_slope,
)
from glueforge.transforms import (
    _k_prime,
    _stack_path,
    collapse_ibundles,
    combine_stack,
    measured_r_bound,
)

from oracles import (
    CompressionStep,
    all_pairs_k_prime,
    build_compression,
    full_fellow_traveling,
    marking_diameter,
)

T = BackendHandle.torus()
A = SurfaceMap(2, 1, 1, 1)
T_MAP = SurfaceMap(1, 1, 0, 1)
L_MAP = SurfaceMap(1, 0, 1, 1)


def mk(base: str, transversal: str) -> AbstractMarking:
    return AbstractMarking(T, FareyMarking(parse_slope(base), parse_slope(transversal)))


MU = mk("0/1", "1/0")


def tmap(m: SurfaceMap) -> SlotMap:
    return SlotMap(T, matrix=m)


def push(m: SurfaceMap, marking: AbstractMarking = MU) -> AbstractMarking:
    return AbstractMarking(T, m.on_marking(marking.payload))


def core(mid: str, dec: AbstractMarking, bdry: str = "E0") -> DecoratedManifoldSpec:
    return DecoratedManifoldSpec(mid, GENERIC, (BoundarySpec(bdry, handle=T, decoration=dec),))


def core2(mid: str, d0: AbstractMarking, d1: AbstractMarking) -> DecoratedManifoldSpec:
    return DecoratedManifoldSpec(
        mid,
        GENERIC,
        (
            BoundarySpec("E0", handle=T, decoration=d0),
            BoundarySpec("E1", handle=T, decoration=d1),
        ),
    )


def bundle(mid: str, mu0: AbstractMarking, mu1: AbstractMarking) -> DecoratedManifoldSpec:
    return DecoratedManifoldSpec(
        mid,
        TRIVIAL_IBUNDLE,
        (
            BoundarySpec("F0", handle=T, decoration=mu0),
            BoundarySpec("F1", handle=T, decoration=mu1),
        ),
        bundle_map=tmap(REFLECTION),
    )


def axis_bundle(mid: str, k: int) -> DecoratedManifoldSpec:
    """Paper-style piece: both boundary decorations are the k-th axis
    marking, compared through the reflection exchange map."""
    return bundle(mid, push(A.power(k)), push(REFLECTION @ A.power(k)))


def chain(
    *specs: DecoratedManifoldSpec, maps: list[SurfaceMap] | None = None
) -> GluingGraph:
    """Glue the pieces in a row, each to the next, reflections by default.
    Piece ids are p0, p1, ...; bundle slots are traversed F0 -> F1."""
    maps = maps or [REFLECTION] * (len(specs) - 1)
    pieces = tuple((f"p{i}", s.id) for i, s in enumerate(specs))
    used = [0] * len(specs)
    idents = []

    def take(i: int, incoming: bool) -> str:
        if specs[i].is_bundle:
            return "F0" if incoming else "F1"
        bid = specs[i].nontoroidal()[used[i]].id
        used[i] += 1
        return bid

    for i in range(len(specs) - 1):
        out_b = take(i, incoming=False)
        in_b = take(i + 1, incoming=True)
        idents.append(Identification(f"p{i}", out_b, f"p{i+1}", in_b, tmap(maps[i])))
    return GluingGraph(
        manifolds=tuple(dict.fromkeys(specs, None)),
        pieces=pieces,
        identifications=tuple(idents),
    ).validate()


ROOT = pathlib.Path(__file__).resolve().parents[1]


def load_module(relpath: str, name: str):
    """The module at ROOT / relpath, loaded under the given name; sys.path
    is restored after it ran."""
    spec = importlib.util.spec_from_file_location(name, ROOT / relpath)
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    saved = sys.path[:]
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved
    return module


EXAMPLE_GLUINGS = load_module("scripts/make_example_gluings.py", "make_example_gluings")
# left core at the axis origin, axis bundles at the given powers, and a
# right core one reflection beyond the last bundle
core_stack_core = EXAMPLE_GLUINGS.core_stack_core


def test_core_stack_core_matches_the_benchmark_builder():
    # the byte pins of the tests and the reference digests of the benchmark
    # hold the same stacks only while the two builders agree
    bench = load_module("perfbench/inputs.py", "perfbench_inputs")
    for ks in ([3], [8], [100, 1100], [2, 7, 13], list(range(50, 800, 50))):
        assert core_stack_core(ks).canonical_json() == bench.core_stack_core(ks).canonical_json()


# ----------------------------------------------------------- combine_stack


def test_single_bundle_certificate_trivial():
    x = core_stack_core([3])
    cert = combine_stack(x, ["p1"], 1, 6)
    # paper-style bundle: both pushed decorations coincide, so the
    # combined height is the internal span, here zero
    assert len(cert.nu) == 1
    assert cert.combined_height == 0
    assert cert.k_prime == Fraction(1)
    assert cert.ok


def test_single_bundle_with_span():
    b = bundle("B", MU, push(REFLECTION @ A.power(5)))
    x = chain(core("ML", MU), b, core("MR", push(A.power(5) @ REFLECTION)))
    cert = combine_stack(x, ["p1"], 1, 6)
    assert [str(m.payload) for m in cert.nu] == ["(0/1,inf)", "(55/34,89/55)"]
    assert cert.heights == (5,)
    assert cert.combined_height == 5
    assert cert.k_prime == Fraction(1)
    assert cert.lower_bound == Fraction(4)
    assert cert.fellow_traveling == 0
    assert cert.ok


def test_three_bundle_stack_exact_axis_march():
    x = core_stack_core([2, 7, 13], right_power=20)
    cert = combine_stack(x, ["p1", "p2", "p3"], 4, 6)
    assert [str(m.payload.base) for m in cert.nu] == ["3/2", "377/233", "121393/75025"]
    assert cert.heights == (5, 6)
    assert cert.combined_height == 11
    # the concatenation of axis geodesics is itself a geodesic
    assert cert.k_prime == Fraction(1)
    assert cert.lower_bound == Fraction(10)
    assert cert.fellow_traveling == 0
    assert cert.heights_ok and cert.projections_ok and cert.geodesics_ok
    assert cert.ok
    assert cert.witness is None
    # height floor failure carries the first offending step
    tight = combine_stack(x, ["p1", "p2", "p3"], 5, 6)
    assert not tight.heights_ok and tight.witness == ("height", 0)


def test_stack_condition_iii_backtracking_witness():
    # transport stays the identity (reflection exchange, reflection joints),
    # so the nu sequence is exactly the declared decorations: the second
    # point jumps far up the axis and the walk then backtracks to power 3
    b0 = bundle("B0", MU, push(REFLECTION @ A.power(12)))
    b1 = bundle("B1", push(A.power(3)), push(REFLECTION @ A.power(18)))
    x = chain(core("ML", MU), b0, b1, core("MR", push(A.power(18) @ REFLECTION)))
    cert = combine_stack(x, ["p1", "p2"], 1, 6)
    assert cert.heights == (12, 9, 15)
    expected = marking_to_path_distance(
        cert.nu[1], geodesic_between(cert.nu[0], cert.nu[2])
    )
    assert cert.geodesic_values[0] == expected == 9
    assert cert.heights_ok and cert.projections_ok and not cert.geodesics_ok
    assert cert.witness == ("geodesic", 1)
    assert not cert.ok
    # a milder backtrack clears all three conditions yet still fails the
    # certificate: the concatenated walk revisits axis vertices, so no
    # global quasigeodesic constant exists
    m0 = bundle("B0", MU, push(REFLECTION @ A.power(6)))
    m1 = bundle("B1", push(A.power(3)), push(REFLECTION @ A.power(9)))
    y = chain(core("ML", MU), m0, m1, core("MR", push(A.power(9) @ REFLECTION)))
    mild = combine_stack(y, ["p1", "p2"], 1, 6)
    assert mild.geodesic_values[0] == 3
    assert mild.heights_ok and mild.projections_ok and mild.geodesics_ok
    assert mild.k_prime is None and mild.lower_bound is None
    assert not mild.ok and mild.witness is None


def test_combine_stack_input_validation():
    x = core_stack_core([3])
    with pytest.raises(ValidationError, match="not an I-bundle"):
        combine_stack(x, ["p0"], 1, 6)
    with pytest.raises(ValidationError, match="empty stack"):
        combine_stack(x, [], 1, 6)
    y = chain(
        core("ML", MU),
        axis_bundle("B0", 2),
        core2("M", push(A.power(4) @ REFLECTION), push(A.power(4))),
        axis_bundle("B1", 3),
        core("MR", push(A.power(6) @ REFLECTION)),
    )
    with pytest.raises(ValidationError, match="not identified end-to-end"):
        combine_stack(y, ["p1", "p3"], 1, 6)
    with pytest.raises(ValidationError, match="positive integer"):
        combine_stack(x, ["p1"], 1, 0)


def test_combine_stack_backend_mismatch():
    from glueforge.hypgraph import cycle_graph

    h = BackendHandle.finite_graph(cycle_graph(6))
    gm = AbstractMarking(h, (0,))
    gb = DecoratedManifoldSpec(
        "GB",
        TRIVIAL_IBUNDLE,
        (
            BoundarySpec("F0", handle=h, decoration=gm),
            BoundarySpec("F1", handle=h, decoration=gm),
        ),
        bundle_map=SlotMap(h, perm=(0, 5, 4, 3, 2, 1)),
    )
    bridge = DecoratedManifoldSpec(
        "MIX",
        GENERIC,
        (
            BoundarySpec("E0", handle=T, decoration=MU),
            BoundarySpec("E1", handle=h, decoration=gm),
        ),
    )
    x = GluingGraph(
        manifolds=(axis_bundle("B0", 2), bridge, gb),
        pieces=(("p0", "B0"), ("p1", "MIX"), ("p2", "GB")),
        identifications=(
            Identification("p0", "F1", "p1", "E0", tmap(REFLECTION)),
            Identification("p1", "E1", "p2", "F0", SlotMap(h, perm=(0, 5, 4, 3, 2, 1))),
        ),
    ).validate()
    with pytest.raises(BackendMismatchError, match="different backends"):
        combine_stack(x, ["p0", "p2"], 1, 6)


def assert_stack_certificate_matches_oracles(x: GluingGraph, pieces: list[str]):
    """k' and the fellow-traveling constant against the all-pairs scan and
    the full scan; returns the certificate, whether the path holds a
    bridge, and the kind of path: "geodesic", "revisit", or "detour"
    (neither)."""
    cert = combine_stack(x, pieces, 1, 6)
    handle = cert.nu[0].handle
    path, reach = _stack_path(handle, cert.nu)
    k_prime = _k_prime(handle, path, reach)
    assert k_prime == all_pairs_k_prime(handle, path)
    assert cert.k_prime == k_prime
    kind = "revisit" if k_prime is None else "detour" if k_prime > 1 else "geodesic"
    direct = geodesic_between(cert.nu[0], cert.nu[-1])
    assert cert.fellow_traveling == full_fellow_traveling(handle, path, direct)
    segments = sum(len(geodesic_between(a, b)) - 1 for a, b in zip(cert.nu, cert.nu[1:]))
    return cert, len(path) - 1 > segments, kind


def random_torus_stack(rng: random.Random, k: int) -> GluingGraph:
    """k bundles whose decorations are pushed by seeded words, so that
    the stack path zigzags and often revisits a vertex."""
    from test_torus_kernels import random_map

    bundles = []
    for i in range(k):
        g = random_map(rng, rng.randrange(0, 8))
        twist = random_map(rng, rng.randrange(0, 3))
        bundles.append(bundle(f"B{i}", push(g), push(REFLECTION @ g @ twist)))
    return chain(core("ML", MU), *bundles, core("MR", push(random_map(rng, 5))))


def random_cycle_stack(rng: random.Random, n: int, k: int) -> GluingGraph:
    """k bundles over C_n glued by v -> -v, each decoration one to three
    vertices within distance 2, so that closest pairs of consecutive
    segments often land on different vertices of a marking."""
    from glueforge.hypgraph import cycle_graph

    h = BackendHandle.finite_graph(cycle_graph(n))
    flip = SlotMap(h, perm=tuple(-v % n for v in range(n)))

    def end(slot: str) -> BoundarySpec:
        v = rng.randrange(n)
        vertices = {(v + d) % n for d in rng.sample(range(3), rng.randrange(1, 4))}
        return BoundarySpec(slot, handle=h, decoration=AbstractMarking(h, tuple(sorted(vertices))))

    specs = [DecoratedManifoldSpec("ML", GENERIC, (end("E0"),))]
    for i in range(k):
        specs.append(
            DecoratedManifoldSpec(f"B{i}", TRIVIAL_IBUNDLE, (end("F0"), end("F1")), bundle_map=flip)
        )
    specs.append(DecoratedManifoldSpec("MR", GENERIC, (end("E0"),)))
    idents = [
        Identification(f"p{i}", "E0" if i == 0 else "F1", f"p{i + 1}", "F0" if i < k else "E0", flip)
        for i in range(k + 1)
    ]
    return GluingGraph(
        manifolds=tuple(specs),
        pieces=tuple((f"p{i}", spec.id) for i, spec in enumerate(specs)),
        identifications=tuple(idents),
    ).validate()


def wrap_cycle_stack(k: int) -> GluingGraph:
    """k bundles over C_(4k+6) glued by the identity, bundle i decorated at
    4i and 4i + 2: the stack path winds 4k - 2 steps forward without
    revisiting a vertex and ends 8 steps from its start, so K' = (4k - 2)/8."""
    from glueforge.hypgraph import cycle_graph

    n = 4 * k + 6
    h = BackendHandle.finite_graph(cycle_graph(n))
    same = SlotMap(h, perm=tuple(range(n)))

    def end(slot: str, v: int) -> BoundarySpec:
        return BoundarySpec(slot, handle=h, decoration=AbstractMarking(h, (v % n,)))

    specs = [DecoratedManifoldSpec("ML", GENERIC, (end("E0", -2),))]
    for i in range(k):
        specs.append(
            DecoratedManifoldSpec(
                f"B{i}", TRIVIAL_IBUNDLE, (end("F0", 4 * i), end("F1", 4 * i + 2)), bundle_map=same
            )
        )
    specs.append(DecoratedManifoldSpec("MR", GENERIC, (end("E0", 4 * k),)))
    idents = [
        Identification(f"p{i}", "E0" if i == 0 else "F1", f"p{i + 1}", "F0" if i < k else "E0", same)
        for i in range(k + 1)
    ]
    return GluingGraph(
        manifolds=tuple(specs),
        pieces=tuple((f"p{i}", spec.id) for i, spec in enumerate(specs)),
        identifications=tuple(idents),
    ).validate()


def test_stack_certificate_matches_all_pairs_oracles_on_torus_stacks():
    rng = random.Random(2718)
    seen = {"fellow": 0, "geodesic": 0, "revisit": 0, "detour": 0}
    for k in list(range(1, 7)) * 8:
        cert, _, kind = assert_stack_certificate_matches_oracles(
            random_torus_stack(rng, k), [f"p{i + 1}" for i in range(k)]
        )
        seen["fellow"] += cert.fellow_traveling > 0
        seen[kind] += 1
        assert (kind == "revisit") == (cert.k_prime is None)
    # axis stacks: one geodesic, fellow 0
    for ks in ([3], [2, 7, 13], [5, 9, 12, 30, 31, 40]):
        x = core_stack_core(ks, right_power=ks[-1] + 4)
        _, _, kind = assert_stack_certificate_matches_oracles(
            x, [f"p{i + 1}" for i in range(len(ks))]
        )
        assert kind == "geodesic"
    # the one-row test of a geodesic path and the pair scan both run
    assert seen["fellow"] >= 10 and seen["revisit"] >= 10, seen
    assert seen["geodesic"] >= 10 and seen["detour"] >= 1, seen


def test_stack_certificate_matches_all_pairs_oracles_on_graph_stacks():
    rng = random.Random(1618)
    bridged = 0
    kinds = {"geodesic": 0, "revisit": 0, "detour": 0}
    for _ in range(80):
        k = rng.randrange(1, 5)
        x = random_cycle_stack(rng, rng.randrange(5, 40), k)
        _, bridge, kind = assert_stack_certificate_matches_oracles(
            x, [f"p{i + 1}" for i in range(k)]
        )
        bridged += bridge
        kinds[kind] += 1
    assert bridged >= 10
    assert kinds["geodesic"] >= 10 and kinds["revisit"] >= 10 and kinds["detour"] >= 1, kinds


def test_stack_certificate_matches_all_pairs_oracles_on_deep_wrap_stacks():
    # seeded words of 10 to 30 bundles only revisit; a wrap stack is a
    # detour at every depth
    for k in (10, 20, 30):
        cert, _, kind = assert_stack_certificate_matches_oracles(
            wrap_cycle_stack(k), [f"p{i + 1}" for i in range(k)]
        )
        assert kind == "detour"
        assert cert.k_prime == Fraction(4 * k - 2, 8)


def test_k_prime_of_concatenated_geodesics():
    # [0,1,2,3] * [3,4] in the 6-cycle: endpoints at distance 2, length 4;
    # every step is its own piece, so every pair is measured
    from glueforge.hypgraph import cycle_graph

    h = BackendHandle.finite_graph(cycle_graph(6))
    assert _k_prime(h, [0, 1, 2, 3, 4], [1, 2, 3, 4, 4]) == 2
    assert _k_prime(h, [0, 1, 2, 3, 4], [3, 3, 3, 4, 4]) == 2
    geodesic = _k_prime(h, [0, 1, 2, 3], [1, 2, 3, 3])
    assert geodesic == 1 and type(geodesic) is int
    assert _k_prime(h, [5], [0]) == 1


def test_k_prime_is_none_on_a_revisit():
    from glueforge.hypgraph import cycle_graph

    h = BackendHandle.finite_graph(cycle_graph(6))
    assert _k_prime(h, [0, 1, 0], [1, 2, 2]) is None
    assert _k_prime(h, [0, 1, 2, 1, 2, 3], [2, 2, 3, 5, 5, 5]) is None


def test_collapse_measures_few_distance_targets(monkeypatch):
    # every geodesic piece of the path is known by its indices: the former
    # all-pairs rows sent 1,502,517 targets to the torus row here
    from glueforge import farey

    count = 0
    real = farey.distances_from

    def counting(a, targets, *neighbour):
        nonlocal count
        targets = list(targets)
        count += len(targets)
        return real(a, targets, *neighbour)

    monkeypatch.setattr(farey, "distances_from", counting)
    res = collapse_ibundles(core_stack_core([100, 1100]), 6, 1)
    assert res.ok
    assert count <= 4000


# --------------------------------------------------------------- collapse


def test_collapse_no_bundles_is_identity():
    x = chain(core("ML", MU), core("MR", push(REFLECTION)))
    res = collapse_ibundles(x, 6, 1)
    assert res.collapsed is x
    assert res.stacks == ()
    assert not res.fibered
    assert res.note == "no I-bundle pieces"


def test_collapse_single_bundle_frozen():
    x = core_stack_core([3], right_power=6)
    assert set(heights(x).values()) == {3}
    res = collapse_ibundles(x, 6, 1)
    assert not res.fibered and res.ok
    assert [p for p, _ in res.collapsed.pieces] == ["p0", "p2"]
    st = res.stacks[0]
    assert st.pieces == ("p1",)
    assert st.left == ("p0", "E0") and st.right == ("p2", "E0")
    assert st.new_identification is not None
    assert st.new_identification.map.matrix == REFLECTION
    # exact single-collapse height identity: the new tube spans both old
    # heights on the nose, 6 = 3 + 3
    assert st.new_height == 6
    assert st.sup_value == 2 and st.sup_ok
    assert res.r_prime == 5


def test_collapse_height_identity_equals_nu_distance():
    rng = random.Random(7)
    for _ in range(20):
        k = rng.randrange(1, 5)
        r_power = rng.randrange(2 * k, 2 * k + 6)
        x = core_stack_core([k], right_power=r_power)
        res = collapse_ibundles(x, 6, 0)
        st = res.stacks[0]
        # nu_0 = psi(mu_left), nu_1 = phi(psi(mu_right)) in the F0 frame
        nu0 = x.psi(("p1", "F0"))[1].apply(x.decoration(("p0", "E0")))
        nu1 = tmap(REFLECTION).apply(
            x.psi(("p1", "F1"))[1].apply(x.decoration(("p2", "E0")))
        )
        assert st.new_height == marking_distance(nu0, nu1)


def test_collapse_lower_bound_with_diameter_correction():
    # reverse triangle through the bundle decoration: with R the measured
    # geodesic proximity, the new height clears both old heights minus 2R
    # and the marking-diameter slack
    rng = random.Random(11)
    for _ in range(20):
        k = rng.randrange(0, 6)
        r_power = rng.randrange(2 * k + 1, 2 * k + 8)
        x = core_stack_core([k], right_power=r_power)
        res = collapse_ibundles(x, 6, 0)
        st = res.stacks[0]
        mu0 = x.decoration(("p1", "F0"))
        mu1 = tmap(REFLECTION).apply(x.decoration(("p1", "F1")))
        nu0 = x.psi(("p1", "F0"))[1].apply(x.decoration(("p0", "E0")))
        nu1 = tmap(REFLECTION).apply(
            x.psi(("p1", "F1"))[1].apply(x.decoration(("p2", "E0")))
        )
        r_c = max(
            marking_to_path_distance(m, geodesic_between(nu0, nu1)) for m in (mu0, mu1)
        )
        slack = marking_diameter(mu0, mu1)
        bound = (
            marking_distance(mu0, nu0) + marking_distance(mu0, nu1) - 2 * r_c - slack
        )
        assert st.new_height is not None and st.new_height >= bound


def test_collapse_two_stacks_and_correspondence():
    # two separate bundles hanging between three cores collapse to a
    # two-identification chain of cores
    x = chain(
        core("M0", MU),
        axis_bundle("B0", 2),
        DecoratedManifoldSpec(
            "M1",
            GENERIC,
            (
                BoundarySpec("E0", handle=T, decoration=push(A.power(4) @ REFLECTION)),
                BoundarySpec("E1", handle=T, decoration=push(A.power(5))),
            ),
        ),
        axis_bundle("B1", 7),
        core("M4", push(A.power(9) @ REFLECTION)),
    )
    res = collapse_ibundles(x, 6, 1)
    assert res.ok and not res.fibered
    assert [p for p, _ in res.collapsed.pieces] == ["p0", "p2", "p4"]
    assert len(res.collapsed.identifications) == 2
    assert [st.pieces for st in res.stacks] == [("p1",), ("p3",)]
    blob = res.to_json(emit_correspondence=True)
    assert blob["correspondence"] == [
        {"stack": ["p1"], "slots": ["p0:E0", "p2:E0"]},
        {"stack": ["p3"], "slots": ["p2:E1", "p4:E0"]},
    ]
    assert "correspondence" not in res.to_json()
    again = collapse_ibundles(res.collapsed, 6, 1)
    assert again.collapsed == res.collapsed


def test_collapse_multi_bundle_stack_heights():
    x = core_stack_core([2, 7], right_power=14)
    res = collapse_ibundles(x, 6, 4)
    st = res.stacks[0]
    assert st.pieces == ("p1", "p2")
    assert st.certificate.heights == (5,)
    assert st.certificate.combined_height == 5
    assert st.certificate.ok
    # outer junction heights were 2 and 2|14-14|... exact recomputation:
    assert st.new_height == marking_distance(
        MU, st.new_identification.map.inverse().apply(x.decoration(("p3", "E0")))
    )
    assert res.ok


def test_collapse_unburied_end_pushes_free_marking():
    b = axis_bundle("B", 2)
    lam = push(A.power(3))
    x = GluingGraph(
        manifolds=(core("M", MU), b),
        pieces=(("p0", "M"), ("p1", "B")),
        identifications=(Identification("p0", "E0", "p1", "F0", tmap(REFLECTION)),),
        boundary_markings=((("p1", "F1"), lam),),
    ).validate()
    res = collapse_ibundles(x, 6, 1)
    st = res.stacks[0]
    assert st.new_identification is None
    assert st.new_marking is not None
    slot, pushed = st.new_marking
    assert slot == ("p0", "E0")
    # lambda travels through the exchange map and back out the joint
    m_left = x.psi(("p1", "F0"))[1]
    assert pushed == m_left.inverse().compose(tmap(REFLECTION)).apply(lam)
    assert pushed == lam
    assert res.collapsed.lam(("p0", "E0")) == pushed
    assert not res.collapsed.is_buried(("p0", "E0"))


def twisted_end() -> GluingGraph:
    cover = CoverData(
        mu0=push(A.power(2)),
        mu1=push(A.power(2)),
        lift0=tmap(IDENTITY),
        lift1=tmap(IDENTITY),
        phi=tmap(REFLECTION),
    )
    tw = DecoratedManifoldSpec(
        "W",
        TWISTED_IBUNDLE,
        (BoundarySpec("F0", handle=T, decoration=push(A.power(2))),),
        bundle_map=tmap(REFLECTION),
        cover=cover,
    )
    return GluingGraph(
        manifolds=(core("M", MU), tw),
        pieces=(("p0", "M"), ("w", "W")),
        identifications=(Identification("p0", "E0", "w", "F0", tmap(REFLECTION)),),
    ).validate()


def test_collapse_twisted_end_self_identification():
    res = collapse_ibundles(twisted_end(), 6, 1)
    st = res.stacks[0]
    assert st.certificate.twisted_note == "twisted end w certified in its declared double cover"
    ident = st.new_identification
    assert ident is not None and ident.slot_a == ident.slot_b == ("p0", "E0")
    assert ident.map.matrix.det == -1 and ident.map.is_involution()
    assert [p for p, _ in res.collapsed.pieces] == ["p0"]
    # without cover data the stack cannot be certified
    bare = DecoratedManifoldSpec(
        "W",
        TWISTED_IBUNDLE,
        (BoundarySpec("F0", handle=T, decoration=push(A.power(2))),),
        bundle_map=tmap(REFLECTION),
    )
    y = GluingGraph(
        manifolds=(core("M", MU), bare),
        pieces=(("p0", "M"), ("w", "W")),
        identifications=(Identification("p0", "E0", "w", "F0", tmap(REFLECTION)),),
    ).validate()
    with pytest.raises(ValidationError, match="twisted piece without cover data"):
        collapse_ibundles(y, 6, 1)


def folded_end() -> GluingGraph:
    # a trivial bundle whose far slot is self-glued acts as a twisted end
    b = bundle("B", mk("1/1", "1/0"), mk("1/1", "1/0"))
    return GluingGraph(
        manifolds=(core("M", MU), b),
        pieces=(("p0", "M"), ("w", "B")),
        identifications=(
            Identification("p0", "E0", "w", "F0", tmap(REFLECTION)),
            Identification("w", "F1", "w", "F1", tmap(REFLECTION)),
        ),
    ).validate()


def test_collapse_folded_bundle_slot():
    res = collapse_ibundles(folded_end(), 6, 0)
    ident = res.stacks[0].new_identification
    assert ident is not None and ident.slot_a == ident.slot_b == ("p0", "E0")
    assert ident.map.is_involution()
    assert [p for p, _ in res.collapsed.pieces] == ["p0"]


FIBERED_GLUE = SurfaceMap(13, 8, 8, 5) @ REFLECTION


def fibered_self_glued() -> GluingGraph:
    return GluingGraph(
        manifolds=(bundle("B", MU, MU),),
        pieces=(("b0", "B"),),
        identifications=(Identification("b0", "F0", "b0", "F1", tmap(FIBERED_GLUE)),),
    ).validate()


def test_collapse_fibered_self_glued_bundle():
    res = collapse_ibundles(fibered_self_glued(), 6, 1)
    assert res.fibered
    assert "self-glued" in res.note
    assert len(res.collapsed.pieces) == 1
    ident = res.collapsed.identifications[0]
    assert ident.map.matrix == FIBERED_GLUE
    assert res.stacks[0].new_height == heights(res.collapsed)[ident.slot_a]


def fibered_cycle() -> GluingGraph:
    bundles = [axis_bundle(f"B{i}", k) for i, k in enumerate([1, 3, 6])]
    idents = [
        Identification(f"b{i}", "F1", f"b{(i + 1) % 3}", "F0", tmap(REFLECTION))
        for i in range(3)
    ]
    return GluingGraph(
        manifolds=tuple(bundles),
        pieces=tuple((f"b{i}", f"B{i}") for i in range(3)),
        identifications=tuple(idents),
    ).validate()


def test_collapse_fibered_cycle_combines_monodromy():
    res = collapse_ibundles(fibered_cycle(), 6, 1)
    assert res.fibered
    assert len(res.collapsed.pieces) == 1
    pid = res.collapsed.pieces[0][0]
    assert pid == "b0+b1+b2"
    spec = res.collapsed.spec_of(pid)
    assert spec.kind == TRIVIAL_IBUNDLE
    assert spec.bundle_map is not None and spec.bundle_map.matrix.det == -1
    assert len(res.collapsed.identifications) == 1


def fibered_open_chain() -> GluingGraph:
    return chain(axis_bundle("B0", 1), axis_bundle("B1", 3))


def test_collapse_fibered_open_chain():
    res = collapse_ibundles(fibered_open_chain(), 6, 1)
    assert res.fibered
    assert "open bundle chain" in res.note
    assert len(res.collapsed.pieces) == 1
    assert res.collapsed.identifications == ()
    assert res.stacks[0].new_identification is None


def fibered_twisted() -> GluingGraph:
    cover = CoverData(MU, MU, tmap(IDENTITY), tmap(IDENTITY), tmap(REFLECTION))
    tw = DecoratedManifoldSpec(
        "W",
        TWISTED_IBUNDLE,
        (BoundarySpec("F0", handle=T, decoration=MU),),
        bundle_map=tmap(REFLECTION),
        cover=cover,
    )
    return GluingGraph(
        manifolds=(axis_bundle("B0", 2), tw),
        pieces=(("b0", "B0"), ("w", "W")),
        identifications=(Identification("b0", "F1", "w", "F0", tmap(REFLECTION)),),
    ).validate()


def test_collapse_fibered_twisted_left_alone():
    x = fibered_twisted()
    res = collapse_ibundles(x, 6, 1)
    assert res.fibered
    assert res.collapsed is x
    assert "twisted bundle" in res.note


def test_collapse_compressible_neighbor_excess():
    ds = DiskSet(T, (Slope(0, 1),), owner="E0")
    left = DecoratedManifoldSpec(
        "ML",
        GENERIC,
        (BoundarySpec("E0", handle=T, decoration=MU, compressible=True, disks=ds),),
    )
    x = chain(left, axis_bundle("B", 3), core("MR", push(A.power(6) @ REFLECTION)))
    res = collapse_ibundles(x, 6, 1)
    st = res.stacks[0]
    assert len(st.clause_b_excesses) == 1
    name, excess = st.clause_b_excesses[0]
    assert name == "p0:E0"
    # the new induced marking is an axis point at distance 6, and the
    # meridian 0/1 sits in the left decoration, so the excess is 6 - 6 = 0
    assert excess == st.new_height - 6 == 0
    assert res.r_prime >= excess


# gluing and exchange maps that are not involutions (determinant -1,
# nonzero trace), so a map and its inverse, or a conjugation and its
# reverse, give different results
SKEW_1 = SurfaceMap(1, 1, 1, 0)
SKEW_2 = SurfaceMap(2, 1, 1, 0)
SKEW_3 = SurfaceMap(0, 1, 1, 2)


def skew_bundle(mid: str, k: int, exchange: SurfaceMap) -> DecoratedManifoldSpec:
    return DecoratedManifoldSpec(
        mid,
        TRIVIAL_IBUNDLE,
        (
            BoundarySpec("F0", handle=T, decoration=push(A.power(k))),
            BoundarySpec("F1", handle=T, decoration=push(exchange.inverse() @ A.power(k))),
        ),
        bundle_map=tmap(exchange),
    )


def skew_twisted_end() -> GluingGraph:
    """Core p0, trivial bundle b, twisted end w; no map but the twisted
    piece's exchange is an involution."""
    dec = push(A.power(4))
    cover = CoverData(dec, dec, tmap(IDENTITY), tmap(IDENTITY), tmap(REFLECTION))
    tw = DecoratedManifoldSpec(
        "W",
        TWISTED_IBUNDLE,
        (BoundarySpec("F0", handle=T, decoration=dec),),
        bundle_map=tmap(REFLECTION),
        cover=cover,
    )
    return GluingGraph(
        manifolds=(core("M", MU), skew_bundle("B", 2, SKEW_2), tw),
        pieces=(("p0", "M"), ("b", "B"), ("w", "W")),
        identifications=(
            Identification("p0", "E0", "b", "F0", tmap(SKEW_1)),
            Identification("b", "F1", "w", "F0", tmap(SKEW_3)),
        ),
    ).validate()


def test_collapse_skew_twisted_end_conjugates_the_fold():
    for f in (SKEW_1, SKEW_2, SKEW_3):
        assert f.det == -1 and not f.is_involution()
    res = collapse_ibundles(skew_twisted_end(), 6, 1)
    ident = res.stacks[0].new_identification
    assert ident is not None and ident.slot_a == ident.slot_b == ("p0", "E0")
    # p0:E0 data reaches the fold in w:F0 through SKEW_1 into b:F0, the
    # inverse exchange across b, and SKEW_3 into w:F0; the new self-gluing
    # folds there and comes back the same way
    up = SKEW_3 @ SKEW_2.inverse() @ SKEW_1
    assert ident.map.matrix == up.inverse() @ REFLECTION @ up
    assert ident.map.matrix != up @ REFLECTION @ up.inverse()
    assert [p for p, _ in res.collapsed.pieces] == ["p0"]


def skew_fibered_chain() -> GluingGraph:
    return GluingGraph(
        manifolds=(skew_bundle("B0", 1, SKEW_2), skew_bundle("B1", 3, SKEW_3)),
        pieces=(("b0", "B0"), ("b1", "B1")),
        identifications=(Identification("b0", "F1", "b1", "F0", tmap(SKEW_1)),),
    ).validate()


def test_collapse_skew_fibered_chain_composes_the_exchange():
    x = skew_fibered_chain()
    res = collapse_ibundles(x, 6, 1)
    assert res.fibered and "open bundle chain" in res.note
    spec = res.collapsed.spec_of("b0+b1")
    assert spec.id == "B[b0+b1]"
    # the combined exchange pushes the far end's chart (b1:F1) onto the
    # entry chart (b0:F0): across b1, back over the joint, across b0
    total = SKEW_2 @ SKEW_1.inverse() @ SKEW_3
    assert spec.bundle_map is not None
    assert spec.bundle_map.matrix == total
    assert spec.bundle_map.matrix != total.inverse()
    assert spec.boundary("F0").decoration == x.decoration(("b0", "F0"))
    assert spec.boundary("F1").decoration == x.decoration(("b1", "F1"))


def test_collapse_builds_induced_markings_once(monkeypatch):
    import glueforge.gluing
    import glueforge.transforms

    calls = []
    real = glueforge.gluing.induced_markings

    def counted(x):
        calls.append(x)
        return real(x)

    monkeypatch.setattr(glueforge.gluing, "induced_markings", counted)
    monkeypatch.setattr(glueforge.transforms, "induced_markings", counted)
    res = collapse_ibundles(example_builders()["stack"](), 6, 1)
    assert calls == [res.collapsed]
    assert res.r_prime == measured_r_bound(res.collapsed)


def test_measured_r_bound_frozen():
    x = core_stack_core([3], right_power=6)
    assert measured_r_bound(x) == 5
    res = collapse_ibundles(x, 6, 1)
    assert measured_r_bound(res.collapsed) == res.r_prime == 5


def example_builders() -> dict:
    """The builders of scripts/make_example_gluings.py, by example name."""
    return {name: build for name, build, _, _ in EXAMPLE_GLUINGS.EXAMPLES}


# sha256 of the canonical collapse report (CLI defaults R = 6, h = 1, with
# the correspondence) for the six example gluings and the fixtures above;
# any change to these bytes is a report schema change
COLLAPSE_REPORT_SHA256 = {
    "chain": "e40b4c9a992c68a45a915d80f4101dfc8a8c402ec6cfd064bf7e68f566591964",
    "stack": "57455ef08636dae3b9d105016aa0f1ac15940bc3c130ea646479b28171a6b764",
    "twisted": "1f02b4318e8c0d92fdb69923b54050820e16a64c9d3178b7df5f08e4b400066c",
    "compression": "f8101b8498fd5d374bdc21069344b3ba4ac793e071832b79b0053849dc32be38",
    "thin": "fd823c370482f61a98be976eab4167642ac119827de7ad71b07d6cbc7674877c",
    "fibered": "8d401c0d72d648ae490dbd0fe580b7b5d2241d0174b901f872cc3227211fb80d",
    "fibered-cycle": "7bc05019f056cf4c341329c0126705b8f80e2454aa8d5961c53877b2251b6373",
    "fibered-open": "e910073a94a5b6943b405ce5c0413ba0f404a40d2c0b4d1ad56b8afad804d821",
    "fibered-twisted": "257640c4101df9dbbc338c9483e25192572d4f33efbdcc3a87cf3f70617e2f92",
    "twisted-end": "d07f20ed19aabf4017240fdc1f7568861a78af2cec14111280b7fbf2acab7be9",
    "folded": "402a3fab893c7413f9412fc57f28de268329977547eba0648b9df7ad67e007eb",
    "fibered-self": "bd10867a097aa23f4f447b954482769fa2b3876c06fb1de432105b7fcd784cba",
}
COLLAPSE_FIXTURES = {
    "fibered-cycle": fibered_cycle,
    "fibered-open": fibered_open_chain,
    "fibered-twisted": fibered_twisted,
    "twisted-end": twisted_end,
    "folded": folded_end,
    "fibered-self": fibered_self_glued,
}


@pytest.mark.parametrize("name", list(COLLAPSE_REPORT_SHA256))
def test_collapse_report_bytes_pinned(name):
    build = COLLAPSE_FIXTURES.get(name) or example_builders()[name]
    res = collapse_ibundles(build(), 6, 1)
    text = canonical_dumps(res.to_json(emit_correspondence=True))
    assert sha256_of_text(text) == COLLAPSE_REPORT_SHA256[name]


# ------------------------------------------------------------- compression


def body_spec(mid: str, meridian: str = "0/1", extra: int = 1) -> DecoratedManifoldSpec:
    ds = DiskSet(T, (parse_slope(meridian),), owner="E0")
    bs = [BoundarySpec("E0", handle=T, decoration=MU, compressible=True, disks=ds)]
    for i in range(extra):
        bs.append(BoundarySpec(f"E{i+1}", handle=T, decoration=mk("1/1", "1/0")))
    return DecoratedManifoldSpec(mid, COMPRESSION_BODY, tuple(bs))


def test_build_compression_basic():
    base = DecoratedManifoldSpec(
        "M",
        GENERIC,
        (
            BoundarySpec("E0", handle=T, decoration=MU),
            BoundarySpec("E1", handle=T, decoration=mk("1/1", "1/0")),
        ),
    )
    assert build_compression(base, []).pieces == (("p0", "M"),)
    one = build_compression(
        base,
        [CompressionStep("c0", body_spec("C"), ("p0", "E0"), tmap(REFLECTION))],
    )
    assert [p for p, _ in one.pieces] == ["p0", "c0"]
    assert one.is_buried(("p0", "E0")) and not one.is_buried(("p0", "E1"))
    # chaining onto the new body's interior boundary
    two = build_compression(
        base,
        [
            CompressionStep("c0", body_spec("C"), ("p0", "E0"), tmap(REFLECTION)),
            CompressionStep("c1", body_spec("C2"), ("c0", "E1"), tmap(REFLECTION)),
        ],
    )
    assert len(two.pieces) == 3 and two.is_buried(("c0", "E1"))


def test_build_compression_errors():
    base = core("M", MU)
    step = CompressionStep("c0", body_spec("C"), ("p0", "E0"), tmap(REFLECTION))
    with pytest.raises(ValidationError, match="buried slot p0:E0"):
        build_compression(
            base,
            [step, CompressionStep("c1", body_spec("C2"), ("p0", "E0"), tmap(REFLECTION))],
        )
    with pytest.raises(ValidationError, match="unknown attachment slot"):
        build_compression(
            base, [CompressionStep("c0", body_spec("C"), ("p0", "E9"), tmap(REFLECTION))]
        )
    with pytest.raises(ValidationError, match="budget exceeded: 2"):
        build_compression(
            base,
            [
                step,
                CompressionStep("c1", body_spec("C2"), ("c0", "E1"), tmap(REFLECTION)),
            ],
            budget=2,
        )
    with pytest.raises(ValidationError, match="not a compression body"):
        CompressionStep("c0", core("N", MU), ("p0", "E0"), tmap(REFLECTION))


# ----------------------------------------------------------- decomposition


def test_decomposition_no_compressible_slots():
    x = chain(core("M0", MU), core("M1", push(REFLECTION)))
    res = full_and_maximal_decomposition(x)
    assert res.full == x
    assert [c.pieces for c in res.components] == [("p0",), ("p1",)]
    assert all(c.kind == "compression-of-core" for c in res.components)
    assert res.cut == x.identifications
    assert res.reglue() == x


def test_decomposition_core_plus_body():
    x = build_compression(
        core("M", MU),
        [CompressionStep("c0", body_spec("C"), ("p0", "E0"), tmap(REFLECTION))],
    )
    res = full_and_maximal_decomposition(x)
    assert len(res.components) == 1
    comp = res.components[0]
    assert comp.pieces == ("c0", "p0")
    assert comp.kind == "compression-of-core"
    assert res.cut == ()
    assert res.reglue() == x


def test_decomposition_exterior_to_exterior_chain():
    a = body_spec("CA")
    b = body_spec("CB")
    x = GluingGraph(
        manifolds=(a, b),
        pieces=(("p0", "CA"), ("p1", "CB")),
        identifications=(Identification("p0", "E0", "p1", "E0", tmap(REFLECTION)),),
    ).validate()
    res = full_and_maximal_decomposition(x)
    assert len(res.components) == 1
    assert res.components[0].kind == "compression-body-chain"
    assert res.components[0].pieces == ("p0", "p1")


def test_decomposition_interior_contact_is_cut():
    # the body's interior boundary touching a core is not a compression
    # surface: the identification lands in the cut list
    body = body_spec("C")
    x = GluingGraph(
        manifolds=(body, core("M", MU)),
        pieces=(("c0", "C"), ("p0", "M")),
        identifications=(Identification("c0", "E1", "p0", "E0", tmap(REFLECTION)),),
    ).validate()
    res = full_and_maximal_decomposition(x)
    assert [c.pieces for c in res.components] == [("c0",), ("p0",)]
    assert [c.kind for c in res.components] == [
        "compression-body-chain",
        "compression-of-core",
    ]
    assert len(res.cut) == 1
    assert res.cut_slots() == ((("c0", "E1"), ("p0", "E0")),)


def split_spec() -> tuple[DecoratedManifoldSpec, ...]:
    """A two-boundary piece declared as core + compression body, the core
    owning E0 and the body owning E1 through its interior."""
    inner_core = DecoratedManifoldSpec(
        "KC",
        GENERIC,
        (
            BoundarySpec("B0", handle=T, decoration=MU),
            BoundarySpec("B1", handle=T, decoration=mk("1/1", "1/0")),
        ),
    )
    inner_body = body_spec("KB")
    split = Splitting(
        pieces=(
            SubPiece("core", "KC", (("E0", "B0"),)),
            SubPiece("body", "KB", (("E1", "E1"),)),
        ),
        identifications=(("core", "B1", "body", "E0", "[[1, 0], [0, -1]]"),),
    )
    outer = DecoratedManifoldSpec(
        "M",
        GENERIC,
        (
            BoundarySpec("E0", handle=T, decoration=MU),
            BoundarySpec("E1", handle=T, decoration=mk("1/1", "1/0")),
        ),
        splitting=split,
    )
    return outer, inner_core, inner_body


def split_gluing() -> GluingGraph:
    """The split piece of split_spec glued to a core along E0, with a free
    marking on E1."""
    outer, inner_core, inner_body = split_spec()
    return GluingGraph(
        manifolds=(outer, inner_core, inner_body, core("N", push(REFLECTION))),
        pieces=(("p0", "M"), ("p1", "N")),
        identifications=(Identification("p0", "E0", "p1", "E0", tmap(REFLECTION)),),
        boundary_markings=((("p0", "E1"), mk("2/1", "3/1")),),
    ).validate()


def test_decomposition_expands_declared_splitting():
    x = split_gluing()
    res = full_and_maximal_decomposition(x)
    assert [p for p, _ in res.full.pieces] == ["p0/core", "p0/body", "p1"]
    # the internal identification glues the body's exterior: kept
    assert len(res.components) == 2
    joined = next(c for c in res.components if len(c.pieces) == 2)
    assert joined.pieces == ("p0/body", "p0/core")
    assert joined.kind == "compression-of-core"
    # the external identification touches no exterior: cut
    assert len(res.cut) == 1
    assert res.cut[0].slot_a == ("p0/core", "B0")
    assert res.full.lam(("p0/body", "E1")) == mk("2/1", "3/1")
    assert res.reglue() == res.full
    # partition: every identification of the full graph in exactly one bucket
    buckets = [i for c in res.components for i in c.identifications] + list(res.cut)
    assert sorted(map(id, buckets)) == sorted(map(id, res.full.identifications))


def test_decomposition_splitting_errors():
    outer, inner_core, inner_body = split_spec()
    x = GluingGraph(
        manifolds=(outer, inner_core),
        pieces=(("p0", "M"),),
        identifications=(),
    )
    with pytest.raises(ValidationError, match="references unknown manifold KB"):
        full_and_maximal_decomposition(x)
    bad_split = Splitting(
        pieces=(SubPiece("core", "KC", (("E0", "B0"),)),),
        identifications=(),
    )
    y = GluingGraph(
        manifolds=(
            DecoratedManifoldSpec(
                "M",
                GENERIC,
                (
                    BoundarySpec("E0", handle=T, decoration=MU),
                    BoundarySpec("E1", handle=T, decoration=mk("1/1", "1/0")),
                ),
                splitting=bad_split,
            ),
            inner_core,
        ),
        pieces=(("p0", "M"),),
        identifications=(),
    )
    with pytest.raises(ValidationError, match="leaves boundary E1 unplaced"):
        full_and_maximal_decomposition(y)


def test_split_spec_records_hash_and_keep_their_bytes():
    outer = split_spec()[0]
    assert hash(outer) == hash(split_spec()[0])
    # the internal map is stored as JSON text and written back as the JSON it was
    assert outer.splitting.to_json()["identifications"][0]["map"] == [[1, 0], [0, -1]]
    text = canonical_dumps(outer.to_json())
    again = DecoratedManifoldSpec.from_json(json.loads(text))
    assert again == outer and hash(again) == hash(outer)
    assert canonical_dumps(again.to_json()) == text
    graph_map = {"perm": [0, 2, 1], "reverses_orientation": True}
    split = Splitting(outer.splitting.pieces, (("core", "B1", "body", "E0", json.dumps(graph_map)),))
    assert replace(split) == split and hash(replace(split)) == hash(split)
    assert split.to_json()["identifications"][0]["map"] == graph_map
    assert Splitting.from_json(split.to_json()) == split
    # key order is part of the stored text, as it is of the input
    record = split.to_json()
    record["identifications"][0]["map"] = dict(reversed(graph_map.items()))
    assert Splitting.from_json(record) != split
    x = split_gluing()
    assert hash(x) == hash(GluingGraph.from_json(json.loads(x.canonical_json())))


def test_decomposition_random_partition_exactness():
    rng = random.Random(23)
    for _ in range(15):
        specs: list[DecoratedManifoldSpec] = [core("M0", MU)]
        steps = []
        n = rng.randrange(1, 4)
        for i in range(n):
            steps.append(
                CompressionStep(
                    f"c{i}",
                    body_spec(f"C{i}", extra=rng.randrange(1, 3)),
                    ("p0", "E0") if i == 0 else (f"c{i-1}", "E1"),
                    tmap(REFLECTION),
                )
            )
        x = build_compression(specs[0], steps, budget=len(steps) + 1)
        res = full_and_maximal_decomposition(x)
        buckets = [i for c in res.components for i in c.identifications] + list(res.cut)
        assert sorted(map(id, buckets)) == sorted(map(id, res.full.identifications))
        assert sorted(p for c in res.components for p in c.pieces) == sorted(
            p for p, _ in res.full.pieces
        )
        assert res.reglue() == res.full


# --------------------------------------------------- mini stack properties


def test_core_stack_core_certificate_suite():
    # smaller preview of the acceptance sweep: certificates hold on
    # axis-generated stacks of every length
    rng = random.Random(2026)
    for _ in range(20):
        n = rng.randrange(1, 5)
        ks = []
        cur = 0
        for _ in range(n):
            cur += rng.randrange(2, 7)
            ks.append(cur)
        x = core_stack_core(ks, right_power=2 * ks[-1] + rng.randrange(0, 4))
        res = collapse_ibundles(x, 6, 1)
        st = res.stacks[0]
        cert = st.certificate
        assert cert.k_prime is not None
        assert Fraction(cert.combined_height) >= cert.lower_bound
        assert st.sup_value <= 2 * 6 + 2
        assert res.ok
