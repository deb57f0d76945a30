"""Gluing data-model tests: validation diagnostics, induced markings,
heights, and the clause-by-clause certificate engine."""

import json
import random

import pytest

from glueforge import surface
from glueforge.certify import CombinatoricsCertificate, check_bounded_combinatorics
from glueforge.errors import BackendMismatchError, ParseError, ValidationError
from glueforge.farey import farey_distance
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
    heights,
    induced_markings,
    validate_gluing,
)
from glueforge.hypgraph import FiniteGraph, cycle_graph, path_graph
from glueforge.surface import (
    AbstractMarking,
    BackendHandle,
    DiskSet,
    marking_distance,
)
from glueforge.torus import (
    IDENTITY,
    INFINITY,
    REFLECTION,
    FareyMarking,
    Slope,
    SurfaceMap,
    parse_slope,
)
from glueforge.transforms import collapse_ibundles
from oracles import relabel

T = BackendHandle.torus()
T_MAP = SurfaceMap(1, 1, 0, 1)
L_MAP = SurfaceMap(1, 0, 1, 1)


def mk(base: str, transversal: str) -> AbstractMarking:
    return AbstractMarking(T, FareyMarking(parse_slope(base), parse_slope(transversal)))


M_BASE = mk("0/1", "1/0")


def rand_word(rng: random.Random, length: int, orientation_preserving: bool = True) -> SurfaceMap:
    m = IDENTITY
    for _ in range(rng.randrange(1, length + 1)):
        m = m @ rng.choice([T_MAP, L_MAP, T_MAP.inverse(), L_MAP.inverse()])
    if rng.random() < 0.25:
        m = m @ SurfaceMap(-1, 0, 0, -1)
    if not orientation_preserving and rng.random() < 0.5:
        m = m @ REFLECTION
    return m


def tmap(matrix: SurfaceMap) -> SlotMap:
    return SlotMap(T, matrix=matrix)


def core(mid: str, *decorations: AbstractMarking, disks=None) -> DecoratedManifoldSpec:
    """Generic piece with one boundary per decoration; disks maps boundary
    index -> DiskSet elements."""
    disks = disks or {}
    bs = []
    for i, dec in enumerate(decorations):
        elems = disks.get(i)
        if elems is None:
            bs.append(BoundarySpec(f"E{i}", handle=T, decoration=dec))
        else:
            ds = DiskSet(T, tuple(elems), owner=f"E{i}")
            bs.append(
                BoundarySpec(f"E{i}", handle=T, decoration=dec, compressible=True, disks=ds)
            )
    return DecoratedManifoldSpec(mid, GENERIC, tuple(bs))


def bundle(mid: str, mu0: AbstractMarking, mu1: AbstractMarking, phi=REFLECTION) -> DecoratedManifoldSpec:
    return DecoratedManifoldSpec(
        mid,
        TRIVIAL_IBUNDLE,
        (
            BoundarySpec("F0", handle=T, decoration=mu0),
            BoundarySpec("F1", handle=T, decoration=mu1),
        ),
        bundle_map=tmap(phi),
    )


def two_piece_gluing(psi: SurfaceMap, mu0=M_BASE, mu1=M_BASE) -> GluingGraph:
    """Two generic one-boundary pieces identified by psi (p0 chart to p1)."""
    return GluingGraph(
        manifolds=(core("M0", mu0), core("M1", mu1)),
        pieces=(("p0", "M0"), ("p1", "M1")),
        identifications=(Identification("p0", "E0", "p1", "E0", tmap(psi)),),
    ).validate()


# ------------------------------------------------------ boundary specs


def test_boundary_spec_validation():
    with pytest.raises(ValidationError, match="cannot carry a chart"):
        BoundarySpec("T0", handle=T, toroidal=True)
    with pytest.raises(ValidationError, match="needs a backend"):
        BoundarySpec("E0")
    graph_marking = AbstractMarking(BackendHandle.finite_graph(cycle_graph(6)), (0,))
    with pytest.raises(ValidationError, match="wrong backend"):
        BoundarySpec("E0", handle=T, decoration=graph_marking)
    with pytest.raises(ValidationError, match="non-empty iff compressible"):
        BoundarySpec("E0", handle=T, decoration=M_BASE, compressible=True)
    with pytest.raises(ValidationError, match="non-empty iff compressible"):
        BoundarySpec(
            "E0",
            handle=T,
            decoration=M_BASE,
            disks=DiskSet(T, (Slope(0, 1),)),
        )
    plain = BoundarySpec("E0", handle=T, decoration=M_BASE)
    assert plain.disks is not None and plain.disks.is_empty
    assert plain.disks.owner == "E0"


def test_manifold_kind_invariants():
    with pytest.raises(ValidationError, match="unknown manifold kind"):
        DecoratedManifoldSpec("M", "banana", (BoundarySpec("E0", handle=T, decoration=M_BASE),))
    with pytest.raises(ValidationError, match="repeats a boundary id"):
        DecoratedManifoldSpec(
            "M",
            GENERIC,
            (
                BoundarySpec("E0", handle=T, decoration=M_BASE),
                BoundarySpec("E0", handle=T, decoration=M_BASE),
            ),
        )
    with pytest.raises(ValidationError, match="non-toroidal boundary"):
        DecoratedManifoldSpec("M", GENERIC, (BoundarySpec("T0", toroidal=True),))
    with pytest.raises(ValidationError, match="references unknown boundary"):
        DecoratedManifoldSpec(
            "M",
            GENERIC,
            (BoundarySpec("E0", handle=T, decoration=M_BASE),),
            disk_records=(("E7",),),
        )
    with pytest.raises(ValidationError, match="only bundles carry"):
        DecoratedManifoldSpec(
            "M",
            GENERIC,
            (BoundarySpec("E0", handle=T, decoration=M_BASE),),
            bundle_map=tmap(REFLECTION),
        )


def test_bundle_kind_invariants():
    b0 = BoundarySpec("F0", handle=T, decoration=M_BASE)
    b1 = BoundarySpec("F1", handle=T, decoration=M_BASE)
    with pytest.raises(ValidationError, match="exactly two non-toroidal"):
        DecoratedManifoldSpec("B", TRIVIAL_IBUNDLE, (b0,), bundle_map=tmap(REFLECTION))
    with pytest.raises(ValidationError, match="needs an exchange map"):
        DecoratedManifoldSpec("B", TRIVIAL_IBUNDLE, (b0, b1))
    with pytest.raises(ValidationError, match="must reverse orientation"):
        DecoratedManifoldSpec("B", TRIVIAL_IBUNDLE, (b0, b1), bundle_map=tmap(IDENTITY))
    ok = bundle("B", M_BASE, M_BASE)
    assert ok.is_bundle
    # twisted: single boundary, exchange an orientation-reversing involution
    with pytest.raises(ValidationError, match="exactly one non-toroidal"):
        DecoratedManifoldSpec("B", TWISTED_IBUNDLE, (b0, b1), bundle_map=tmap(REFLECTION))
    with pytest.raises(ValidationError, match="involution"):
        # det -1 but trace 8, so its square is not central
        DecoratedManifoldSpec(
            "B", TWISTED_IBUNDLE, (b0,), bundle_map=tmap(SurfaceMap(13, 8, 8, 5) @ REFLECTION)
        )
    tw = DecoratedManifoldSpec("B", TWISTED_IBUNDLE, (b0,), bundle_map=tmap(REFLECTION))
    assert tw.is_bundle


def test_compression_body_invariants():
    ds = DiskSet(T, (Slope(0, 1),), owner="E0")
    exterior = BoundarySpec("E0", handle=T, decoration=M_BASE, compressible=True, disks=ds)
    interior = BoundarySpec("E1", handle=T, decoration=M_BASE)
    body = DecoratedManifoldSpec("C", COMPRESSION_BODY, (exterior, interior))
    assert body.exterior_boundary().id == "E0"
    with pytest.raises(ValidationError, match="exactly one compressible"):
        DecoratedManifoldSpec("C", COMPRESSION_BODY, (interior,))
    with pytest.raises(ValidationError, match="not a compression body"):
        core("M", M_BASE).exterior_boundary()


# ----------------------------------------------------------- slot maps


def test_slot_map_torus_algebra():
    f = tmap(SurfaceMap(13, 8, 8, 5) @ REFLECTION)
    assert f.reversing
    assert f.compose(f.inverse()).matrix == IDENTITY
    m = f.apply(M_BASE)
    assert f.inverse().apply(m) == M_BASE
    with pytest.raises(ValidationError, match="torus slot map"):
        SlotMap(T, matrix=REFLECTION, perm=(0, 1))


def test_slot_map_graph_algebra():
    h = BackendHandle.finite_graph(cycle_graph(6))
    rot = SlotMap(h, perm=(1, 2, 3, 4, 5, 0))
    assert not rot.is_involution()
    flip = SlotMap(h, perm=(0, 5, 4, 3, 2, 1))
    assert flip.is_involution()
    assert rot.compose(rot.inverse()).perm == tuple(range(6))
    marking = AbstractMarking(h, (0, 1))
    assert rot.apply(marking).payload == (1, 2)
    with pytest.raises(ValidationError, match="not a vertex bijection"):
        SlotMap(h, perm=(0, 0, 1, 2, 3, 4))
    with pytest.raises(ValidationError, match="distance preserving"):
        SlotMap(BackendHandle.finite_graph(path_graph(4)), perm=(1, 0, 2, 3))


def test_slot_map_json_round_trip():
    f = tmap(SurfaceMap(2, 1, 1, 1) @ REFLECTION)
    assert SlotMap.from_json(T, f.to_json()) == f
    h = BackendHandle.finite_graph(cycle_graph(6))
    g = SlotMap(h, perm=(1, 2, 3, 4, 5, 0), graph_reversing=True)
    assert SlotMap.from_json(h, g.to_json()) == g
    with pytest.raises(ParseError, match="must declare a perm"):
        SlotMap.from_json(h, [[1, 0], [0, -1]])


# ----------------------------------------------------------- validation


def test_two_piece_gluing_accepted_and_involutive():
    x = two_piece_gluing(REFLECTION)
    a, b = ("p0", "E0"), ("p1", "E0")
    other, chart = x.psi(a)
    assert other == b
    # pushing nu back along the synthesized inverse recovers the decoration
    back, inv_chart = x.psi(b)
    assert back == a
    assert inv_chart.apply(chart.apply(x.decoration(b))) == x.decoration(b)


def test_self_identification_twisted_rule():
    x = GluingGraph(
        manifolds=(core("M", M_BASE),),
        pieces=(("p0", "M"),),
        identifications=(Identification("p0", "E0", "p0", "E0", tmap(REFLECTION)),),
    )
    x.validate()
    non_involution = SurfaceMap(13, 8, 8, 5) @ REFLECTION
    bad = GluingGraph(
        manifolds=(core("M", M_BASE),),
        pieces=(("p0", "M"),),
        identifications=(Identification("p0", "E0", "p0", "E0", tmap(non_involution)),),
    )
    with pytest.raises(ValidationError, match="fixed point"):
        bad.validate()


def test_disconnected_rejected():
    x = GluingGraph(
        manifolds=(core("M", M_BASE),),
        pieces=(("p0", "M"), ("p1", "M"), ("p2", "M")),
        identifications=(Identification("p0", "E0", "p1", "E0", tmap(REFLECTION)),),
    )
    with pytest.raises(ValidationError, match="disconnected: piece p2"):
        x.validate()


def test_slot_reuse_rejected():
    x = GluingGraph(
        manifolds=(core("M", M_BASE), core("N", M_BASE, M_BASE)),
        pieces=(("p0", "N"), ("p1", "M"), ("p2", "M")),
        identifications=(
            Identification("p0", "E0", "p1", "E0", tmap(REFLECTION)),
            Identification("p0", "E0", "p2", "E0", tmap(REFLECTION)),
        ),
    )
    with pytest.raises(ValidationError, match="non-involutive.*p0:E0"):
        x.validate()


def test_dangling_references_rejected():
    with pytest.raises(ValidationError, match="references unknown manifold"):
        GluingGraph(
            manifolds=(core("M", M_BASE),),
            pieces=(("p0", "ZZZ"),),
            identifications=(),
        ).validate()
    x = GluingGraph(
        manifolds=(core("M", M_BASE),),
        pieces=(("p0", "M"), ("p1", "M")),
        identifications=(Identification("p0", "E9", "p1", "E0", tmap(REFLECTION)),),
    )
    with pytest.raises(ValidationError, match="unknown slot p0:E9"):
        x.validate()


def test_toroidal_slot_rejected():
    spec = DecoratedManifoldSpec(
        "M",
        GENERIC,
        (
            BoundarySpec("E0", handle=T, decoration=M_BASE),
            BoundarySpec("T0", toroidal=True),
        ),
    )
    x = GluingGraph(
        manifolds=(spec,),
        pieces=(("p0", "M"), ("p1", "M")),
        identifications=(Identification("p0", "T0", "p1", "E0", tmap(REFLECTION)),),
    )
    with pytest.raises(ValidationError, match="toroidal boundary p0:T0"):
        x.validate()


def test_orientation_preserving_identification_rejected():
    x = GluingGraph(
        manifolds=(core("M", M_BASE),),
        pieces=(("p0", "M"), ("p1", "M")),
        identifications=(Identification("p0", "E0", "p1", "E0", tmap(T_MAP)),),
    )
    with pytest.raises(ValidationError, match="must reverse orientation"):
        x.validate()


def test_identified_backends_must_match():
    h = BackendHandle.finite_graph(cycle_graph(6))
    graph_piece = DecoratedManifoldSpec(
        "G",
        GENERIC,
        (BoundarySpec("E0", handle=h, decoration=AbstractMarking(h, (0,))),),
    )
    x = GluingGraph(
        manifolds=(core("M", M_BASE), graph_piece),
        pieces=(("p0", "M"), ("p1", "G")),
        identifications=(Identification("p0", "E0", "p1", "E0", tmap(REFLECTION)),),
    )
    with pytest.raises(BackendMismatchError, match="different backends"):
        x.validate()


def test_lambda_validation():
    spec = core("M", M_BASE, M_BASE)
    buried = GluingGraph(
        manifolds=(spec,),
        pieces=(("p0", "M"), ("p1", "M")),
        identifications=(Identification("p0", "E0", "p1", "E0", tmap(REFLECTION)),),
        boundary_markings=((("p0", "E0"), M_BASE),),
    )
    with pytest.raises(ValidationError, match="buried slot p0:E0"):
        buried.validate()
    unknown = GluingGraph(
        manifolds=(spec,),
        pieces=(("p0", "M"), ("p1", "M")),
        identifications=(Identification("p0", "E0", "p1", "E0", tmap(REFLECTION)),),
        boundary_markings=((("p0", "E9"), M_BASE),),
    )
    with pytest.raises(ValidationError, match="unknown slot p0:E9"):
        unknown.validate()


# ------------------------------------------- induced markings and heights


def test_induced_reflection_fixes_base_marking():
    x = two_piece_gluing(REFLECTION)
    table = induced_markings(x)
    assert table[("p1", "E0")] == M_BASE
    assert table[("p0", "E0")] == M_BASE
    assert check_bounded_combinatorics(x, 6, 0).slot("p0", "E0").nu_source == "psi"


def test_induced_composite_map_example():
    # [[13,8],[8,5]] after the reflection carries (0/1, 1/0) to (8/5, 13/8)
    x = two_piece_gluing(SurfaceMap(13, 8, 8, 5) @ REFLECTION)
    table = induced_markings(x)
    assert table[("p1", "E0")] == mk("8/5", "13/8")


def test_unburied_slots_take_lambda_or_are_empty():
    spec = core("M", M_BASE, M_BASE)
    lam = mk("1/1", "1/0")
    x = GluingGraph(
        manifolds=(spec,),
        pieces=(("p0", "M"), ("p1", "M")),
        identifications=(Identification("p0", "E0", "p1", "E0", tmap(REFLECTION)),),
        boundary_markings=((("p0", "E1"), lam),),
    ).validate()
    table = induced_markings(x)
    assert table[("p0", "E1")] == lam
    assert [slot for slot, m in table.items() if m is None] == [("p1", "E1")]
    cert = check_bounded_combinatorics(x, 6, 0)
    assert cert.slot("p0", "E1").nu_source == "lambda"
    assert cert.slot("p1", "E1").nu_source == "empty"


def test_heights_frozen_values():
    # distance from (0/1, 1/0) to (8/5, 13/8) is 3: all four slope pairs
    # sit at Farey distance 3
    x = two_piece_gluing(SurfaceMap(13, 8, 8, 5) @ REFLECTION)
    h = heights(x)
    assert h[("p0", "E0")] == 3
    assert h[("p1", "E0")] == 3
    # a shared slope forces height 0
    y = two_piece_gluing(REFLECTION, mu0=mk("5/1", "1/0"), mu1=M_BASE)
    assert heights(y)[("p1", "E0")] == 0
    assert heights(y)[("p0", "E0")] == 0


def test_heights_empty_nu_is_none():
    spec = core("M", M_BASE, M_BASE)
    x = GluingGraph(
        manifolds=(spec,),
        pieces=(("p0", "M"), ("p1", "M")),
        identifications=(Identification("p0", "E0", "p1", "E0", tmap(REFLECTION)),),
    ).validate()
    h = heights(x)
    assert h[("p0", "E1")] is None
    assert min(v for v in h.values() if v is not None) == 0


# ----------------------------------------------------------- certificates


def test_certificate_frozen_pass():
    x = two_piece_gluing(SurfaceMap(13, 8, 8, 5) @ REFLECTION)
    cert = check_bounded_combinatorics(x, 6, 3, denom_bound=64)
    assert cert.passed
    s0 = cert.slot("p0", "E0")
    assert s0.height == 3 and s0.clause_a_ok and s0.height_ok
    assert s0.projection is not None and s0.projection.certified
    # regression pin: the certified sweep reports a maximal annular
    # coefficient of 5 for this pair
    assert s0.projection.value == 5
    assert check_bounded_combinatorics(x, 6, 4, denom_bound=64).verdict == "fail"
    assert check_bounded_combinatorics(x, 4, 3, denom_bound=64).verdict == "fail"


def test_certificate_self_gluing_reflection():
    x = GluingGraph(
        manifolds=(core("M", M_BASE),),
        pieces=(("p0", "M"),),
        identifications=(Identification("p0", "E0", "p0", "E0", tmap(REFLECTION)),),
    ).validate()
    assert heights(x)[("p0", "E0")] == 0
    cert = check_bounded_combinatorics(x, 6, 1)
    assert not cert.passed
    entry = cert.slot("p0", "E0")
    assert entry.clause_a_ok and entry.height_ok is False
    assert check_bounded_combinatorics(x, 6, 0).passed


def test_clause_b_meridian_inequality():
    # decoration far from the single meridian, induced marking pinned to it:
    # the height exceeds the disk distance and the clause trips for small R
    far = mk("8/5", "13/8")
    x = GluingGraph(
        manifolds=(
            core("M0", far, disks={0: (Slope(0, 1),)}),
            core("M1", mk("0/1", "1/5")),
        ),
        pieces=(("p0", "M0"), ("p1", "M1")),
        identifications=(Identification("p1", "E0", "p0", "E0", tmap(REFLECTION)),),
    ).validate()
    table = induced_markings(x)
    nu = table[("p0", "E0")]
    assert nu is not None and Slope(0, 1) in nu.elements()
    height = heights(x)[("p0", "E0")]
    assert height == 3
    cert2 = check_bounded_combinatorics(x, 2, 0)
    entry = cert2.slot("p0", "E0")
    assert entry.clause_b == (3, 0, False)
    assert not cert2.passed
    # at R=3 the meridian clause clears but the annular coefficients
    # (pinned: 8 at p0, 7 at p1) keep clause (a) failing until R=8
    cert3 = check_bounded_combinatorics(x, 3, 0)
    assert cert3.slot("p0", "E0").clause_b == (3, 0, True)
    assert cert3.slot("p0", "E0").projection.value == 8
    assert cert3.slot("p1", "E0").projection.value == 7
    assert not cert3.passed
    assert check_bounded_combinatorics(x, 8, 0).passed


def core_bundle_core(
    bundle_spec: DecoratedManifoldSpec,
    left: AbstractMarking,
    right: AbstractMarking,
    psi_left: SurfaceMap = REFLECTION,
    psi_right: SurfaceMap = REFLECTION,
) -> GluingGraph:
    """Chain p0 -- bundle -- p1 with the bundle glued on both sides."""
    return GluingGraph(
        manifolds=(core("ML", left), bundle_spec, core("MR", right)),
        pieces=(("p0", "ML"), ("b", bundle_spec.id), ("p1", "MR")),
        identifications=(
            Identification("p0", "E0", "b", "F0", tmap(psi_left)),
            Identification("b", "F1", "p1", "E0", tmap(psi_right)),
        ),
    ).validate()


def test_clause_c_bundle_geodesic():
    # both cores decorated at the base: the induced ends agree and the
    # geodesic degenerates to the base slope, so the clause measures the
    # distance from the bundle decorations to 0/1
    fib = mk("55/34", "89/55")
    b = bundle("B", fib, fib)
    x = core_bundle_core(b, M_BASE, M_BASE)
    d_expected = min(farey_distance(s, Slope(0, 1)) for s in fib.elements())
    assert d_expected >= 2
    cert = check_bounded_combinatorics(x, 1, 0)
    report = cert.piece("b").clause_c
    assert report is not None
    assert report.distance_0 == d_expected
    assert report.distance_1 == d_expected
    assert not report.ok
    assert not cert.passed
    wide = check_bounded_combinatorics(x, d_expected, 0)
    assert wide.piece("b").clause_c.ok


def test_clause_c_missing_induced_marking():
    b = bundle("B", M_BASE, M_BASE)
    x = GluingGraph(
        manifolds=(core("ML", M_BASE), b),
        pieces=(("p0", "ML"), ("b", "B")),
        identifications=(Identification("p0", "E0", "b", "F0", tmap(REFLECTION)),),
    ).validate()
    report = check_bounded_combinatorics(x, 3, 0).piece("b").clause_c
    assert report is not None and not report.ok
    assert "missing induced marking" in report.detail


def test_clause_d_twisted_cover():
    tw_plain = DecoratedManifoldSpec(
        "W",
        TWISTED_IBUNDLE,
        (BoundarySpec("F0", handle=T, decoration=M_BASE),),
        bundle_map=tmap(REFLECTION),
    )
    def glue(spec):
        return GluingGraph(
            manifolds=(core("M0", M_BASE), spec),
            pieces=(("p0", "M0"), ("w", spec.id)),
            identifications=(Identification("p0", "E0", "w", "F0", tmap(REFLECTION)),),
        ).validate()

    missing = check_bounded_combinatorics(glue(tw_plain), 3, 0).piece("w").clause_d
    assert missing is not None and not missing.ok
    assert missing.detail == "cover data missing"
    cover = CoverData(
        mu0=M_BASE,
        mu1=M_BASE,
        lift0=tmap(IDENTITY),
        lift1=tmap(IDENTITY),
        phi=tmap(REFLECTION),
    )
    tw_covered = DecoratedManifoldSpec(
        "W",
        TWISTED_IBUNDLE,
        (BoundarySpec("F0", handle=T, decoration=M_BASE),),
        bundle_map=tmap(REFLECTION),
        cover=cover,
    )
    report = check_bounded_combinatorics(glue(tw_covered), 1, 0).piece("w").clause_d
    assert report is not None and report.ok
    assert report.distance_0 == 0 and report.distance_1 == 0
    assert "double cover" in report.detail


def test_clause_e_record_coverage():
    spec = DecoratedManifoldSpec(
        "M",
        GENERIC,
        (
            BoundarySpec("E0", handle=T, decoration=M_BASE),
            BoundarySpec("E1", handle=T, decoration=M_BASE),
        ),
        disk_records=(("E1",),),
        annulus_records=(("E0", "E1"),),
    )
    def build(lam):
        return GluingGraph(
            manifolds=(spec, core("N", M_BASE)),
            pieces=(("p0", "M"), ("p1", "N")),
            identifications=(Identification("p0", "E0", "p1", "E0", tmap(REFLECTION)),),
            boundary_markings=lam,
        ).validate()

    bare = check_bounded_combinatorics(build(()), 3, 0)
    report = bare.piece("p0")
    assert not report.clause_e_ok
    assert "disk(E1)" in report.clause_e_detail
    assert not bare.passed
    covered = check_bounded_combinatorics(build(((("p0", "E1"), M_BASE),)), 3, 0)
    assert covered.piece("p0").clause_e_ok
    assert covered.passed


def test_empty_nu_skips_height_gate():
    # the unburied undecorated slot contributes no height, so a large D
    # only constrains the buried pair
    spec = core("M", M_BASE, M_BASE)
    x = GluingGraph(
        manifolds=(spec, core("N", mk("8/5", "13/8"))),
        pieces=(("p0", "M"), ("p1", "N")),
        identifications=(Identification("p0", "E0", "p1", "E0", tmap(REFLECTION)),),
    ).validate()
    cert = check_bounded_combinatorics(x, 6, 3)
    assert cert.slot("p0", "E1").height is None
    assert cert.slot("p0", "E1").height_ok is None
    assert cert.passed


def test_graph_backend_gluing_and_unmodeled_caveat():
    h = BackendHandle.finite_graph(cycle_graph(6))
    spec = DecoratedManifoldSpec(
        "G",
        GENERIC,
        (BoundarySpec("E0", handle=h, decoration=AbstractMarking(h, (0, 1))),),
    )
    flip = SlotMap(h, perm=(0, 5, 4, 3, 2, 1))
    x = GluingGraph(
        manifolds=(spec,),
        pieces=(("p0", "G"), ("p1", "G")),
        identifications=(Identification("p0", "E0", "p1", "E0", flip),),
    ).validate()
    table = induced_markings(x)
    assert table[("p1", "E0")].payload == (0, 5)
    assert heights(x)[("p1", "E0")] == 0
    cert = check_bounded_combinatorics(x, 2, 0)
    assert cert.passed
    entry = cert.slot("p1", "E0")
    assert entry.projection.unmodeled and entry.projection.value == 0
    assert any("projection table" in c for c in cert.caveats)


def test_equal_graph_backends_are_parsed_once(monkeypatch):
    c6 = BackendHandle.finite_graph(cycle_graph(6))
    c8 = BackendHandle.finite_graph(cycle_graph(8))

    def spec(mid: str, *handles: BackendHandle) -> DecoratedManifoldSpec:
        return DecoratedManifoldSpec(
            mid,
            GENERIC,
            tuple(
                BoundarySpec(f"E{i}", handle=h, decoration=AbstractMarking(h, (0, 1)))
                for i, h in enumerate(handles)
            ),
        )

    text = GluingGraph(
        manifolds=(spec("G0", c6), spec("G1", c6, c8), spec("H", c8)),
        pieces=(("p0", "G0"), ("p1", "G1"), ("p2", "H")),
        identifications=(
            Identification("p0", "E0", "p1", "E0", SlotMap(c6, perm=(0, 5, 4, 3, 2, 1))),
            Identification("p1", "E1", "p2", "E0", SlotMap(c8, perm=(1, 0, 7, 6, 5, 4, 3, 2))),
        ),
    ).canonical_json()
    parsed = []
    real = FiniteGraph.from_edges

    def counting(n, pairs):
        parsed.append(n)
        return real(n, pairs)

    monkeypatch.setattr(FiniteGraph, "from_edges", staticmethod(counting))
    x = validate_gluing(text)
    assert sorted(parsed) == [6, 8]
    graphs = {(m.id, b.id): b.handle.graph for m in x.manifolds for b in m.boundaries}
    assert graphs["G0", "E0"] is graphs["G1", "E0"] and graphs["G1", "E1"] is graphs["H", "E0"]
    assert graphs["G0", "E0"] == c6.graph and graphs["H", "E0"] == c8.graph
    # each file gets its own graphs
    assert validate_gluing(text) == x and sorted(parsed) == [6, 6, 8, 8]


def test_decoded_mappings_take_only_integers():
    # JSON text with a float fails while it is decoded; a decoded mapping
    # can still carry floats, and no integer field coerces them, nor
    # true/false, nor a numeric string
    from glueforge.surface import GraphProjection

    h = BackendHandle.finite_graph(
        cycle_graph(6), {"W": [0, 1]}, [GraphProjection((0, 1), (3,), "W0", 7)]
    )
    boundary = BoundarySpec(
        "E0",
        handle=h,
        decoration=AbstractMarking(h, (0, 1)),
        compressible=True,
        disks=DiskSet(h, (3,)),
    )
    spec = DecoratedManifoldSpec("G", GENERIC, (boundary,))
    graph_text = GluingGraph(
        manifolds=(spec,),
        pieces=(("p0", "G"), ("p1", "G")),
        identifications=(Identification("p0", "E0", "p1", "E0", SlotMap(h, perm=(0, 5, 4, 3, 2, 1))),),
    ).canonical_json()
    torus_text = two_piece_gluing(REFLECTION).canonical_json()
    assert validate_gluing(json.loads(graph_text)) == validate_gluing(graph_text)
    backend = ("manifolds", 0, "boundaries", 0, "backend")
    edits = [
        (torus_text, ("identifications", 0, "map", 0, 0), 1.0),
        (torus_text, ("identifications", 0, "map", 1, 1), True),
        (graph_text, ("identifications", 0, "map", "perm", 1), 5.0),
        (graph_text, (*backend, "n"), 6.0),
        (graph_text, (*backend, "edges", 0, 1), False),
        (graph_text, (*backend, "markings", "W", 0), "0"),
        (graph_text, (*backend, "projections", 0, "a", 0), 0.0),
        (graph_text, (*backend, "projections", 0, "value"), 7.5),
        (graph_text, ("manifolds", 0, "boundaries", 0, "decoration", "vertices", 0), 0.0),
        (graph_text, ("manifolds", 0, "boundaries", 0, "disks", 0), 3.0),
        (graph_text, ("identifications", 0, "b"), ["p1", 0]),
    ]
    for text, (*parents, last), value in edits:
        obj = json.loads(text)
        target = obj
        for key in parents:
            target = target[key]
        target[last] = value
        with pytest.raises(ParseError):
            validate_gluing(obj)


def test_each_graph_map_is_checked_once(monkeypatch):
    # a core, a trivial bundle and a core over C_12, every map v -> -v
    h = BackendHandle.finite_graph(cycle_graph(12))
    flip = SlotMap(h, perm=tuple(-v % 12 for v in range(12)))

    def boundary(bid: str, *vertices: int) -> BoundarySpec:
        return BoundarySpec(bid, handle=h, decoration=AbstractMarking(h, vertices))

    text = GluingGraph(
        manifolds=(
            DecoratedManifoldSpec("ML", GENERIC, (boundary("E0", 0, 1),)),
            DecoratedManifoldSpec(
                "B0",
                TRIVIAL_IBUNDLE,
                (boundary("F0", 3, 4), boundary("F1", 9, 8)),
                bundle_map=flip,
            ),
            DecoratedManifoldSpec("MR", GENERIC, (boundary("E0", 6, 7),)),
        ),
        pieces=(("p0", "ML"), ("p1", "B0"), ("p2", "MR")),
        identifications=(
            Identification("p0", "E0", "p1", "F0", flip),
            Identification("p1", "F1", "p2", "E0", flip),
        ),
    ).canonical_json()
    checked = []
    real = FiniteGraph.preserved_by

    def counting(graph, perm):
        checked.append(tuple(perm))
        return real(graph, perm)

    monkeypatch.setattr(FiniteGraph, "preserved_by", counting)
    surface._check_permutation.cache_clear()
    x = validate_gluing(text)
    check_bounded_combinatorics(x, 2, 0)
    collapse_ibundles(x, 2, 0)
    # the flip is an involution: it and the identity are the only maps
    assert sorted(checked) == [tuple(range(12)), flip.perm]
    # applying a map does not check it again
    m = x.decoration(("p0", "E0"))
    assert flip.apply(flip.apply(m)) == m and len(checked) == 2
    # a rejected map is rejected every time
    rotation = (*range(1, 12), 0)
    bad = tuple(reversed(rotation[:6])) + rotation[6:]
    for _ in range(2):
        with pytest.raises(ValidationError, match="not distance preserving"):
            SlotMap(h, perm=bad)
    assert checked[2:] == [bad, bad]


def test_relabel_naturality():
    x = two_piece_gluing(SurfaceMap(13, 8, 8, 5) @ REFLECTION)
    y = relabel(x, {"p0": "left", "p1": "right"})
    y.validate()
    tx = induced_markings(x)
    ty = induced_markings(y)
    assert ty[("left", "E0")] == tx[("p0", "E0")]
    assert ty[("right", "E0")] == tx[("p1", "E0")]
    cx = check_bounded_combinatorics(x, 6, 3)
    cy = check_bounded_combinatorics(y, 6, 3)
    assert cy.slot("left", "E0").height == cx.slot("p0", "E0").height
    assert cy.verdict == cx.verdict
    with pytest.raises(ValidationError, match="not a bijection"):
        relabel(x, {"p0": "p1"})


def rand_gluing(rng: random.Random) -> GluingGraph:
    """Random chain of 2-4 one/two-boundary generic pieces."""
    n = rng.randrange(2, 5)
    manifolds = []
    pieces = []
    for i in range(n):
        decs = [
            AbstractMarking(
                T, FareyMarking(w.on_slope(Slope(0, 1)), w.on_slope(INFINITY))
            )
            for w in (rand_word(rng, 6), rand_word(rng, 6))
        ]
        disks = {}
        if rng.random() < 0.3:
            disks[0] = (rand_word(rng, 4).on_slope(Slope(0, 1)),)
        manifolds.append(core(f"M{i}", *decs, disks=disks))
        pieces.append((f"p{i}", f"M{i}"))
    idents = tuple(
        Identification(
            f"p{i}", "E1", f"p{i+1}", "E0", tmap(rand_word(rng, 5) @ REFLECTION)
        )
        for i in range(n - 1)
    )
    return GluingGraph(tuple(manifolds), tuple(pieces), idents).validate()


def test_certificate_monotonicity():
    # passing at (R, D) implies passing at larger R and smaller D
    rng = random.Random(20260814)
    for _ in range(40):
        x = rand_gluing(rng)
        r = rng.randrange(1, 8)
        d = rng.randrange(0, 4)
        cert = check_bounded_combinatorics(x, r, d)
        if cert.passed:
            assert check_bounded_combinatorics(x, r + rng.randrange(0, 4), d).passed
            assert check_bounded_combinatorics(x, r, max(0, d - 1)).passed
        else:
            assert not check_bounded_combinatorics(x, max(1, r - 1), d + 1).passed


def conjugate_slot(x: GluingGraph, piece: str, bdry: str, g: SurfaceMap) -> GluingGraph:
    """Simultaneously conjugate one slot's decoration, disks, lambda and
    the adjacent identification chart by g."""
    gmap = tmap(g)
    new_manifolds = []
    spec = x.spec_of(piece)
    for m in x.manifolds:
        if m.id != spec.id:
            new_manifolds.append(m)
            continue
        new_bs = []
        for b in m.boundaries:
            if b.id != bdry:
                new_bs.append(b)
                continue
            disks = b.disks
            assert b.decoration is not None and disks is not None
            new_bs.append(
                BoundarySpec(
                    b.id,
                    handle=b.handle,
                    decoration=gmap.apply(b.decoration),
                    compressible=b.compressible,
                    disks=DiskSet(T, tuple(g.on_slope(s) for s in disks.elements), disks.owner),
                )
            )
        new_manifolds.append(
            DecoratedManifoldSpec(
                m.id, m.kind, tuple(new_bs), m.disk_records, m.annulus_records
            )
        )
    new_idents = []
    for ident in x.identifications:
        if ident.slot_a == (piece, bdry):
            new_idents.append(
                Identification(
                    ident.piece_a,
                    ident.bdry_a,
                    ident.piece_b,
                    ident.bdry_b,
                    ident.map.compose(gmap.inverse()),
                )
            )
        elif ident.slot_b == (piece, bdry):
            new_idents.append(
                Identification(
                    ident.piece_a,
                    ident.bdry_a,
                    ident.piece_b,
                    ident.bdry_b,
                    gmap.compose(ident.map),
                )
            )
        else:
            new_idents.append(ident)
    new_lam = tuple(
        (slot, gmap.apply(m) if slot == (piece, bdry) else m)
        for slot, m in x.boundary_markings
    )
    return GluingGraph(tuple(new_manifolds), x.pieces, tuple(new_idents), new_lam)


def test_height_and_certificate_action_invariance():
    # conjugating a slot's full data by an orientation-preserving map
    # leaves heights and every certificate number unchanged; pieces whose
    # spec is shared must not alias, so each piece has its own manifold
    rng = random.Random(97)
    for _ in range(25):
        x = rand_gluing(rng)
        pid, bid = rng.choice(x.slots())
        g = rand_word(rng, 6)
        y = conjugate_slot(x, pid, bid, g).validate()
        hx = heights(x)
        hy = heights(y)
        assert hx == hy
        cx = check_bounded_combinatorics(x, 4, 1)
        cy = check_bounded_combinatorics(y, 4, 1)
        assert cx.verdict == cy.verdict
        sx = cx.slot(pid, bid)
        sy = cy.slot(pid, bid)
        assert sx.height == sy.height
        assert sx.clause_b == sy.clause_b
        if sx.projection is None:
            assert sy.projection is None
        else:
            assert sx.projection.value == sy.projection.value


# --------------------------------------------------------- serialization


def full_featured_gluing() -> GluingGraph:
    ds = DiskSet(T, (Slope(0, 1), Slope(1, 1)), owner="E0")
    body = DecoratedManifoldSpec(
        "C",
        COMPRESSION_BODY,
        (
            BoundarySpec("E0", handle=T, decoration=M_BASE, compressible=True, disks=ds),
            BoundarySpec("E1", handle=T, decoration=mk("1/1", "1/0")),
            BoundarySpec("T0", toroidal=True),
        ),
        disk_records=(("E0",),),
        annulus_records=(("E0", "E1"),),
    )
    partner = core("M", mk("8/5", "13/8"))
    return GluingGraph(
        manifolds=(body, partner),
        pieces=(("c", "C"), ("m", "M")),
        identifications=(
            Identification("c", "E0", "m", "E0", tmap(SurfaceMap(2, 1, 1, 1) @ REFLECTION)),
        ),
        boundary_markings=((("c", "E1"), mk("3/2", "1/1")),),
    ).validate()


def test_gluing_json_round_trip():
    x = full_featured_gluing()
    blob = x.canonical_json()
    y = validate_gluing(blob)
    assert y == x
    assert y.canonical_json() == blob
    assert y.content_hash() == x.content_hash()


def test_unread_manifold_keys_are_dropped():
    # jsj and window_frames are unknown keys like any other: they validate
    # and leave the canonical JSON
    x = full_featured_gluing()
    obj = x.to_json()
    obj["manifolds"][0]["jsj"] = [{"id": "st0", "type": "solidtorus"}]
    obj["manifolds"][0]["window_frames"] = {"E9": 1}
    y = validate_gluing(obj)
    assert y == x and y.canonical_json() == x.canonical_json()


def test_validate_gluing_sources(tmp_path):
    x = full_featured_gluing()
    assert validate_gluing(x.canonical_json()) == x
    assert validate_gluing(x.to_json()) == x
    with pytest.raises(ParseError, match="malformed"):
        validate_gluing("{not json")
    with pytest.raises(ParseError):
        validate_gluing('{"manifolds": [{"id": "M"}]}')
    # a path is no source: a string is JSON text, and a path object is refused
    path = tmp_path / "gluing.json"
    path.write_text(x.canonical_json(), encoding="utf-8")
    with pytest.raises(ParseError, match="malformed"):
        validate_gluing(str(path))
    with pytest.raises(ParseError, match="cannot read a gluing spec"):
        validate_gluing(path)


def test_certificate_reproducibility_bit_identical():
    x = full_featured_gluing()
    cert = check_bounded_combinatorics(x, 6, 0, denom_bound=34)
    reloaded = validate_gluing(x.canonical_json())
    cert2 = check_bounded_combinatorics(reloaded, 6, 0, denom_bound=34)
    assert cert.canonical_json() == cert2.canonical_json()
    assert cert.input_sha256 == x.content_hash()


def test_twisted_bundle_spec_json_round_trip():
    cover = CoverData(
        mu0=mk("1/1", "1/0"),
        mu1=mk("0/1", "1/1"),
        lift0=tmap(IDENTITY),
        lift1=tmap(SurfaceMap(1, 1, 0, 1)),
        phi=tmap(REFLECTION),
    )
    tw = DecoratedManifoldSpec(
        "W",
        TWISTED_IBUNDLE,
        (BoundarySpec("F0", handle=T, decoration=M_BASE),),
        bundle_map=tmap(SurfaceMap(0, 1, 1, 0)),
        cover=cover,
    )
    again = DecoratedManifoldSpec.from_json(tw.to_json())
    assert again == tw
