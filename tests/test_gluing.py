"""Gluing data-model tests: validation diagnostics, induced markings,
heights, and the clause-by-clause certificate engine."""

import json
import random
import re

import pytest

from glueforge.certify import (
    CombinatoricsCertificate,
    MeridianClause,
    PieceReport,
    SlotReport,
    check_bounded_combinatorics,
)
from glueforge.cli import main
from glueforge.errors import BackendMismatchError, ParseError, ValidationError
from glueforge.farey import distances_from
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
    induced_markings,
    validate_gluing,
)
from glueforge.hypgraph import FiniteGraph, cycle_graph
from glueforge.ioutil import canonical_dumps
from glueforge.measures import heights
from glueforge.surface import AbstractMarking, BackendHandle, DiskSet
from glueforge.torus import (
    IDENTITY,
    INFINITY,
    REFLECTION,
    FareyMarking,
    Slope,
    SurfaceMap,
)
from glueforge.transforms import collapse_ibundles
from builders import (
    MU,
    T,
    T_MAP,
    bundle,
    core,
    core_bundle_core,
    core_stack_core,
    example_builders,
    full_featured_gluing,
    graph_stack,
    mk,
    on_core,
    path_graph,
    rand_word,
    random_cycle_stack,
    random_torus_stack,
    tmap,
    twisted,
    twisted_end,
    wrap_cycle_stack,
)
from oracles import relabel, reversed_bundles, reversed_names


def two_piece_gluing(psi: SurfaceMap, mu0=MU, mu1=MU) -> GluingGraph:
    """Two generic one-boundary pieces identified by psi (p0 chart to p1)."""
    return GluingGraph(
        manifolds=(core("M0", mu0), core("M1", mu1)),
        pieces=(("p0", "M0"), ("p1", "M1")),
        identifications=(Identification("p0", "E0", "p1", "E0", tmap(psi)),),
    )


def slot_report(cert: CombinatoricsCertificate, piece: str, bdry: str) -> SlotReport:
    """The certificate's one entry for the slot piece:bdry."""
    (entry,) = [s for s in cert.slots if (s.piece, s.boundary) == (piece, bdry)]
    return entry


def piece_report(cert: CombinatoricsCertificate, piece: str) -> PieceReport:
    """The certificate's one entry for the piece."""
    (entry,) = [p for p in cert.pieces if p.piece == piece]
    return entry


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
        BoundarySpec("E0", handle=T, decoration=MU, compressible=True)
    with pytest.raises(ValidationError, match="non-empty iff compressible"):
        BoundarySpec(
            "E0",
            handle=T,
            decoration=MU,
            disks=DiskSet(T, (Slope(0, 1),)),
        )
    plain = BoundarySpec("E0", handle=T, decoration=MU)
    assert plain.disks is not None and plain.disks.is_empty


def test_manifold_kind_invariants():
    with pytest.raises(ValidationError, match="unknown manifold kind"):
        DecoratedManifoldSpec("M", "banana", (BoundarySpec("E0", handle=T, decoration=MU),))
    with pytest.raises(ValidationError, match="repeats a boundary id"):
        DecoratedManifoldSpec(
            "M",
            GENERIC,
            (
                BoundarySpec("E0", handle=T, decoration=MU),
                BoundarySpec("E0", handle=T, decoration=MU),
            ),
        )
    with pytest.raises(ValidationError, match="non-toroidal boundary"):
        DecoratedManifoldSpec("M", GENERIC, (BoundarySpec("T0", toroidal=True),))
    with pytest.raises(ValidationError, match="references unknown boundary"):
        DecoratedManifoldSpec(
            "M",
            GENERIC,
            (BoundarySpec("E0", handle=T, decoration=MU),),
            disk_records=(("E7",),),
        )
    with pytest.raises(ValidationError, match="only bundles carry"):
        DecoratedManifoldSpec(
            "M",
            GENERIC,
            (BoundarySpec("E0", handle=T, decoration=MU),),
            bundle_map=tmap(REFLECTION),
        )


def test_bundle_kind_invariants():
    b0 = BoundarySpec("F0", handle=T, decoration=MU)
    b1 = BoundarySpec("F1", handle=T, decoration=MU)
    with pytest.raises(ValidationError, match="exactly two non-toroidal"):
        DecoratedManifoldSpec("B", TRIVIAL_IBUNDLE, (b0,), bundle_map=tmap(REFLECTION))
    with pytest.raises(ValidationError, match="needs an exchange map"):
        DecoratedManifoldSpec("B", TRIVIAL_IBUNDLE, (b0, b1))
    with pytest.raises(ValidationError, match="must reverse orientation"):
        DecoratedManifoldSpec("B", TRIVIAL_IBUNDLE, (b0, b1), bundle_map=tmap(IDENTITY))
    ok = bundle("B", MU, MU)
    assert ok.is_bundle
    # twisted: single boundary, exchange an orientation-reversing involution
    with pytest.raises(ValidationError, match="exactly one non-toroidal"):
        DecoratedManifoldSpec("B", TWISTED_IBUNDLE, (b0, b1), bundle_map=tmap(REFLECTION))
    meridian = DiskSet(T, (Slope(0, 1),))
    lid = BoundarySpec("F0", handle=T, decoration=MU, compressible=True, disks=meridian)
    with pytest.raises(ValidationError, match="bundle B boundaries are incompressible"):
        DecoratedManifoldSpec("B", TWISTED_IBUNDLE, (lid,), bundle_map=tmap(REFLECTION))
    with pytest.raises(ValidationError, match="twisted bundle B needs an exchange map"):
        DecoratedManifoldSpec("B", TWISTED_IBUNDLE, (b0,))
    with pytest.raises(ValidationError, match="involution"):
        # det -1 but trace 8, so its square is not central
        DecoratedManifoldSpec(
            "B", TWISTED_IBUNDLE, (b0,), bundle_map=tmap(SurfaceMap(13, 8, 8, 5) @ REFLECTION)
        )
    tw = DecoratedManifoldSpec("B", TWISTED_IBUNDLE, (b0,), bundle_map=tmap(REFLECTION))
    assert tw.is_bundle


def test_compression_body_invariants():
    ds = DiskSet(T, (Slope(0, 1),))
    exterior = BoundarySpec("E0", handle=T, decoration=MU, compressible=True, disks=ds)
    interior = BoundarySpec("E1", handle=T, decoration=MU)
    body = DecoratedManifoldSpec("C", COMPRESSION_BODY, (exterior, interior))
    assert body.exterior_boundary().id == "E0"
    with pytest.raises(ValidationError, match="exactly one compressible"):
        DecoratedManifoldSpec("C", COMPRESSION_BODY, (interior,))
    with pytest.raises(ValidationError, match="not a compression body"):
        core("M", MU).exterior_boundary()


# ----------------------------------------------------------- slot maps


def test_slot_map_torus_algebra():
    f = tmap(SurfaceMap(13, 8, 8, 5) @ REFLECTION)
    assert f.reversing
    assert f.compose(f.inverse()).matrix == IDENTITY
    m = f.apply(MU)
    assert f.inverse().apply(m) == MU
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
    # a graph is checked when it is built; validate() only returns it
    x = GluingGraph(
        manifolds=(core("M", MU),),
        pieces=(("p0", "M"),),
        identifications=(Identification("p0", "E0", "p0", "E0", tmap(REFLECTION)),),
    )
    assert x.validate() is x
    non_involution = SurfaceMap(13, 8, 8, 5) @ REFLECTION
    with pytest.raises(ValidationError, match="fixed point"):
        GluingGraph(
            manifolds=(core("M", MU),),
            pieces=(("p0", "M"),),
            identifications=(Identification("p0", "E0", "p0", "E0", tmap(non_involution)),),
        )


def test_disconnected_rejected():
    with pytest.raises(ValidationError, match="disconnected: piece p2"):
        GluingGraph(
            manifolds=(core("M", MU),),
            pieces=(("p0", "M"), ("p1", "M"), ("p2", "M")),
            identifications=(Identification("p0", "E0", "p1", "E0", tmap(REFLECTION)),),
        )


def test_slot_reuse_rejected():
    # two pairs, a slot self-identified twice, and a self-identification
    # and a pair on one slot in either order
    to_p1 = Identification("p0", "E0", "p1", "E0", tmap(REFLECTION))
    to_p2 = Identification("p0", "E0", "p2", "E0", tmap(REFLECTION))
    to_self = Identification("p0", "E0", "p0", "E0", tmap(REFLECTION))
    for first, second in ((to_p1, to_p2), (to_self, to_self), (to_self, to_p1), (to_p1, to_self)):
        with pytest.raises(ValidationError, match="^non-involutive identifications: slot p0:E0 used twice$"):
            GluingGraph(
                manifolds=(core("M", MU), core("N", MU, MU)),
                pieces=(("p0", "N"), ("p1", "M"), ("p2", "M")),
                identifications=(first, second),
            )


def test_dangling_references_rejected():
    with pytest.raises(ValidationError, match="references unknown manifold"):
        GluingGraph(
            manifolds=(core("M", MU),),
            pieces=(("p0", "ZZZ"),),
            identifications=(),
        )
    with pytest.raises(ValidationError, match="unknown slot p0:E9"):
        GluingGraph(
            manifolds=(core("M", MU),),
            pieces=(("p0", "M"), ("p1", "M")),
            identifications=(Identification("p0", "E9", "p1", "E0", tmap(REFLECTION)),),
        )


def test_toroidal_slot_rejected():
    spec = DecoratedManifoldSpec(
        "M",
        GENERIC,
        (
            BoundarySpec("E0", handle=T, decoration=MU),
            BoundarySpec("T0", toroidal=True),
        ),
    )
    with pytest.raises(ValidationError, match="toroidal boundary p0:T0"):
        GluingGraph(
            manifolds=(spec,),
            pieces=(("p0", "M"), ("p1", "M")),
            identifications=(Identification("p0", "T0", "p1", "E0", tmap(REFLECTION)),),
        )


def test_orientation_preserving_identification_rejected():
    with pytest.raises(ValidationError, match="must reverse orientation"):
        GluingGraph(
            manifolds=(core("M", MU),),
            pieces=(("p0", "M"), ("p1", "M")),
            identifications=(Identification("p0", "E0", "p1", "E0", tmap(T_MAP)),),
        )


def test_identified_backends_must_match():
    h = BackendHandle.finite_graph(cycle_graph(6))
    graph_piece = core("G", AbstractMarking(h, (0,)))
    with pytest.raises(BackendMismatchError, match="different backends"):
        GluingGraph(
            manifolds=(core("M", MU), graph_piece),
            pieces=(("p0", "M"), ("p1", "G")),
            identifications=(Identification("p0", "E0", "p1", "E0", tmap(REFLECTION)),),
        )


def test_lambda_validation():
    spec = core("M", MU, MU)
    with pytest.raises(ValidationError, match="buried slot p0:E0"):
        GluingGraph(
            manifolds=(spec,),
            pieces=(("p0", "M"), ("p1", "M")),
            identifications=(Identification("p0", "E0", "p1", "E0", tmap(REFLECTION)),),
            boundary_markings=((("p0", "E0"), MU),),
        )
    with pytest.raises(ValidationError, match="unknown slot p0:E9"):
        GluingGraph(
            manifolds=(spec,),
            pieces=(("p0", "M"), ("p1", "M")),
            identifications=(Identification("p0", "E0", "p1", "E0", tmap(REFLECTION)),),
            boundary_markings=((("p0", "E9"), MU),),
        )


def one_piece(*boundaries: BoundarySpec, markings=()) -> GluingGraph:
    """A lone generic piece p0 with the given boundaries and boundary
    markings, nothing glued."""
    spec = DecoratedManifoldSpec("M", GENERIC, boundaries)
    return GluingGraph(
        manifolds=(spec,), pieces=(("p0", "M"),), identifications=(), boundary_markings=markings
    )


C6 = BackendHandle.finite_graph(cycle_graph(6))
C6_FLIP = SlotMap(C6, perm=(0, 5, 4, 3, 2, 1))
E0 = BoundarySpec("E0", handle=T, decoration=MU)

# Rules of the constructors and lookups that no input file reaches, each
# with the message it fails with: a reader builds every slot's data on its
# own backend, and a command asks only for the slots and pieces it knows.
CONSTRUCTOR_RULES = {
    "composing slot maps across backends": lambda: tmap(REFLECTION).compose(C6_FLIP),
    "disk set on E0 lives on the wrong backend": lambda: BoundarySpec(
        "E0", handle=T, decoration=MU, compressible=True, disks=DiskSet(C6, (0,))
    ),
    "manifold M has no boundary E9": lambda: core("M", MU).boundary("E9"),
    "unknown piece p9": lambda: one_piece(E0).spec_of("p9"),
    "slot p0:T0 carries no decoration": lambda: one_piece(
        E0, BoundarySpec("T0", toroidal=True)
    ).decoration(("p0", "T0")),
    "slot p0:E0 is unburied": lambda: one_piece(E0).psi(("p0", "E0")),
    "identification map on p0:E0 lives on the wrong backend": lambda: GluingGraph(
        manifolds=(core("M", MU),),
        pieces=(("p0", "M"), ("p1", "M")),
        identifications=(Identification("p0", "E0", "p1", "E0", C6_FLIP),),
    ),
    "boundary marking on p0:E0 lives on the wrong backend": lambda: one_piece(
        E0, markings=((("p0", "E0"), AbstractMarking(C6, (0,))),)
    ),
    "duplicate boundary marking": lambda: one_piece(
        E0, markings=((("p0", "E0"), MU), (("p0", "E0"), MU))
    ),
    "graph slot map needs a permutation and no matrix": lambda: SlotMap(C6, matrix=REFLECTION),
}


@pytest.mark.parametrize("message", list(CONSTRUCTOR_RULES))
def test_constructor_rules_name_their_fault(message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        CONSTRUCTOR_RULES[message]()


# ------------------------------------------- induced markings and heights


def test_induced_reflection_fixes_base_marking():
    x = two_piece_gluing(REFLECTION)
    table = induced_markings(x)
    assert table[("p1", "E0")] == MU
    assert table[("p0", "E0")] == MU
    assert slot_report(check_bounded_combinatorics(x, 6, 0), "p0", "E0").nu_source == "psi"


def test_induced_composite_map_example():
    # [[13,8],[8,5]] after the reflection carries (0/1, 1/0) to (8/5, 13/8)
    x = two_piece_gluing(SurfaceMap(13, 8, 8, 5) @ REFLECTION)
    table = induced_markings(x)
    assert table[("p1", "E0")] == mk("8/5", "13/8")


def test_unburied_slots_take_lambda_or_are_empty():
    spec = core("M", MU, MU)
    lam = mk("1/1", "1/0")
    x = GluingGraph(
        manifolds=(spec,),
        pieces=(("p0", "M"), ("p1", "M")),
        identifications=(Identification("p0", "E0", "p1", "E0", tmap(REFLECTION)),),
        boundary_markings=((("p0", "E1"), lam),),
    )
    table = induced_markings(x)
    assert table[("p0", "E1")] == lam
    assert [slot for slot, m in table.items() if m is None] == [("p1", "E1")]
    cert = check_bounded_combinatorics(x, 6, 0)
    assert slot_report(cert, "p0", "E1").nu_source == "lambda"
    assert slot_report(cert, "p1", "E1").nu_source == "empty"


def test_heights_frozen_values():
    # distance from (0/1, 1/0) to (8/5, 13/8) is 3: all four slope pairs
    # sit at Farey distance 3
    x = two_piece_gluing(SurfaceMap(13, 8, 8, 5) @ REFLECTION)
    h = heights(x)
    assert h[("p0", "E0")] == 3
    assert h[("p1", "E0")] == 3
    # a shared slope forces height 0
    y = two_piece_gluing(REFLECTION, mu0=mk("5/1", "1/0"), mu1=MU)
    assert heights(y)[("p1", "E0")] == 0
    assert heights(y)[("p0", "E0")] == 0


def test_heights_empty_nu_is_none():
    spec = core("M", MU, MU)
    x = GluingGraph(
        manifolds=(spec,),
        pieces=(("p0", "M"), ("p1", "M")),
        identifications=(Identification("p0", "E0", "p1", "E0", tmap(REFLECTION)),),
    )
    h = heights(x)
    assert h[("p0", "E1")] is None
    assert min(v for v in h.values() if v is not None) == 0


# ----------------------------------------------------------- certificates


def test_certificate_frozen_pass():
    x = two_piece_gluing(SurfaceMap(13, 8, 8, 5) @ REFLECTION)
    cert = check_bounded_combinatorics(x, 6, 3, denom_bound=64)
    assert cert.passed
    s0 = slot_report(cert, "p0", "E0")
    assert s0.height == 3 and s0.clause_a and s0.height_ok
    assert s0.projection is not None and s0.projection.certified
    # regression pin: the certified sweep reports a maximal annular
    # coefficient of 5 for this pair
    assert s0.projection.value == 5
    assert check_bounded_combinatorics(x, 6, 4, denom_bound=64).verdict == "fail"
    assert check_bounded_combinatorics(x, 4, 3, denom_bound=64).verdict == "fail"
    for r_bound, d_bound, message in ((0, 3, "R must be"), (6, -1, "D must be")):
        with pytest.raises(ValidationError, match=message):
            check_bounded_combinatorics(x, r_bound, d_bound)


def test_certificate_self_gluing_reflection():
    x = GluingGraph(
        manifolds=(core("M", MU),),
        pieces=(("p0", "M"),),
        identifications=(Identification("p0", "E0", "p0", "E0", tmap(REFLECTION)),),
    )
    assert heights(x)[("p0", "E0")] == 0
    cert = check_bounded_combinatorics(x, 6, 1)
    assert not cert.passed
    entry = slot_report(cert, "p0", "E0")
    assert entry.clause_a and entry.height_ok is False
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
    )
    table = induced_markings(x)
    nu = table[("p0", "E0")]
    assert nu is not None and Slope(0, 1) in nu.elements()
    height = heights(x)[("p0", "E0")]
    assert height == 3
    cert2 = check_bounded_combinatorics(x, 2, 0)
    entry = slot_report(cert2, "p0", "E0")
    assert entry.clause_b == MeridianClause(3, 0, False)
    assert not cert2.passed
    # at R=3 the meridian clause clears but the annular coefficients
    # (pinned: 8 at p0, 7 at p1) keep clause (a) failing until R=8
    cert3 = check_bounded_combinatorics(x, 3, 0)
    assert slot_report(cert3, "p0", "E0").clause_b == MeridianClause(3, 0, True)
    assert slot_report(cert3, "p0", "E0").projection.value == 8
    assert slot_report(cert3, "p1", "E0").projection.value == 7
    assert not cert3.passed
    assert check_bounded_combinatorics(x, 8, 0).passed


def test_clause_c_bundle_geodesic():
    # both cores decorated at the base: the induced ends agree and the
    # geodesic degenerates to the base slope, so the clause measures the
    # distance from the bundle decorations to 0/1
    fib = mk("55/34", "89/55")
    b = bundle("B", fib, fib)
    x = core_bundle_core(b, MU, MU)
    d_expected = min(distances_from(s, [Slope(0, 1)])[0] for s in fib.elements())
    assert d_expected >= 2
    cert = check_bounded_combinatorics(x, 1, 0)
    report = piece_report(cert, "b").clause_c
    assert report is not None
    assert report.distance_0 == d_expected
    assert report.distance_1 == d_expected
    assert not report.ok
    assert not cert.passed
    wide = check_bounded_combinatorics(x, d_expected, 0)
    assert piece_report(wide, "b").clause_c.ok


def test_clause_c_missing_induced_marking():
    b = bundle("B", MU, MU)
    x = GluingGraph(
        manifolds=(core("ML", MU), b),
        pieces=(("p0", "ML"), ("b", "B")),
        identifications=(Identification("p0", "E0", "b", "F0", tmap(REFLECTION)),),
    )
    report = piece_report(check_bounded_combinatorics(x, 3, 0), "b").clause_c
    assert report is not None and not report.ok
    assert "missing induced marking" in report.detail


def test_clause_d_twisted_cover():
    missing_cert = check_bounded_combinatorics(on_core(twisted("W", MU), "M0"), 3, 0)
    missing = piece_report(missing_cert, "w").clause_d
    assert missing is not None and not missing.ok
    assert missing.detail == "cover data missing"
    tw_covered = twisted("W", MU, MU)
    covered_cert = check_bounded_combinatorics(on_core(tw_covered, "M0"), 1, 0)
    report = piece_report(covered_cert, "w").clause_d
    assert report is not None and report.ok
    assert report.distance_0 == 0 and report.distance_1 == 0
    assert "double cover" in report.detail
    # alone and without lambda, the covered bundle has no induced marking
    lone = GluingGraph(manifolds=(tw_covered,), pieces=(("w", "W"),), identifications=())
    unmarked = piece_report(check_bounded_combinatorics(lone, 1, 0), "w").clause_d
    assert unmarked is not None and not unmarked.ok
    assert unmarked.detail == "missing induced marking on F0"


def test_clause_e_record_coverage():
    spec = DecoratedManifoldSpec(
        "M",
        GENERIC,
        (
            BoundarySpec("E0", handle=T, decoration=MU),
            BoundarySpec("E1", handle=T, decoration=MU),
        ),
        disk_records=(("E1",),),
        annulus_records=(("E0", "E1"),),
    )
    def build(lam):
        return GluingGraph(
            manifolds=(spec, core("N", MU)),
            pieces=(("p0", "M"), ("p1", "N")),
            identifications=(Identification("p0", "E0", "p1", "E0", tmap(REFLECTION)),),
            boundary_markings=lam,
        )

    bare = check_bounded_combinatorics(build(()), 3, 0)
    report = piece_report(bare, "p0")
    assert not report.clause_e.ok
    assert "disk(E1)" in report.clause_e.detail
    assert not bare.passed
    covered = check_bounded_combinatorics(build(((("p0", "E1"), MU),)), 3, 0)
    assert piece_report(covered, "p0").clause_e.ok
    assert covered.passed


def test_empty_nu_skips_height_gate():
    # the unburied undecorated slot contributes no height, so a large D
    # only constrains the buried pair
    spec = core("M", MU, MU)
    x = GluingGraph(
        manifolds=(spec, core("N", mk("8/5", "13/8"))),
        pieces=(("p0", "M"), ("p1", "N")),
        identifications=(Identification("p0", "E0", "p1", "E0", tmap(REFLECTION)),),
    )
    cert = check_bounded_combinatorics(x, 6, 3)
    assert slot_report(cert, "p0", "E1").height is None
    assert slot_report(cert, "p0", "E1").height_ok is None
    assert cert.passed


def test_graph_backend_gluing_and_unmodeled_caveat():
    h = BackendHandle.finite_graph(cycle_graph(6))
    flip = SlotMap(h, perm=(0, 5, 4, 3, 2, 1))
    x = GluingGraph(
        manifolds=(core("G", AbstractMarking(h, (0, 1))),),
        pieces=(("p0", "G"), ("p1", "G")),
        identifications=(Identification("p0", "E0", "p1", "E0", flip),),
    )
    table = induced_markings(x)
    assert table[("p1", "E0")].payload == (0, 5)
    assert heights(x)[("p1", "E0")] == 0
    cert = check_bounded_combinatorics(x, 2, 0)
    assert cert.passed
    entry = slot_report(cert, "p1", "E0")
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
    from glueforge.hypgraph import GraphProjection

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
    assert GluingGraph.from_json(json.loads(graph_text)) == validate_gluing(graph_text)
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
            GluingGraph.from_json(obj)


def test_each_graph_map_is_checked_once(monkeypatch):
    # a core, a trivial bundle and a core over C_12, every map v -> -v
    source = graph_stack()
    flip = source.identifications[0].map
    h = flip.handle
    text = source.canonical_json()
    checked = []
    real = FiniteGraph.preserved_by

    def counting(graph, perm):
        checked.append((graph, tuple(perm)))
        return real(graph, perm)

    monkeypatch.setattr(FiniteGraph, "preserved_by", counting)
    x = validate_gluing(text)
    check_bounded_combinatorics(x, 2, 0)
    collapse_ibundles(x, 2, 0)
    # the parse built its own graph, which checked each map once: the flip
    # is an involution, so it and the identity are the only maps
    m = x.decoration(("p0", "E0"))
    graph = m.handle.graph
    assert graph is not h.graph
    assert [g is graph for g, _ in checked] == [True, True]
    assert sorted(perm for _, perm in checked) == [tuple(range(12)), flip.perm]
    # applying a map does not check it again
    assert flip.apply(flip.apply(m)) == m and len(checked) == 2
    # a rejected map is rejected every time
    rotation = (*range(1, 12), 0)
    bad = tuple(reversed(rotation[:6])) + rotation[6:]
    for _ in range(2):
        with pytest.raises(ValidationError, match="not distance preserving"):
            SlotMap(h, perm=bad)
    assert [(g is h.graph, perm) for g, perm in checked[2:]] == [(True, bad)] * 2


def test_relabel_naturality():
    x = two_piece_gluing(SurfaceMap(13, 8, 8, 5) @ REFLECTION)
    y = relabel(x, {"p0": "left", "p1": "right"})
    tx = induced_markings(x)
    ty = induced_markings(y)
    assert ty[("left", "E0")] == tx[("p0", "E0")]
    assert ty[("right", "E0")] == tx[("p1", "E0")]
    cx = check_bounded_combinatorics(x, 6, 3)
    cy = check_bounded_combinatorics(y, 6, 3)
    assert slot_report(cy, "left", "E0").height == slot_report(cx, "p0", "E0").height
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
    return GluingGraph(tuple(manifolds), tuple(pieces), idents)


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
                    disks=DiskSet(T, tuple(g.on_slope(s) for s in disks.elements)),
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
        y = conjugate_slot(x, pid, bid, g)
        hx = heights(x)
        hy = heights(y)
        assert hx == hy
        cx = check_bounded_combinatorics(x, 4, 1)
        cy = check_bounded_combinatorics(y, 4, 1)
        assert cx.verdict == cy.verdict
        sx = slot_report(cx, pid, bid)
        sy = slot_report(cy, pid, bid)
        assert sx.height == sy.height
        assert sx.clause_b == sy.clause_b
        if sx.projection is None:
            assert sy.projection is None
        else:
            assert sx.projection.value == sy.projection.value


def report_numbers(capsys, path, command: str, *flags: str) -> tuple[int, dict]:
    """Exit code and result of one command without the input hash and the
    projection labels: a label is a curve in the slot's chart, which
    conjugation moves."""
    code = main([command, "--input", str(path), *flags])
    res = json.loads(capsys.readouterr().out)["result"]
    res.pop("input_sha256", None)
    for entry in res.get("slots", ()):
        if entry["projection"] is not None:
            del entry["projection"]["label"]
    return code, res


def test_action_invariance_of_report_and_collapse_at_depth(tmp_path, capsys):
    # conjugating one slot by a word of up to 400 letters moves nothing
    # that report prints at R = 3, 4, 6 but the labels, nor collapse's r_prime
    verdicts = set()
    for seed in range(50):
        rng = random.Random(seed)
        x = rand_gluing(rng)
        pid, bid = rng.choice(x.slots())
        y = conjugate_slot(x, pid, bid, rand_word(rng, 400))
        px, py = tmp_path / f"x{seed}.json", tmp_path / f"y{seed}.json"
        px.write_text(x.canonical_json())
        py.write_text(y.canonical_json())
        for r in ("3", "4", "6"):
            rx = report_numbers(capsys, px, "report", "--R", r)
            assert rx == report_numbers(capsys, py, "report", "--R", r), (seed, r)
            verdicts.add(rx[1]["verdict"])
        cx = report_numbers(capsys, px, "collapse")
        cy = report_numbers(capsys, py, "collapse")
        assert cx[0] == cy[0] and cx[1]["r_prime"] == cy[1]["r_prime"], seed
    assert verdicts == {"pass", "fail"}


def reversed_identifications(x: GluingGraph) -> GluingGraph:
    """x with every identification written from its other side: slots
    swapped, map inverted."""
    idents = tuple(
        Identification(i.piece_b, i.bdry_b, i.piece_a, i.bdry_a, i.map.inverse())
        for i in x.identifications
    )
    return GluingGraph(x.manifolds, x.pieces, idents, x.boundary_markings)


def side_free_numbers(capsys, path) -> tuple:
    """report's verdict and each slot's height and projection value, then
    collapse's exit code, ok, fibered, r_prime and each stack's K' and
    heights."""
    main(["report", "--input", str(path)])
    res = json.loads(capsys.readouterr().out)["result"]
    slots = [(s["height"], s["projection"] and s["projection"]["value"]) for s in res["slots"]]
    code = main(["collapse", "--input", str(path)])
    col = json.loads(capsys.readouterr().out)["result"]
    stacks = [(s["certificate"]["k_prime"], s["certificate"]["heights"]) for s in col["stacks"]]
    return res["verdict"], slots, code, col["ok"], col["fibered"], col["r_prime"], stacks


def relation_inputs() -> list[GluingGraph]:
    """The six examples, 30 torus and 30 graph stacks, two deep stacks, a
    cycle-graph stack of ten bundles and a stack with a twisted end."""
    rng = random.Random(1)
    gluings = [build() for build in example_builders().values()]
    gluings += [random_torus_stack(rng, k) for k in list(range(1, 7)) * 5]
    gluings += [random_cycle_stack(rng, rng.randrange(5, 40), k) for k in list(range(1, 7)) * 5]
    return gluings + [core_stack_core([200]), core_stack_core([1000]), wrap_cycle_stack(10), twisted_end()]


def test_reversing_identifications_moves_nothing_at_depth(tmp_path, capsys):
    # which side of an identification the file names first is a choice of
    # writing: report and collapse read the same numbers either way
    seen = set()
    for n, x in enumerate(relation_inputs()):
        px, py = tmp_path / f"x{n}.json", tmp_path / f"y{n}.json"
        px.write_text(x.canonical_json())
        py.write_text(reversed_identifications(x).canonical_json())
        numbers = side_free_numbers(capsys, px)
        assert numbers == side_free_numbers(capsys, py), n
        seen.add((numbers[0], numbers[3]))
    # both verdicts, each beside a collapse that passes and one that fails
    assert seen == {("pass", True), ("pass", False), ("fail", True), ("fail", False)}


# Two writings of a gluing that make collapse read a stack from its other
# end: piece ids handed out in reverse, which moves the start of a chain
# walk, and each trivial bundle written from its other boundary, which
# moves the slot a lone bundle is entered through
WALK_RELATIONS = {"renamed": reversed_names, "turned": reversed_bundles}


def collapse_result(capsys, path) -> tuple[int, dict]:
    """collapse's exit code and result."""
    code = main(["collapse", "--input", str(path)])
    return code, json.loads(capsys.readouterr().out)["result"]


def end_free_numbers(capsys, path) -> tuple:
    """collapse's exit code, ok, fibered and r_prime, and each stack's K',
    sorted heights, combined height, certificate verdict and new height:
    the numbers that do not depend on which end a stack is read from."""
    code, res = collapse_result(capsys, path)
    rows = []
    for stack in res["stacks"]:
        cert = stack["certificate"]
        rows.append([cert["k_prime"], sorted(cert["heights"]), cert["combined_height"], cert["ok"], stack["new_height"]])
    return code, res["ok"], res["fibered"], res["r_prime"], sorted(rows, key=json.dumps)


@pytest.mark.parametrize("relation", list(WALK_RELATIONS))
def test_reading_a_stack_from_its_other_end_moves_no_verdict(tmp_path, capsys, relation):
    for n, x in enumerate(relation_inputs()):
        px, py = tmp_path / f"x{n}.json", tmp_path / f"y{n}.json"
        px.write_text(x.canonical_json())
        py.write_text(WALK_RELATIONS[relation](x).canonical_json())
        assert end_free_numbers(capsys, px) == end_free_numbers(capsys, py), n


@pytest.mark.parametrize(
    "relation",
    [
        pytest.param(
            "renamed",
            marks=pytest.mark.xfail(
                strict=True,
                reason="read from its other end, a torus stack moves its end projection and its"
                " fellow-traveling constant: each stack's orientation comes from its least piece"
                " id (ROADMAP item 27)",
            ),
        ),
        "turned",
    ],
)
def test_reading_a_stack_from_its_other_end_moves_no_end_measure(tmp_path, capsys, relation):
    # renaming moved sup_value on 11 and fellow_traveling on 2 of the 30
    # torus stacks, and nothing on a graph stack, when this test was written
    for n, x in enumerate(relation_inputs()):
        px, py = tmp_path / f"x{n}.json", tmp_path / f"y{n}.json"
        px.write_text(x.canonical_json())
        py.write_text(WALK_RELATIONS[relation](x).canonical_json())
        ends = [
            sorted((s["sup_value"], s["certificate"]["fellow_traveling"]) for s in collapse_result(capsys, p)[1]["stacks"])
            for p in (px, py)
        ]
        assert ends[0] == ends[1], n


def model_systoles(capsys, path) -> tuple:
    """model's exit code, min_sampled_systole and each tube's min_systole."""
    code = main(["model", "--input", str(path)])
    res = json.loads(capsys.readouterr().out)["result"]
    rows = [row["min_systole"] for row in res["thickness"]["rows"]]
    return code, res["skeleton"]["stats"]["min_sampled_systole"], rows


@pytest.mark.xfail(
    strict=True,
    reason="model samples a tube in doubles from the end its identification names"
    " first, so reversing it moves the last digits (ROADMAP items 14 and 22)",
)
def test_reversing_identifications_moves_no_systole(tmp_path, capsys):
    # the torus stacks of the test above, whose tube systoles moved on 29
    # of 30 when this test was written
    rng = random.Random(1)
    for n, k in enumerate(list(range(1, 7)) * 5):
        x = random_torus_stack(rng, k)
        px, py = tmp_path / f"x{n}.json", tmp_path / f"y{n}.json"
        px.write_text(x.canonical_json())
        py.write_text(reversed_identifications(x).canonical_json())
        assert model_systoles(capsys, px) == model_systoles(capsys, py), n


# --------------------------------------------------------- serialization


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
    y = GluingGraph.from_json(obj)
    assert y == x and y.canonical_json() == x.canonical_json()


def test_validate_gluing_sources(tmp_path):
    x = full_featured_gluing()
    assert validate_gluing(x.canonical_json()) == x
    assert GluingGraph.from_json(x.to_json()) == x
    with pytest.raises(ParseError, match="malformed"):
        validate_gluing("{not json")
    with pytest.raises(ParseError):
        validate_gluing('{"manifolds": [{"id": "M"}]}')
    # a path is no source: a string is JSON text, and a path object is
    # refused, as is a decoded mapping, which GluingGraph.from_json reads
    path = tmp_path / "gluing.json"
    path.write_text(x.canonical_json(), encoding="utf-8")
    with pytest.raises(ParseError, match="malformed"):
        validate_gluing(str(path))
    with pytest.raises(ParseError, match="cannot read a gluing spec"):
        validate_gluing(path)
    with pytest.raises(ParseError, match="^cannot read a gluing spec from dict$"):
        validate_gluing({})


def test_certificate_reproducibility_bit_identical():
    x = full_featured_gluing()
    cert = check_bounded_combinatorics(x, 6, 0, denom_bound=34)
    reloaded = validate_gluing(x.canonical_json())
    cert2 = check_bounded_combinatorics(reloaded, 6, 0, denom_bound=34)
    assert canonical_dumps(cert.to_json()) == canonical_dumps(cert2.to_json())
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
        (BoundarySpec("F0", handle=T, decoration=MU),),
        bundle_map=tmap(SurfaceMap(0, 1, 1, 0)),
        cover=cover,
    )
    again = DecoratedManifoldSpec.from_json(tw.to_json(), {})
    assert again == tw
