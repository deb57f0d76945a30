"""Skeleton assembly tests: tube geometry, sampling, thickness, export."""

import json
import math
import os
import pathlib
import random
import subprocess
import sys
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import glueforge
from glueforge import cli
from glueforge.errors import ParseError, ValidationError
from glueforge.gluing import (
    GENERIC,
    TRIVIAL_IBUNDLE,
    BoundarySpec,
    DecoratedManifoldSpec,
    GluingGraph,
    Identification,
    SlotMap,
)
from glueforge.halfplane import (
    PRECISION_BITS,
    TeichPoint,
    curve_length,
    exact_tube_length,
    exact_tube_samples,
    precision_demand,
    sigma_of_marking,
    teich_distance,
)
from glueforge.hypgraph import cycle_graph
from glueforge.ioutil import canonical_dumps
from glueforge.model import (
    DEFAULT_SAMPLES,
    FIBER_RESOLUTION,
    ModelSkeleton,
    TubeBlock,
    build_skeleton,
    export_skeleton,
    sample_tube,
    verify_thickness,
)
from glueforge.record import replace
from glueforge.surface import AbstractMarking, BackendHandle, as_torus_marking
from glueforge.torus import REFLECTION, FareyMarking, Slope, SurfaceMap, parse_slope
from glueforge.transforms import collapse_ibundles
from oracles import load_skeleton, reference_tube, systole
from test_transforms import core_stack_core, example_builders, load_module

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


def core(mid: str, dec: AbstractMarking) -> DecoratedManifoldSpec:
    return DecoratedManifoldSpec(mid, GENERIC, (BoundarySpec("E0", handle=T, decoration=dec),))


def core_bundle_core(k: int, left=None, right=None) -> GluingGraph:
    b = DecoratedManifoldSpec(
        "B",
        TRIVIAL_IBUNDLE,
        (
            BoundarySpec("F0", handle=T, decoration=push(A.power(k))),
            BoundarySpec("F1", handle=T, decoration=push(REFLECTION @ A.power(k))),
        ),
        bundle_map=tmap(REFLECTION),
    )
    return GluingGraph(
        manifolds=(
            core("ML", left if left is not None else MU),
            b,
            core("MR", right if right is not None else push(A.power(2 * k) @ REFLECTION)),
        ),
        pieces=(("p0", "ML"), ("p1", "B"), ("p2", "MR")),
        identifications=(
            Identification("p0", "E0", "p1", "F0", tmap(REFLECTION)),
            Identification("p1", "F1", "p2", "E0", tmap(REFLECTION)),
        ),
    ).validate()


def single_free(dec: AbstractMarking, lam: AbstractMarking | None) -> GluingGraph:
    spec = DecoratedManifoldSpec(
        "M", GENERIC, (BoundarySpec("E0", handle=T, decoration=dec),)
    )
    markings = () if lam is None else ((("p0", "E0"), lam),)
    return GluingGraph(
        manifolds=(spec,),
        pieces=(("p0", "M"),),
        identifications=(),
        boundary_markings=markings,
    ).validate()


# ----------------------------------------------------------------- sampling


def vertical_tube(y: float) -> TubeBlock:
    a, b = TeichPoint(0.0, 1.0), TeichPoint(0.0, y)
    return TubeBlock(
        ("p", "E0"), ("q", "E0"), "internal",
        sigma_a=a, sigma_b=b, length=teich_distance(a, b),
    )


def test_sample_vertical_tube_midpoint():
    smps = sample_tube(vertical_tube(4.0), 3)
    assert [(s.point.x, round(s.point.y, 12)) for s in smps] == [
        (0.0, 1.0),
        (0.0, 2.0),
        (0.0, 4.0),
    ]
    # at modulus 4i the short curve is the fiber direction, length 1/2
    assert smps[2].systole == pytest.approx(0.5)
    assert str(smps[2].shortest) == "inf"
    assert [s.t for s in smps] == [0.0, 0.5, 1.0]


def point_tube(z: TeichPoint) -> TubeBlock:
    return TubeBlock(
        ("p", "E0"), ("q", "E0"), "internal", sigma_a=z, sigma_b=z, degenerate=True
    )


def sampled_skeleton(tube: TubeBlock, n: int) -> ModelSkeleton:
    tube = replace(tube, samples=sample_tube(tube, n))
    return ModelSkeleton(
        pieces=(),
        tubes=(tube,),
        incidence=(("p:E0", "q:E0"),),
        total_tube_length=tube.length,
        min_sampled_systole=min(s.systole for s in tube.samples),
    )


def test_thick_check_frozen():
    assert systole(TeichPoint(0.0, 4.0)) == pytest.approx(0.5)
    assert verify_thickness(sampled_skeleton(point_tube(TeichPoint(0.0, 1.0)), 2), 0.9).ok
    assert not verify_thickness(sampled_skeleton(point_tube(TeichPoint(0.0, 4.0)), 2), 0.9).ok


def test_segment_thick_check_samples():
    sk = sampled_skeleton(vertical_tube(4.0), 3)
    rep = verify_thickness(sk, 0.4)
    assert rep.rows[0].min_systole == pytest.approx(0.5)
    assert rep.ok
    assert not verify_thickness(sk, 0.6).ok
    with pytest.raises(ValidationError):
        sample_tube(vertical_tube(4.0), 1)


def test_tube_length_is_half_plane_distance():
    tube = vertical_tube(4.0)
    assert tube.length == pytest.approx(0.5 * math.log(4.0))


def test_sample_degenerate_tube():
    z = TeichPoint(0.5, 2.0)
    tube = TubeBlock(
        ("p", "E0"), ("q", "E0"), "internal", sigma_a=z, sigma_b=z, degenerate=True
    )
    smps = sample_tube(tube, 7)
    assert len(smps) == 2
    assert smps[0].point == smps[1].point == z
    assert smps[0].systole == smps[1].systole == pytest.approx(systole(z))


def test_sample_tube_input_errors():
    with pytest.raises(ValidationError, match="at least 2"):
        sample_tube(vertical_tube(4.0), 1)
    comb = TubeBlock(("p", "E0"), ("q", "E0"), "internal", combinatorial=True)
    with pytest.raises(ValidationError, match="no geometry"):
        sample_tube(comb, 3)


def test_tube_block_invariants():
    z, w = TeichPoint(0.0, 1.0), TeichPoint(0.0, 2.0)
    with pytest.raises(ValidationError, match="unknown tube kind"):
        TubeBlock(("p", "E0"), ("q", "E0"), "sideways", sigma_a=z, sigma_b=w, length=1.0)
    with pytest.raises(ValidationError, match="positive length"):
        TubeBlock(("p", "E0"), ("q", "E0"), "internal", sigma_a=z, sigma_b=w)
    with pytest.raises(ValidationError, match="degenerate tube"):
        TubeBlock(
            ("p", "E0"), ("q", "E0"), "internal",
            sigma_a=z, sigma_b=z, degenerate=True, length=0.5,
        )
    with pytest.raises(ValidationError, match="endpoint geometry"):
        TubeBlock(("p", "E0"), ("q", "E0"), "internal", sigma_a=z, length=1.0)


# ----------------------------------------------------------------- assembly


def test_skeleton_anchors_and_incidence():
    x = core_bundle_core(3)
    sk = build_skeleton(x, samples=33)
    assert [p.piece for p in sk.pieces] == ["p0", "p1", "p2"]
    for block in sk.pieces:
        spec = x.spec_of(block.piece)
        for bid, anchor in block.anchors:
            expected = sigma_of_marking(as_torus_marking(spec.boundary(bid).decoration))
            assert anchor.close_to(expected)
    # one tube per identification, same slots, same order
    assert sk.incidence == (("p0:E0", "p1:F0"), ("p1:F1", "p2:E0"))
    assert len(sk.tubes) == len(x.identifications)


def test_skeleton_tube_endpoints_follow_gluing():
    x = core_bundle_core(3)
    sk = build_skeleton(x, samples=33)
    tube = sk.tubes[0]
    partner, pushm = x.psi(("p0", "E0"))
    nu = pushm.apply(x.decoration(partner))
    assert tube.sigma_a.close_to(sigma_of_marking(as_torus_marking(MU)))
    assert tube.sigma_b.close_to(sigma_of_marking(as_torus_marking(nu)))
    assert tube.length == pytest.approx(teich_distance(tube.sigma_a, tube.sigma_b))
    # both joints of the power-3 chain have the same span
    assert sk.tubes[1].length == pytest.approx(tube.length)
    assert sk.total_tube_length == pytest.approx(2 * tube.length)


def test_skeleton_thickness_frozen_example():
    sk = build_skeleton(core_bundle_core(3), samples=33)
    report = verify_thickness(sk, 0.3)
    assert report.ok
    assert [r.thick for r in report.rows] == [True, True]
    assert sk.min_sampled_systole == pytest.approx(0.9457416090031204)
    assert {r.cf_coefficient for r in report.rows} == {2}


def test_skeleton_quotient_tube_records_involution():
    spec = DecoratedManifoldSpec(
        "M", GENERIC, (BoundarySpec("E0", handle=T, decoration=mk("1/1", "1/0")),)
    )
    x = GluingGraph(
        manifolds=(spec,),
        pieces=(("p0", "M"),),
        identifications=(Identification("p0", "E0", "p0", "E0", tmap(REFLECTION)),),
    ).validate()
    sk = build_skeleton(x, samples=5)
    tube = sk.tubes[0]
    assert tube.kind == "quotient"
    assert tube.involution is not None and tube.involution.matrix == REFLECTION
    assert tube.sigma_a.close_to(TeichPoint(1.0, 1.0))
    assert tube.sigma_b.close_to(TeichPoint(-1.0, 1.0))
    assert tube.length == pytest.approx(0.5 * math.acosh(3.0))
    assert not tube.degenerate


def test_skeleton_quotient_tube_degenerate_at_fixed_point():
    # the reflection fixes the square modulus, so the quotient tube is the
    # product block with its two identical samples
    x = GluingGraph(
        manifolds=(core("M", MU),),
        pieces=(("p0", "M"),),
        identifications=(Identification("p0", "E0", "p0", "E0", tmap(REFLECTION)),),
    ).validate()
    tube = build_skeleton(x, samples=9).tubes[0]
    assert tube.degenerate and len(tube.samples) == 2


def self_glued(dec: AbstractMarking, involution: SurfaceMap) -> GluingGraph:
    return GluingGraph(
        manifolds=(core("M", dec),),
        pieces=(("p0", "M"),),
        identifications=(Identification("p0", "E0", "p0", "E0", tmap(involution)),),
    ).validate()


def test_self_glued_piece_with_float_midpoint_drift(tmp_path):
    # the involution fixes the exact tube midpoint, but the float midpoint
    # lands about 5e-8 away from its image; the skeleton must still build
    dec = AbstractMarking(T, FareyMarking(Slope(21899, 30384), Slope(6029, 8365)))
    x = self_glued(dec, SurfaceMap(4, -1, 15, -4))
    tube = build_skeleton(x).tubes[0]
    assert tube.kind == "quotient" and not tube.degenerate
    path = tmp_path / "self_glued.json"
    path.write_text(x.canonical_json())
    src = str(pathlib.Path(glueforge.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "glueforge.cli", "model", "--input", str(path)],
        capture_output=True,
        text=True,
        timeout=120,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode in (0, 1), proc.stderr
    assert "Traceback" not in proc.stderr


WORDS = st.lists(st.booleans(), min_size=10, max_size=30)


def word(letters: list[bool]) -> SurfaceMap:
    m = SurfaceMap(1, 0, 0, 1)
    for t in letters:
        m = m @ (T_MAP if t else L_MAP)
    return m


@settings(max_examples=60, deadline=None)
@given(WORDS, st.booleans(), WORDS)
def test_self_glued_pieces_always_build(conj, swap, dec_word):
    # every orientation-reversing involution is conjugate to the reflection
    # or to the coordinate swap, and any such self-gluing is valid input
    g = word(conj)
    involution = g @ (SurfaceMap(0, 1, 1, 0) if swap else REFLECTION) @ g.inverse()
    x = self_glued(push(word(dec_word)), involution)
    build_skeleton(x, samples=5)


def test_thin_distinct_endpoints_make_a_real_tube():
    # both ends of the second tube sit below y = 1e-9, where an absolute
    # closeness test took them for one point; sigma(mu)^-1 sigma(nu) does
    # not fix i, so the tube is sampled along its length
    tube = build_skeleton(core_stack_core([12], right_power=13)).tubes[1]
    assert tube.sigma_a.y < 1e-9 and tube.sigma_b.y < 1e-9
    assert not tube.degenerate
    assert tube.length == pytest.approx(0.9624, abs=1e-4)
    assert len(tube.samples) == DEFAULT_SAMPLES


# ------------------------------------------------------------ deep tubes

# log phi^2, the translation length of the golden axis [[2, 1], [1, 1]]
GOLDEN = 2 * math.log((1 + math.sqrt(5)) / 2)
# the exact minimum systole along a golden tube, reached between samples
GOLDEN_MIN_SYSTOLE = 0.9457416


def demand(tube: TubeBlock) -> int:
    return max(map(precision_demand, tube.ends))


def double_error(bits: int) -> float:
    """Bound on the relative error of a double-path length, systole or
    point (in units of y) at this precision demand: measured against the
    decimal path, the worst was 2.3e-12 at 16 bits, 2.5e-10 at 22, 6e-9 at
    27, 1.1e-7 at 33 and 3.2e-6 at 35 and 38, so 2^(bits - 50) keeps a
    margin of 8 or more."""
    return 2.0 ** (bits - 50)


@pytest.mark.parametrize("k", [8, 9, 12, 30, 60, 100, 180])
def test_golden_axis_stacks_are_uniformly_thick(k):
    # bounded combinatorics: every tube is k log phi^2 long and no sample
    # falls below the exact minimum; at k = 8, 9 and 12 the tube from the
    # left core has ends within 40 bits and keeps the double path's error
    sk = build_skeleton(core_stack_core([k]))
    assert len(sk.tubes) == 2
    for tube in sk.tubes:
        tol = 1e-12 if demand(tube) > PRECISION_BITS else double_error(demand(tube))
        assert tube.length == pytest.approx(k * GOLDEN, rel=tol)
        for smp in tube.samples:
            assert GOLDEN_MIN_SYSTOLE - 1e-9 - tol <= smp.systole <= 1 + tol
    assert sk.tubes[1].ends is not None and demand(sk.tubes[1]) > PRECISION_BITS


def test_axis_eight_is_thick(tmp_path, capsys):
    # once 0.5255 from the absolute float samples of the 44-bit tube
    path = tmp_path / "axis8.json"
    path.write_text(core_stack_core([8]).canonical_json())
    assert cli.main(["model", "--eps0", "0.6", "--input", str(path)]) == 0
    rows = json.loads(capsys.readouterr().out)["result"]["thickness"]["rows"]
    assert len(rows) == 2
    assert all(abs(row["min_systole"] - 1.0) <= 1e-9 for row in rows)


def double_path_inputs() -> list[GluingGraph]:
    """The examples and the benchmark's double-path skeleton inputs: thin
    tubes, shallow stacks of seeds 1-3 and the axis ladder."""
    bench = load_module("perfbench/inputs.py", "perfbench_inputs")
    out = [build() for build in example_builders().values()]
    out += [bench.thin_gluing(c) for c in (50, 120, 300, 800)]
    for seed in (1, 2, 3):
        rng = random.Random(seed)
        for i in range(8):
            ks = bench.axis_ladder(rng, i % 3 + 1, range(1, 4), range(1, 4))
            out.append(core_stack_core(ks, ks[-1] + rng.randrange(1, 4)))
    out += [core_stack_core([k]) for k in (5, 6, 7)]
    out.append(core_stack_core([12], right_power=13))
    return out


def test_decimal_path_agrees_with_the_double_path_within_38_bits():
    seen = 0
    for x in double_path_inputs():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # free slots without lambda
            sk = build_skeleton(x)
        for tube in sk.tubes:
            if tube.combinatorial or demand(tube) > PRECISION_BITS:
                continue  # the stack example's last tube has 55 bits
            bits = demand(tube)
            assert bits <= 38
            tol = double_error(bits)
            if not tube.degenerate:
                assert tube.length == pytest.approx(exact_tube_length(*tube.ends), rel=tol)
            exact = exact_tube_samples(*tube.ends, len(tube.samples))
            for smp, (t, point, length, slope) in zip(tube.samples, exact, strict=True):
                assert smp.t == t
                assert abs(smp.point.x - point.x) <= tol * point.y
                assert smp.point.y == pytest.approx(point.y, rel=tol)
                assert smp.systole == pytest.approx(length, rel=tol)
                if smp.shortest != slope:  # a tie: both slopes are shortest
                    assert curve_length(point, smp.shortest) == pytest.approx(length, rel=tol)
            seen += 1
    assert seen >= 60


def reference_cases() -> list[tuple[SurfaceMap, SurfaceMap]]:
    """Tube ends for the reference: golden stacks past 40 bits, every tube
    of the examples (the stack example has 55 bits), and seeded
    self-gluings of 70-85 bits.  The first self-gluing is the plain
    reflection, whose quotient tube is symmetric about x = 0, so its
    middle sample has x = 0 exactly; the conjugated ones have no
    vertical symmetry."""
    xs = [core_stack_core([k]) for k in (9, 30, 60)]
    xs += [build() for build in example_builders().values()]
    rng = random.Random(19)
    for i in range(6):
        g = word([rng.random() < 0.5 for _ in range(24 * (i > 0))])
        involution = g @ REFLECTION @ g.inverse()
        xs.append(self_glued(push(word([rng.random() < 0.5 for _ in range(24)])), involution))
    out = []
    for x in xs:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            out += [t.ends for t in build_skeleton(x, samples=2).tubes if not t.combinatorial]
    return out


def test_decimal_path_matches_the_high_precision_reference():
    # every double the rounding test accepts is the one a 600-digit
    # evaluation by other formulas rounds to
    bits, middles, degenerate = [], [], 0
    for ends in reference_cases():
        bits.append(max(map(precision_demand, ends)))
        length, expected = reference_tube(*ends, 7)
        assert exact_tube_length(*ends) == length
        n = 2 if length == 0.0 else 7  # a degenerate tube has one point
        if length == 0.0:
            expected = [expected[0], expected[-1]]
            degenerate += 1
        samples = exact_tube_samples(*ends, n)
        got = [(p.x, p.y, systole, (slope.p, slope.q)) for _, p, systole, slope in samples]
        assert got == expected, ends
        if n == 7:
            middles.append(got[3][0])
    assert min(bits) < 10 and max(bits) > 300
    assert degenerate and 0.0 in middles


def test_skeleton_boundary_tube_and_missing_marking_warning():
    lam = mk("50/1", "1/0")
    sk = build_skeleton(single_free(MU, lam), samples=101)
    tube = sk.tubes[0]
    assert tube.kind == "boundary" and tube.name == "p0:E0--free"
    assert tube.sigma_b.close_to(TeichPoint(50.0, 1.0))
    with pytest.warns(RuntimeWarning, match="boundary tube omitted"):
        bare = build_skeleton(single_free(MU, None))
    assert bare.tubes == ()
    assert bare.min_sampled_systole is None


def test_skeleton_lambda_override_argument():
    # the boundary tube ends at the gluing's own free marking
    sk = build_skeleton(single_free(MU, mk("1/1", "1/0")), samples=5)
    assert sk.tubes[0].kind == "boundary"
    assert sk.tubes[0].sigma_b.close_to(TeichPoint(1.0, 1.0))


def test_thin_tube_detected_by_long_cf_coefficient():
    # a free marking 50 twists away forces the connecting geodesic through
    # modulus about 25i where the fiber systole drops to about 1/5
    sk = build_skeleton(single_free(MU, mk("50/1", "1/0")), samples=101)
    report = verify_thickness(sk, 0.3)
    assert not report.ok
    row = report.rows[0]
    assert not row.thick
    assert row.min_systole == pytest.approx(0.2, abs=0.01)
    assert row.cf_coefficient == 50
    assert report.correlation[0][1] == 50


def test_thickness_correlation_orders_by_coefficient():
    spec = DecoratedManifoldSpec(
        "M",
        GENERIC,
        (
            BoundarySpec("E0", handle=T, decoration=MU),
            BoundarySpec("E1", handle=T, decoration=MU),
        ),
    )
    x = GluingGraph(
        manifolds=(spec,),
        pieces=(("p0", "M"),),
        identifications=(),
        boundary_markings=(
            (("p0", "E0"), mk("50/1", "1/0")),
            (("p0", "E1"), mk("3/1", "1/0")),
        ),
    ).validate()
    report = verify_thickness(build_skeleton(x, samples=51), 0.3)
    assert [entry[1] for entry in report.correlation] == [50, 3]
    thin = {entry[0]: entry[2] for entry in report.correlation}
    assert thin["p0:E0--free"] < thin["p0:E1--free"]


def test_thickness_all_degenerate_passes_at_anchor_systole():
    x = GluingGraph(
        manifolds=(core("M", MU),),
        pieces=(("p0", "M"),),
        identifications=(),
        boundary_markings=((("p0", "E0"), MU),),
    ).validate()
    sk = build_skeleton(x, samples=5)
    assert sk.tubes[0].degenerate
    assert verify_thickness(sk, 1.0).ok
    assert not verify_thickness(sk, 1.0 + 1e-9).ok
    with pytest.raises(ValidationError, match="positive"):
        verify_thickness(sk, 0.0)


def test_graph_slots_build_combinatorial_tubes():
    h = BackendHandle.finite_graph(cycle_graph(6))
    gm = AbstractMarking(h, (0,))
    spec = DecoratedManifoldSpec(
        "G",
        GENERIC,
        (
            BoundarySpec("E0", handle=h, decoration=gm),
            BoundarySpec("E1", handle=h, decoration=gm),
        ),
    )
    x = GluingGraph(
        manifolds=(spec,),
        pieces=(("p0", "G"),),
        identifications=(
            Identification("p0", "E0", "p0", "E1", SlotMap(h, perm=(0, 5, 4, 3, 2, 1))),
        ),
    ).validate()
    sk = build_skeleton(x, samples=5)
    tube = sk.tubes[0]
    assert tube.combinatorial and tube.samples == ()
    assert sk.pieces[0].anchors == (("E0", None), ("E1", None))
    assert sk.min_sampled_systole is None
    assert verify_thickness(sk, 0.3).rows == ()


def test_skeleton_naturality_under_relabeling():
    x = core_bundle_core(2)
    renamed = GluingGraph(
        manifolds=x.manifolds,
        pieces=tuple((pid.replace("p", "zz"), mid) for pid, mid in x.pieces),
        identifications=tuple(
            Identification(
                i.slot_a[0].replace("p", "zz"), i.slot_a[1],
                i.slot_b[0].replace("p", "zz"), i.slot_b[1], i.map,
            )
            for i in x.identifications
        ),
    ).validate()
    sk = build_skeleton(x, samples=7)
    skr = build_skeleton(renamed, samples=7)
    assert [p.piece for p in skr.pieces] == ["zz0", "zz1", "zz2"]
    for a, b in zip(sk.tubes, skr.tubes):
        assert b.slot_a == (a.slot_a[0].replace("p", "zz"), a.slot_a[1])
        assert b.length == a.length
        assert [s.systole for s in b.samples] == [s.systole for s in a.samples]


# ------------------------------------------------------------------- export


def test_export_json_round_trip_byte_identical():
    sk = build_skeleton(core_bundle_core(3), samples=9)
    blob = canonical_dumps(sk.to_json())
    again = load_skeleton(blob)
    assert canonical_dumps(again.to_json()) == blob
    assert again.total_tube_length == sk.total_tube_length
    assert again.incidence == sk.incidence


def test_export_json_schema_and_split_recorded():
    sk = build_skeleton(single_free(MU, MU), samples=5)
    obj = sk.to_json()
    assert obj["schema"] == "skeleton/1"
    assert obj["horizontal_split"] == "zero-connection-product"
    assert len(obj["pieces"]) == 1 and len(obj["tubes"]) == 1


def test_export_piece_without_tubes():
    with pytest.warns(RuntimeWarning):
        sk = build_skeleton(single_free(MU, None))
    obj = sk.to_json()
    assert len(obj["pieces"]) == 1
    assert obj["tubes"] == []


def test_export_obj_vertex_count():
    sk = build_skeleton(core_bundle_core(2), samples=5)
    text = export_skeleton(sk).decode()
    verts = [line for line in text.splitlines() if line.startswith("v ")]
    faces = [line for line in text.splitlines() if line.startswith("f ")]
    names = [line for line in text.splitlines() if line.startswith("o ")]
    assert len(verts) == 2 * 5 * FIBER_RESOLUTION
    assert len(faces) == 2 * (5 - 1) * FIBER_RESOLUTION * 2
    assert names == ["o p0:E0--p1:F0", "o p1:F1--p2:E0"]


def test_export_obj_deterministic():
    sk = build_skeleton(core_bundle_core(2), samples=5)
    assert export_skeleton(sk) == export_skeleton(sk)


def test_export_errors():
    with pytest.raises(ParseError, match="not valid JSON"):
        load_skeleton(b"{nope")
    with pytest.raises(ParseError, match="nest too deeply"):
        load_skeleton(b"[" * 100_000)
    with pytest.raises(ParseError, match="unsupported skeleton schema"):
        load_skeleton(b'{"schema": "skeleton/99"}')


# ------------------------------------------------- collapse compatibility


def collapsed_direct_length(x) -> float:
    res = collapse_ibundles(x, 8, 0)
    assert res.ok
    return sum(t.length for t in build_skeleton(res.collapsed, samples=5).tubes)


def concatenated_length(x) -> float:
    sk = build_skeleton(x, samples=5)
    span = teich_distance(
        sigma_of_marking(as_torus_marking(x.decoration(("p1", "F0")))),
        sigma_of_marking(
            as_torus_marking(tmap(REFLECTION).apply(x.decoration(("p1", "F1"))))
        ),
    )
    return sum(t.length for t in sk.tubes) + span


def test_collapse_exact_on_axis_families():
    # every balanced point of the chain sits on one half-plane geodesic,
    # so the concatenation is itself geodesic: zero fellowing gap, in
    # line with the zero fellow-traveling reported by the certificate
    for k in range(1, 6):
        x = core_bundle_core(k)
        res = collapse_ibundles(x, 6, 0)
        assert res.stacks[0].certificate.fellow_traveling == 0
        assert concatenated_length(x) == pytest.approx(
            collapsed_direct_length(x), abs=1e-9
        )


def test_collapse_gap_regression_off_axis():
    # twisting both outer cores one unit off the axis bends the chain;
    # the direct tube cuts the corner, and the measured per-power gap of
    # this family stays under two units per power
    for k in range(1, 6):
        x = core_bundle_core(
            k,
            left=push(T_MAP.inverse()),
            right=push(T_MAP @ A.power(2 * k) @ REFLECTION),
        )
        gap = concatenated_length(x) - collapsed_direct_length(x)
        assert 0.0 <= gap <= 2.0 * k
