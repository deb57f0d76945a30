"""Acceptance gate: ten criteria covering the exact Farey backend, the
equivariance of every derived quantity, the stack and collapse
certificates, hyperbolic-graph stability, projection bounds along
geodesics, the marking-to-Teichmueller comparison, skeleton thickness,
round-trip determinism, and decomposition exactness.

Each criterion is one test; the -v line of the run is its pass/fail
verdict, and a PASS summary with the measured constants is printed for
inspection.  Frozen numbers are regression values measured on the seeded
generators below; loosening them needs a deliberate re-measurement.
"""

import itertools
import json
import random
import time
from fractions import Fraction

from glueforge.certify import check_bounded_combinatorics
from glueforge.cli import main as cli_main
from glueforge.decompose import full_and_maximal_decomposition
from glueforge.farey import (
    AnnulusLabel,
    annular_projection_distance,
    farey_distance,
    farey_geodesic,
)
from glueforge.gluing import (
    GENERIC,
    TRIVIAL_IBUNDLE,
    BoundarySpec,
    DecoratedManifoldSpec,
    GluingGraph,
    Identification,
    heights,
    validate_gluing,
)
from glueforge.halfplane import shortest_marking, sigma_of_marking, teich_distance
from glueforge.hypgraph import FiniteGraph, all_pairs_distances
from glueforge.hyplab import check_qconvex_stability
from glueforge.ioutil import canonical_dumps
from glueforge.model import build_skeleton
from glueforge.surface import AbstractMarking, geodesic_between, marking_distance, sup_projection
from glueforge.torus import REFLECTION, Slope, SurfaceMap, is_adjacent
from glueforge.transforms import collapse_ibundles, combine_stack
from oracles import (
    CompressionStep,
    FareyOracle,
    build_compression,
    load_skeleton,
    marking_diameter,
    unit_interval_slopes,
)
from test_transforms import (
    A,
    MU,
    T,
    axis_bundle,
    body_spec,
    chain,
    core,
    core_stack_core,
    mk,
    push,
    tmap,
)

T_MAP = SurfaceMap(1, 1, 0, 1)
L_MAP = SurfaceMap(1, 0, 1, 1)
IDEN = SurfaceMap(1, 0, 0, 1)


def random_word(rng: random.Random, n: int, dets=(1, -1)) -> SurfaceMap:
    m = IDEN
    for _ in range(n):
        m = m @ (T_MAP if rng.random() < 0.5 else L_MAP)
    if rng.choice(dets) == -1:
        m = m @ REFLECTION
    return m


def random_marking(rng: random.Random, size: int = 8) -> AbstractMarking:
    return push(random_word(rng, rng.randrange(0, size)))


def _line(n: int, name: str, detail: str) -> None:
    print(f"criterion {n} ({name}): PASS [{detail}]")


# -------------------------------------------------------------- criteria


def test_criterion_01_farey_exactness():
    # continued-fraction descent against mediant-tessellation BFS, every
    # slope pair with denominators <= 34
    t0 = time.time()
    oracle = FareyOracle(endpoint_denom=34, graph_denom=64)
    endpoints = oracle.endpoints
    pairs = 0
    mismatches = 0
    for a in endpoints:
        sa = Slope(*a)
        for b in endpoints:
            if farey_distance(sa, Slope(*b)) != oracle.distance(a, b):
                mismatches += 1
            pairs += 1
    elapsed = time.time() - t0
    assert pairs >= 10**5
    assert mismatches == 0
    assert elapsed <= 300.0
    _line(1, "Farey exactness", f"{pairs} pairs, 0 mismatches, {elapsed:.1f}s")


def test_criterion_02_action_invariance():
    # distances are invariant under any mapping class; exact projection
    # equality is checked on the orientation-preserving ones, where the
    # annular coefficients transform without the anti-Moebius conjugation
    rng = random.Random(4242)
    proj_checked = 0
    for _ in range(1000):
        g = random_word(rng, rng.randrange(0, 10))
        a = random_word(rng, rng.randrange(0, 8)).on_slope(Slope(0, 1))
        b = random_word(rng, rng.randrange(0, 8)).on_slope(Slope(1, 0))
        assert farey_distance(g.on_slope(a), g.on_slope(b)) == farey_distance(a, b)
        m1, m2 = random_marking(rng), random_marking(rng)
        assert marking_distance(tmap(g).apply(m1), tmap(g).apply(m2)) == marking_distance(m1, m2)
        if g.det == 1:
            proj_checked += 1
            assert (
                sup_projection(tmap(g).apply(m1), tmap(g).apply(m2)).value
                == sup_projection(m1, m2).value
            )

    def build(d, maps, bmap) -> GluingGraph:
        mid = DecoratedManifoldSpec(
            "B",
            TRIVIAL_IBUNDLE,
            (
                BoundarySpec("F0", handle=T, decoration=d[1]),
                BoundarySpec("F1", handle=T, decoration=d[2]),
            ),
            bundle_map=tmap(bmap),
        )
        return GluingGraph(
            manifolds=(core("ML", d[0]), mid, core("MR", d[3])),
            pieces=(("p0", "ML"), ("p1", "B"), ("p2", "MR")),
            identifications=(
                Identification("p0", "E0", "p1", "F0", tmap(maps[0])),
                Identification("p1", "F1", "p2", "E0", tmap(maps[1])),
            ),
        ).validate()

    for _ in range(100):
        d = [random_marking(rng) for _ in range(4)]
        maps = [random_word(rng, rng.randrange(0, 5), dets=(-1,)) for _ in range(2)]
        g = random_word(rng, rng.randrange(0, 6))
        gi = g.inverse()
        x = build(d, maps, REFLECTION)
        y = build(
            [AbstractMarking(T, g.on_marking(m.payload)) for m in d],
            [g @ m @ gi for m in maps],
            g @ REFLECTION @ gi,
        )
        assert list(heights(x).items()) == list(heights(y).items())
    assert proj_checked > 400
    _line(
        2,
        "action invariance",
        f"1000 map/pair instances, {proj_checked} det +1 projections, 100 conjugated gluings",
    )


def test_criterion_03_collapse_certificate():
    # 200 core-stack-core runs: exact combined height against the additive
    # lower bound with the instance K', and the two-end projection bound
    # 2R + 2 whenever the per-step projection clause held
    rng = random.Random(3407)
    worst_sup = 0
    for trial in range(200):
        length = rng.randrange(1, 7)
        k = rng.randrange(1, 11)
        ks = [k]
        for _ in range(length - 1):
            k += rng.randrange(5, 41)
            ks.append(k)
        bundles = [axis_bundle(f"B{i}", p) for i, p in enumerate(ks)]
        left = core("ML", MU)
        right = core("MR", push(A.power(ks[-1] + rng.randrange(5, 41)) @ REFLECTION))
        x = chain(left, *bundles, right)
        cert = combine_stack(x, [f"p{i+1}" for i in range(length)], 1, 6)
        assert cert.ok, (trial, ks)
        assert cert.k_prime is not None
        lower = Fraction(sum(cert.heights)) / cert.k_prime - cert.k_prime
        assert cert.combined_height >= lower, (trial, ks)
        if cert.projections_ok:
            s = sup_projection(cert.nu[0], cert.nu[-1]).value
            worst_sup = max(worst_sup, s)
            assert s <= 2 * 6 + 2, (trial, ks, s)
    assert worst_sup == 5  # frozen regression value for this seed
    _line(3, "collapse certificate", f"200 instances, 0 violations, worst end sup {worst_sup}")


def test_criterion_04_single_collapse_height_identity():
    # new height clears both old heights minus 2R and the diameter slack
    rng = random.Random(1105)
    meaningful = 0
    for _ in range(100):
        k = rng.randrange(0, 9)
        r_power = rng.randrange(2 * k + 1, 2 * k + 31)
        x = core_stack_core([k], right_power=r_power)
        res = collapse_ibundles(x, 6, 0)
        assert res.ok
        st = res.stacks[0]
        mu0 = x.decoration(("p1", "F0"))
        mu1 = tmap(REFLECTION).apply(x.decoration(("p1", "F1")))
        nu0 = x.psi(("p1", "F0"))[1].apply(x.decoration(("p0", "E0")))
        nu1 = tmap(REFLECTION).apply(x.psi(("p1", "F1"))[1].apply(x.decoration(("p2", "E0"))))
        bound = (
            marking_distance(mu0, nu0)
            + marking_distance(mu0, nu1)
            - 2 * 6
            - marking_diameter(mu0, mu1)
        )
        assert st.new_height is not None
        assert st.new_height >= bound
        if bound > 0:
            meaningful += 1
    assert meaningful >= 60
    _line(
        4,
        "single-collapse height identity",
        f"100 instances, 0 violations, {meaningful} with positive bound",
    )


def test_criterion_05_quasiconvex_stability():
    # every stability table on 500 random connected graphs is finite with
    # r' monotone non-increasing in h0, for all subsets of size <= 3
    def random_connected(rng: random.Random, n: int) -> FiniteGraph:
        edges = set()
        for v in range(1, n):
            edges.add((rng.randrange(v), v))
        for _ in range(rng.randrange(0, n)):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                edges.add((min(u, v), max(u, v)))
        return FiniteGraph(n, tuple(sorted(edges)))

    rng = random.Random(505)
    reports = 0
    for _ in range(500):
        n = rng.randrange(2, 10)
        table = all_pairs_distances(random_connected(rng, n))
        for size in (1, 2, 3):
            for sub in itertools.combinations(range(n), size):
                rep = check_qconvex_stability(table, sub, 1)
                reports += 1
                rs = [rp for _, rp in rep.table]
                assert all(isinstance(rp, int) for rp in rs)
                assert all(rs[i] >= rs[i + 1] for i in range(len(rs) - 1)), (sub, rep.table)
    assert reports == 21784  # frozen for this seed
    _line(5, "quasiconvex stability", f"{reports} tables, all finite and monotone")


def test_criterion_06_bounded_geodesic_projection():
    # annuli kept farther than 1 from a geodesic see both its endpoints
    # within projection distance 4; exhaustive on a small window, sampled
    # annuli across the full denominator-34 endpoint set
    annuli = [Slope(*t) for t in unit_interval_slopes(64)]
    worst = 0
    checked = 0

    def scan(endpoints, pick):
        nonlocal worst, checked
        for i in range(len(endpoints)):
            for j in range(i + 1, len(endpoints)):
                geo = farey_geodesic(endpoints[i], endpoints[j])
                for w in pick(geo):
                    if any(w == v or is_adjacent(w, v) for v in geo):
                        continue
                    d = annular_projection_distance(AnnulusLabel(w), endpoints[i], endpoints[j])
                    worst = max(worst, d)
                    checked += 1
                    assert d <= 4, (endpoints[i], endpoints[j], w, d)

    scan([Slope(*t) for t in unit_interval_slopes(8)], lambda geo: annuli)
    rng = random.Random(60433)
    scan([Slope(*t) for t in unit_interval_slopes(34)], lambda geo: rng.sample(annuli, 4))
    assert checked > 5 * 10**5
    assert worst == 2  # frozen regression value
    _line(6, "bounded geodesic projection", f"{checked} projections, max observed {worst}")


def test_criterion_07_marking_teichmueller_comparison():
    # one multiplicative-additive constant serving all four bounds of the
    # two displayed comparisons, fitted on bounded-twist pairs
    rng = random.Random(2710)
    rows = []
    for _ in range(500):
        m = IDEN
        for _ in range(rng.randrange(0, 26)):
            m = m @ (T_MAP if rng.random() < 0.5 else L_MAP)
        mu, nu = MU.payload, m.on_marking(MU.payload)
        dc = marking_distance(AbstractMarking(T, mu), AbstractMarking(T, nu))
        s, t = sigma_of_marking(mu), sigma_of_marking(nu)
        dt = teich_distance(s, t)
        dc2 = marking_distance(
            AbstractMarking(T, shortest_marking(s)), AbstractMarking(T, shortest_marking(t))
        )
        rows.append((dc, dt, dc2))

    def fits(c: float) -> bool:
        return all(
            dc / c - c <= dt <= c * dc + c and dt / c - c <= dc2 <= c * dt + c
            for dc, dt, dc2 in rows
        )

    c = 1.0
    while not fits(c):
        c += 0.25
    assert c == 2.25  # frozen regression value for this seed
    assert c < 10
    _line(7, "marking-Teichmueller comparison", f"500 pairs, fitted c = {c}")


def test_criterion_08_thickness_correlation():
    # gluings whose certificate passes at R = 6 stay uniformly thick; a
    # relative continued-fraction coefficient >= 50 in a boundary tube
    # forces a thin sample, pinned by the measured law min ~ sqrt(2/coeff)
    rng = random.Random(88)
    suite_min = None
    passing = 0
    for _ in range(6):
        length = rng.randrange(1, 4)
        k = rng.randrange(1, 5)
        ks = [k]
        for _ in range(length - 1):
            k += rng.randrange(2, 6)
            ks.append(k)
        x = core_stack_core(ks, right_power=ks[-1] + rng.randrange(2, 6))
        cert = check_bounded_combinatorics(x, 6, 1, 1)
        assert cert.passed
        passing += 1
        s = build_skeleton(x)
        assert s.min_sampled_systole is not None
        suite_min = (
            s.min_sampled_systole
            if suite_min is None
            else min(suite_min, s.min_sampled_systole)
        )
    assert suite_min >= 0.1
    assert suite_min >= 0.75  # frozen 0.9457 with 20% slack

    two_sided = DecoratedManifoldSpec(
        "c0",
        GENERIC,
        (
            BoundarySpec("E0", handle=T, decoration=MU),
            BoundarySpec("E1", handle=T, decoration=MU),
        ),
    )
    thin_mins = []
    for coeff in (50, 120, 300, 800):
        thin = GluingGraph(
            manifolds=(two_sided, core("c1", push(REFLECTION))),
            pieces=(("p0", "c0"), ("p1", "c1")),
            identifications=(Identification("p0", "E0", "p1", "E0", tmap(REFLECTION)),),
            boundary_markings=((("p0", "E1"), mk(f"{coeff}/1", "1/0")),),
        ).validate()
        thin_mins.append(build_skeleton(thin).min_sampled_systole)
    assert thin_mins == sorted(thin_mins, reverse=True)
    assert thin_mins[0] <= 0.24  # frozen 0.1999 with 20% slack, coeff 50
    assert thin_mins[-1] <= 0.06  # coeff 800 reaches the 0.05 mark
    _line(
        8,
        "thickness correlation",
        f"{passing} passing gluings, floor {suite_min:.4f}; thin mins "
        + ", ".join(f"{v:.4f}" for v in thin_mins),
    )


def test_criterion_09_round_trips_and_determinism(tmp_path, capsys):
    twisted = GluingGraph(
        manifolds=(core("c0", MU),),
        pieces=(("p0", "c0"),),
        identifications=(Identification("p0", "E0", "p0", "E0", tmap(REFLECTION)),),
    ).validate()
    compression = build_compression(
        core("M0", MU),
        [CompressionStep("c0", body_spec("C0"), ("p0", "E0"), tmap(REFLECTION))],
    )
    instances = [core_stack_core([3]), twisted, compression]
    for x in instances:
        text = x.canonical_json()
        assert validate_gluing(text).canonical_json() == text

    skeleton_text = canonical_dumps(build_skeleton(core_stack_core([3])).to_json())
    assert canonical_dumps(load_skeleton(skeleton_text).to_json()) == skeleton_text

    path = tmp_path / "chain.json"
    path.write_text(core_stack_core([3]).canonical_json())
    outputs = {}
    for command in ("report", "model"):
        runs = []
        for _ in range(2):
            code = cli_main([command, "--input", str(path), "--seed", "7"])
            assert code == 0
            runs.append(capsys.readouterr().out)
        assert runs[0] == runs[1]
        outputs[command] = runs[0]
    assert json.loads(outputs["report"])["params"]["seed"] == 7
    _line(9, "round trips and determinism", "3 fixpoints, skeleton bytes stable, 2 commands replayed")


def test_criterion_10_decomposition_partition():
    # every identification lands in exactly one component or the cut list,
    # and regluing the components along the cut reproduces the input
    rng = random.Random(23)
    for _ in range(100):
        steps = []
        n = rng.randrange(1, 5)
        for i in range(n):
            steps.append(
                CompressionStep(
                    f"c{i}",
                    body_spec(f"C{i}", extra=rng.randrange(1, 3)),
                    ("p0", "E0") if i == 0 else (f"c{i-1}", "E1"),
                    tmap(REFLECTION),
                )
            )
        x = build_compression(core("M0", MU), steps, budget=len(steps) + 1)
        res = full_and_maximal_decomposition(x)
        buckets = [i for c in res.components for i in c.identifications] + list(res.cut)
        assert sorted(map(id, buckets)) == sorted(map(id, res.full.identifications))
        assert sorted(p for c in res.components for p in c.pieces) == sorted(
            p for p, _ in res.full.pieces
        )
        assert res.reglue() == res.full
    _line(10, "decomposition partition", "100 instances, exact partition and reglue")
