"""The gluings that tier-1 tests share, built in one place: torus
constants and markings, cores, trivial, twisted and skew I-bundles,
compression bodies, chains and stacks of them, seeded map words, path and
complete graphs, and the builders of scripts/make_example_gluings.py.  A
test module imports its shared helpers from here and its references from
oracles.py, never from another test module."""

import importlib.util
import json
import pathlib
import random
import sys
from typing import Sequence

from glueforge.decompose import Splitting, SubPiece
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
)
from glueforge.hypgraph import FiniteGraph, cycle_graph
from glueforge.surface import AbstractMarking, BackendHandle, DiskSet
from glueforge.torus import IDENTITY, REFLECTION, FareyMarking, Slope, SurfaceMap, parse_slope

# ----------------------------------------------------- repository scripts

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


def example_builders() -> dict:
    """The builders of scripts/make_example_gluings.py, by example name."""
    return {name: build for name, build, _, _ in EXAMPLE_GLUINGS.EXAMPLES}


# the pieces that the examples, the benchmark inputs and the tests share;
# core_stack_core(ks) is a left core at the axis origin, axis bundles at
# the given powers, and a right core one reflection beyond the last bundle
T, A, MU = EXAMPLE_GLUINGS.T, EXAMPLE_GLUINGS.A, EXAMPLE_GLUINGS.MU
push, core, axis_bundle = EXAMPLE_GLUINGS.push, EXAMPLE_GLUINGS.core, EXAMPLE_GLUINGS.axis_bundle
core_stack_core = EXAMPLE_GLUINGS.core_stack_core

T_MAP = SurfaceMap(1, 1, 0, 1)
L_MAP = SurfaceMap(1, 0, 1, 1)


def path_graph(n: int) -> FiniteGraph:
    return FiniteGraph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def complete_graph(n: int) -> FiniteGraph:
    return FiniteGraph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def mk(base: str, transversal: str) -> AbstractMarking:
    return AbstractMarking(T, FareyMarking(parse_slope(base), parse_slope(transversal)))


def tmap(m: SurfaceMap) -> SlotMap:
    return SlotMap(T, matrix=m)


def _slot_map(m: SurfaceMap | SlotMap) -> SlotMap:
    return m if isinstance(m, SlotMap) else tmap(m)


# ------------------------------------------------------------ map words


def rand_word(rng: random.Random, length: int, orientation_preserving: bool = True) -> SurfaceMap:
    m = IDENTITY
    for _ in range(rng.randrange(1, length + 1)):
        m = m @ rng.choice([T_MAP, L_MAP, T_MAP.inverse(), L_MAP.inverse()])
    if rng.random() < 0.25:
        m = m @ SurfaceMap(-1, 0, 0, -1)
    if not orientation_preserving and rng.random() < 0.5:
        m = m @ REFLECTION
    return m


# elementary moves: the two parabolic generators, their inverses, the
# quarter turn and a reflection
MOVES = (
    SurfaceMap(1, 1, 0, 1),
    SurfaceMap(1, 0, 1, 1),
    SurfaceMap(1, -1, 0, 1),
    SurfaceMap(1, 0, -1, 1),
    SurfaceMap(0, -1, 1, 0),
    REFLECTION,
)


def random_map(rng: random.Random, length: int) -> SurfaceMap:
    g = IDENTITY
    for _ in range(length):
        g = g @ rng.choice(MOVES).power(rng.choice((1, 1, 1, 2, 3, rng.randrange(1, 60))))
    return g


# --------------------------------------------------------------- pieces


def bundle(
    mid: str, mu0: AbstractMarking, mu1: AbstractMarking, phi: SurfaceMap | SlotMap = REFLECTION
) -> DecoratedManifoldSpec:
    """Trivial I-bundle decorated mu0 on F0 and mu1 on F1, on their
    backend; a torus exchange map may be given as its matrix."""
    return DecoratedManifoldSpec(
        mid,
        TRIVIAL_IBUNDLE,
        (
            BoundarySpec("F0", handle=mu0.handle, decoration=mu0),
            BoundarySpec("F1", handle=mu1.handle, decoration=mu1),
        ),
        bundle_map=_slot_map(phi),
    )


def twisted(
    mid: str,
    dec: AbstractMarking,
    cover: AbstractMarking | None = None,
    exchange: SlotMap | None = None,
) -> DecoratedManifoldSpec:
    """Twisted I-bundle decorated dec on F0, on dec's backend, its exchange
    map the given one or the torus reflection; cover, if given, decorates
    both ends of its declared double cover, whose lifts are the identity
    and whose deck map is the exchange map."""
    exchange = exchange or tmap(REFLECTION)
    lift = dec.handle.identity_map()
    return DecoratedManifoldSpec(
        mid,
        TWISTED_IBUNDLE,
        (BoundarySpec("F0", handle=dec.handle, decoration=dec),),
        bundle_map=exchange,
        cover=None if cover is None else CoverData(cover, cover, lift, lift, exchange),
    )


# gluing and exchange maps that are not involutions (determinant -1,
# nonzero trace), so a map and its inverse, or a conjugation and its
# reverse, give different results
SKEW_1 = SurfaceMap(1, 1, 1, 0)
SKEW_2 = SurfaceMap(2, 1, 1, 0)
SKEW_3 = SurfaceMap(0, 1, 1, 2)


def skew_bundle(mid: str, k: int, exchange: SurfaceMap) -> DecoratedManifoldSpec:
    return bundle(mid, push(A.power(k)), push(exchange.inverse() @ A.power(k)), exchange)


def body_spec(mid: str, meridian: str = "0/1", extra: int = 1) -> DecoratedManifoldSpec:
    ds = DiskSet(T, (parse_slope(meridian),))
    bs = [BoundarySpec("E0", handle=T, decoration=MU, compressible=True, disks=ds)]
    for i in range(extra):
        bs.append(BoundarySpec(f"E{i+1}", handle=T, decoration=mk("1/1", "1/0")))
    return DecoratedManifoldSpec(mid, COMPRESSION_BODY, tuple(bs))


# -------------------------------------------------------------- gluings


def chain(
    *specs: DecoratedManifoldSpec, maps: Sequence[SurfaceMap | SlotMap] | None = None
) -> GluingGraph:
    """Glue the pieces in a row, each to the next, by the given maps (torus
    matrices or slot maps), reflections by default.  Piece ids are p0,
    p1, ...; bundle slots are traversed F0 -> F1."""
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
        idents.append(Identification(f"p{i}", out_b, f"p{i+1}", in_b, _slot_map(maps[i])))
    return GluingGraph(
        manifolds=tuple(dict.fromkeys(specs, None)),
        pieces=pieces,
        identifications=tuple(idents),
    )


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
    )


def on_core(end: DecoratedManifoldSpec, mid: str = "M") -> GluingGraph:
    """The one-boundary piece end (piece w) glued by the reflection to a
    core mid at MU (piece p0)."""
    return GluingGraph(
        manifolds=(core(mid, MU), end),
        pieces=(("p0", mid), ("w", end.id)),
        identifications=(Identification("p0", "E0", "w", "F0", tmap(REFLECTION)),),
    )


def twisted_end() -> GluingGraph:
    return on_core(twisted("W", push(A.power(2)), push(A.power(2))))


def skew_fibered_chain() -> GluingGraph:
    return GluingGraph(
        manifolds=(skew_bundle("B0", 1, SKEW_2), skew_bundle("B1", 3, SKEW_3)),
        pieces=(("b0", "B0"), ("b1", "B1")),
        identifications=(Identification("b0", "F1", "b1", "F0", tmap(SKEW_1)),),
    )


def wrap_cycle_stack(k: int) -> GluingGraph:
    """k bundles over C_(4k+6) glued by the identity, bundle i decorated at
    4i and 4i + 2: the stack path winds 4k - 2 steps forward without
    revisiting a vertex and ends 8 steps from its start, so K' = (4k - 2)/8."""
    n = 4 * k + 6
    h = BackendHandle.finite_graph(cycle_graph(n))
    same = SlotMap(h, perm=tuple(range(n)))

    def at(v: int) -> AbstractMarking:
        return AbstractMarking(h, (v % n,))

    bundles = [bundle(f"B{i}", at(4 * i), at(4 * i + 2), same) for i in range(k)]
    return chain(core("ML", at(-2)), *bundles, core("MR", at(4 * k)), maps=[same] * (k + 1))


def random_torus_stack(rng: random.Random, k: int) -> GluingGraph:
    """k bundles whose decorations are pushed by seeded words, so that
    the stack path zigzags and often revisits a vertex."""
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
    h = BackendHandle.finite_graph(cycle_graph(n))
    flip = SlotMap(h, perm=tuple(-v % n for v in range(n)))

    def end() -> AbstractMarking:
        v = rng.randrange(n)
        vertices = {(v + d) % n for d in rng.sample(range(3), rng.randrange(1, 4))}
        return AbstractMarking(h, tuple(sorted(vertices)))

    # the seeded draws run left core, then F0 and F1 of each bundle, then
    # right core
    specs = [core("ML", end())]
    specs += [bundle(f"B{i}", end(), end(), flip) for i in range(k)]
    return chain(*specs, core("MR", end()), maps=[flip] * (k + 1))


# the decorations of graph_stack, which its backend declares by name
GRAPH_STACK_MARKINGS = {"left": (0, 1), "f0": (3, 4), "f1": (8, 9), "right": (6, 7)}


def graph_stack() -> GluingGraph:
    """A core, a trivial I-bundle and a core over C_12, glued by v -> -v;
    every backend declares GRAPH_STACK_MARKINGS."""
    h = BackendHandle.finite_graph(cycle_graph(12), GRAPH_STACK_MARKINGS)
    flip = SlotMap(h, perm=tuple(-v % 12 for v in range(12)))

    def edge(name: str) -> AbstractMarking:
        return AbstractMarking(h, GRAPH_STACK_MARKINGS[name])

    b = bundle("B0", edge("f0"), edge("f1"), flip)
    return chain(core("ML", edge("left")), b, core("MR", edge("right")), maps=[flip, flip])


def graph_stack_by_name() -> str:
    """The JSON text of graph_stack with each decoration written as its
    name in the markings table, {"name": ...}, in place of its vertices."""
    obj = graph_stack().to_json()
    names = {vs: name for name, vs in GRAPH_STACK_MARKINGS.items()}
    for manifold in obj["manifolds"]:
        for b in manifold["boundaries"]:
            b["decoration"] = {"name": names[tuple(b["decoration"]["vertices"])]}
    return json.dumps(obj)


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
    )


def full_featured_gluing() -> GluingGraph:
    ds = DiskSet(T, (Slope(0, 1), Slope(1, 1)))
    body = DecoratedManifoldSpec(
        "C",
        COMPRESSION_BODY,
        (
            BoundarySpec("E0", handle=T, decoration=MU, compressible=True, disks=ds),
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
        identifications=(Identification("c", "E0", "m", "E0", tmap(A @ REFLECTION)),),
        boundary_markings=((("c", "E1"), mk("3/2", "1/1")),),
    )
