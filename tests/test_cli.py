"""Front-end tests: exit codes, report envelopes, determinism, and the
export paths, all through main(argv)."""

import gc
import hashlib
import importlib
import json
import math
import os
import pathlib
import pkgutil
import random
import re
import sys
import time
from fractions import Fraction

import pytest

import glueforge
from glueforge import cli, farey, gluing, halfplane, hyplab, model
from glueforge.cli import (
    EXIT_FIBERED,
    EXIT_INTERNAL,
    EXIT_INVARIANT,
    EXIT_PARSE,
    EXIT_PASS,
    EXIT_VERDICT,
    _any_int_digits,
    main,
)
from glueforge.errors import ValidationError
from glueforge.gluing import GluingGraph, Identification, SlotMap, validate_gluing
from glueforge.hypgraph import FiniteGraph, GraphProjection, cycle_graph
from glueforge.ioutil import canonical_dumps, sha256_of_text
from glueforge.model import DEFAULT_SAMPLES
from glueforge.surface import AbstractMarking, BackendHandle
from glueforge.torus import IDENTITY, INFINITY, REFLECTION, FareyMarking, Slope
from builders import (
    SKEW_1,
    SKEW_2,
    A,
    MU,
    T,
    axis_bundle,
    bundle,
    chain,
    core,
    core_stack_core,
    example_builders,
    graph_stack,
    mk,
    push,
    skew_bundle,
    skew_fibered_chain,
    split_gluing,
    split_spec,
    tmap,
    twisted,
    twisted_end,
    wrap_cycle_stack,
)
from oracles import CLI, cold

P4 = "4 3\n0 1\n1 2\n2 3\n"
C6 = "6 6\n0 1\n1 2\n2 3\n3 4\n4 5\n5 0\n"


# Stacks of two to thirty axis bundles with large height gaps
STACKS = {
    "stack100_600": [100, 600],
    "stack100_1100": [100, 1100],
    "stack50_300": [50, 100, 150, 200, 250, 300],
    "stack50_750": list(range(50, 800, 50)),
    "stack50_1500": list(range(50, 1550, 50)),
}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Input corpus shared by the whole module, one file per scenario."""
    root = tmp_path_factory.mktemp("cli")

    def save(name: str, text: str) -> str:
        path = root / name
        path.write_text(text)
        return str(path)

    def self_glued(marking: AbstractMarking, mid: str = "c0", glue: SlotMap = tmap(REFLECTION)) -> GluingGraph:
        """One core whose boundary, decorated by marking, is glued to
        itself by glue, the reflection by default."""
        to_self = Identification("p0", "E0", "p0", "E0", glue)
        return GluingGraph(manifolds=(core(mid, marking),), pieces=(("p0", mid),), identifications=(to_self,))

    out = {"dir": root}
    out["chain"] = save("chain.json", core_stack_core([3]).canonical_json())

    cores = chain(core("c0", MU), core("c1", push(REFLECTION)))
    out["cores"] = save("cores.json", cores.canonical_json())

    fibered = GluingGraph(
        manifolds=(axis_bundle("B", 2),),
        pieces=(("p0", "B"),),
        identifications=(Identification("p0", "F1", "p0", "F0", tmap(REFLECTION)),),
    )
    out["fibered"] = save("fibered.json", fibered.canonical_json())

    # a self-identification by the identity, which no graph can hold: the
    # text of a sound one with its map replaced
    fixed = self_glued(MU).to_json()
    fixed["identifications"][0]["map"] = tmap(IDENTITY).to_json()
    out["fixed"] = save("fixed.json", canonical_dumps(fixed))

    # structurally fine, semantically broken: compressible slot, no disks
    broken = json.loads(cores.canonical_json())
    broken["manifolds"][0]["boundaries"][0]["compressible"] = True
    out["nodisks"] = save("nodisks.json", json.dumps(broken))

    thin = GluingGraph(
        manifolds=(core("c0", MU, MU), core("c1", push(REFLECTION))),
        pieces=(("p0", "c0"), ("p1", "c1")),
        identifications=(Identification("p0", "E0", "p1", "E0", tmap(REFLECTION)),),
        boundary_markings=((("p0", "E1"), mk("50/1", "1/0")),),
    )
    out["thin"] = save("thin.json", thin.canonical_json())

    # large gluing heights: a long continued fraction and a deep stack
    out["inv1000"] = save("inv1000.json", self_glued(mk("1/1000", "0/1")).canonical_json())
    out["deep200"] = save("deep200.json", core_stack_core([200]).canonical_json())
    out["deep1000"] = save("deep1000.json", core_stack_core([1000]).canonical_json())
    for name, ks in STACKS.items():
        out[name] = save(f"{name}.json", core_stack_core(ks).canonical_json())
    # a 10,001-digit denominator: past the interpreter's default int/str
    # limit, which only the CLI lifts
    with _any_int_digits():
        huge = self_glued(AbstractMarking(T, FareyMarking(Slope(1, 10**10000), Slope(0, 1))))
        out["huge"] = save("huge.json", huge.canonical_json())
    out["deep30"] = save("deep30.json", core_stack_core([30]).canonical_json())
    # the benchmark's self-glued cores (BENCH_INPUTS): decorated 1/300 and
    # 1/1000, and (F1002/F1001, F1001/F1000) with F1 = F2 = 1
    fib = [1, 1]
    while len(fib) < 1002:
        fib.append(fib[-2] + fib[-1])
    for name, base, transversal in (
        ("inv300", "1/300", "0/1"),
        ("inv1000", "1/1000", "0/1"),
        ("fib1000", f"{fib[1001]}/{fib[1000]}", f"{fib[1000]}/{fib[999]}"),
    ):
        out[f"bench:{name}"] = save(f"bench-{name}.json", self_glued(mk(base, transversal), "M").canonical_json())
    # 38 bits, the deepest double-path input of the benchmark
    out["axis7"] = save("axis7.json", core_stack_core([7]).canonical_json())

    for name, build in example_builders().items():
        out[f"example:{name}"] = save(f"example-{name}.json", build().canonical_json())
    out["twisted-end"] = save("twisted-end.json", twisted_end().canonical_json())
    out["split"] = save("split.json", split_gluing().canonical_json())
    # two split pieces on either side of a two-boundary core, ids out of
    # sorted order: three components, and the node order is not the
    # report's order
    outer, inner_core, inner_body = split_spec()
    split3 = GluingGraph(
        manifolds=(outer, inner_core, inner_body, core("N", push(REFLECTION), push(REFLECTION))),
        pieces=(("z", "M"), ("a", "N"), ("m", "M")),
        identifications=(
            Identification("z", "E0", "a", "E0", tmap(REFLECTION)),
            Identification("a", "E1", "m", "E0", tmap(REFLECTION)),
        ),
        boundary_markings=((("z", "E1"), mk("2/1", "3/1")), (("m", "E1"), mk("3/1", "1/0"))),
    )
    out["split3"] = save("split3.json", split3.canonical_json())

    h = BackendHandle.finite_graph(cycle_graph(6))

    graph_pair = GluingGraph(
        manifolds=(core("c0", AbstractMarking(h, (0, 1))), core("c1", AbstractMarking(h, (2, 3)))),
        pieces=(("p0", "c0"), ("p1", "c1")),
        identifications=(
            Identification("p0", "E0", "p1", "E0", SlotMap(h, perm=(0, 5, 4, 3, 2, 1))),
        ),
    )
    out["graph_pair"] = save("graph_pair.json", graph_pair.canonical_json())
    # a graph slot glued to itself by the reflection v -> -v, and a
    # compressible graph boundary with its disk set
    flip = SlotMap(h, perm=tuple(-v % 6 for v in range(6)), graph_reversing=True)
    out["graph_self"] = save("graph_self.json", self_glued(AbstractMarking(h, (0, 1)), glue=flip).canonical_json())
    graph_disks = GluingGraph(
        manifolds=(core("c0", AbstractMarking(h, (0, 1)), disks={0: (3,)}), graph_pair.manifolds[1]),
        pieces=graph_pair.pieces,
        identifications=graph_pair.identifications,
    )
    out["graph_disks"] = save("graph_disks.json", graph_disks.canonical_json())
    # a twisted bundle on the graph, with the reflection for its exchange
    # map and a declared cover
    w = AbstractMarking(h, (2, 3))
    graph_twisted = GluingGraph(
        manifolds=(graph_pair.manifolds[0], twisted("W", w, w, flip)),
        pieces=(("p0", "c0"), ("w", "W")),
        identifications=(Identification("p0", "E0", "w", "F0", graph_pair.identifications[0].map),),
    )
    out["graph_twisted"] = save("graph_twisted.json", graph_twisted.canonical_json())

    # one spec with a torus and a graph boundary, glued along the torus
    mixed = GluingGraph(
        manifolds=(core("m", MU, AbstractMarking(h, (0, 1))),),
        pieces=(("p0", "m"), ("p1", "m")),
        identifications=(Identification("p0", "E0", "p1", "E0", tmap(REFLECTION)),),
    )
    out["mixed"] = save("mixed.json", mixed.canonical_json())

    out["graph_stack"] = save("graph_stack.json", graph_stack().canonical_json())

    # a torus stack whose path backtracks along the axis: not a geodesic,
    # so its certificate scans the pairs of the path
    m0 = bundle("B0", MU, push(REFLECTION @ A.power(6)))
    m1 = bundle("B1", push(A.power(3)), push(REFLECTION @ A.power(9)))
    backtrack = chain(core("ML", MU), m0, m1, core("MR", push(A.power(9) @ REFLECTION)))
    out["backtrack"] = save("backtrack.json", backtrack.canonical_json())
    # twenty bundles whose path winds around C_86 without revisiting a
    # vertex: a detour, K' = 39/4
    out["wrap20"] = save("wrap20.json", wrap_cycle_stack(20).canonical_json())

    out["bad"] = save("bad.json", '{"pieces": [')
    out["p4"] = save("p4.txt", P4)
    out["c6"] = save("c6.txt", C6)
    return out


def run(capsys, argv: list[str]):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def envelope(out: str) -> dict:
    obj = json.loads(out)
    assert list(obj.keys()) == ["command", "input_sha256", "params", "result"]
    return obj


# ---------------------------------------------------------------- validate


def test_validate_pass(files, capsys):
    code, out, err = run(capsys, ["validate", "--input", files["chain"]])
    assert code == EXIT_PASS
    assert err == ""
    obj = envelope(out)
    assert obj["command"] == "validate"
    assert obj["result"] == {
        "valid": True,
        "pieces": 3,
        "identifications": 2,
        "unburied": [],
    }


def test_validate_lists_unburied_slots(files, capsys):
    code, out, _ = run(capsys, ["validate", "--input", files["thin"]])
    assert code == EXIT_PASS
    assert json.loads(out)["result"]["unburied"] == ["p0:E1"]


def test_envelope_hashes_input_and_records_params(files, capsys):
    # each command echoes the flags it reads, in the order of cli.COMMANDS
    text = pathlib.Path(files["chain"]).read_text()
    for argv, params in (
        (["validate"], []),
        (["report", "--denom-bound", "5", "--R", "7", "--D", "2"], [("R", 7), ("D", 2), ("denom_bound", 5)]),
        (["collapse", "--h", "2", "--R", "7"], [("R", 7), ("h", 2), ("denom_bound", None)]),
        (["decompose"], []),
        (["model", "--format", "json", "--eps0", "0.2"], [("eps0", 0.2), ("format", "json")]),
    ):
        code, out, _ = run(capsys, [*argv, "--input", files["chain"]])
        assert code == EXIT_PASS, argv
        obj = envelope(out)
        assert obj["input_sha256"] == sha256_of_text(text)
        assert list(obj["params"].items()) == params
    code, out, _ = run(capsys, ["hyplab", "--input", files["c6"], "--R", "7"])
    assert code == EXIT_PASS
    obj = envelope(out)
    assert obj["input_sha256"] == sha256_of_text(C6)
    assert list(obj["params"].items()) == [("R", 7)]


def test_malformed_json_is_a_parse_error(files, capsys):
    code, out, err = run(capsys, ["validate", "--input", files["bad"]])
    assert code == EXIT_PARSE
    assert out == ""
    assert err.startswith("parse error:")


@pytest.mark.parametrize(
    "path, value",
    [
        ("manifolds", 1),
        ("identifications", 5),
        ("pieces", True),
        ("manifolds.0.boundaries", None),
        ("manifolds.0.boundaries", True),
        ("manifolds.0.disk_records", [1]),
        ("identifications.0", {"a": ["p0", "E0"], "b": ["p1", "F0"]}),
        ("identifications.0.map", [[float("-inf"), 0], [0, 1]]),
        ("manifolds.0.splitting", {"identifications": [{"a": 1, "b": 2}]}),
        ("manifolds.0.boundaries.0.backend", {"kind": "graph", "n": 4, "markings": [1]}),
        # numbers and slots of the wrong JSON type are never coerced
        ("identifications.0.map", [[1.9, 0], [0, -1.2]]),
        ("identifications.0.map", [[True, False], [False, -1]]),
        ("identifications.0.map", [["1", "0"], ["0", "-1"]]),
        ("identifications.0.a", {"p0": 0, "E0": 1}),
        ("graph_stack:identifications.0.map.perm", [-v % 12 + 0.5 for v in range(12)]),
        ("graph_stack:manifolds.0.boundaries.0.backend.n", "200"),
        # torus slopes are strings
        ("manifolds.0.boundaries.0.decoration.base", 0),
        ("example:compression:manifolds.1.boundaries.0.disks", [0]),
        # a repeated graph declaration is checked as the first one is,
        # although true == 1
        ("graph_stack:manifolds.2.boundaries.0.backend.edges.0.1", True),
        ("graph_stack:manifolds.2.boundaries.0.backend.edges.0.1", "1"),
    ],
)
def test_wrong_typed_containers_are_parse_errors(files, capsys, tmp_path, path, value):
    # a path names a field of the chain example, or of another input
    # given before a colon
    name, _, path = path.rpartition(":")
    bad = edited_input(files[name or "chain"], path, value, tmp_path)
    code, out, err = run(capsys, ["validate", "--input", bad])
    assert code == EXIT_PARSE
    assert out == ""
    assert err.startswith("parse error:")
    assert err.count("\n") == 1


def _set(path: str, value: object):
    """An edit that sets the field at a dotted path."""
    return lambda obj: set_field(obj, path, value)


def _toroidal(**fields: object):
    """An edit that gives the chain example's ML a toroidal boundary T with
    the given fields."""

    def edit(obj: dict) -> dict:
        obj["manifolds"][0]["boundaries"].append({"id": "T", "toroidal": True, **fields})
        return obj

    return edit


def _then(*edits):
    """An edit that makes the given edits in turn."""

    def edit(obj: dict) -> dict:
        for each in edits:
            obj = each(obj)
        return obj

    return edit


def _graph_boundary(bid: str, *vertices: int) -> dict:
    """Boundary bid on a 6-cycle backend, decorated by the given vertices."""
    backend = {"kind": "graph", "n": 6, "edges": [[i, (i + 1) % 6] for i in range(6)]}
    return {"id": bid, "backend": backend, "decoration": {"vertices": list(vertices)}}


def _on_graph(manifold: int, boundary: int, *vertices: int):
    """An edit that puts a boundary of the chain example's manifold (ML, B
    or MR) on a 6-cycle backend, decorated by the given vertices."""
    path = f"manifolds.{manifold}.boundaries.{boundary}"
    bid = f"F{boundary}" if manifold == 1 else f"E{boundary}"
    return _set(path, _graph_boundary(bid, *vertices))


def _graph_e1(first: bool):
    """An edit that gives the chain example's ML a second boundary E1 on a
    6-cycle backend, written before its E0 or after it."""

    def edit(obj: dict) -> dict:
        boundaries = obj["manifolds"][0]["boundaries"]
        boundaries.insert(0 if first else len(boundaries), _graph_boundary("E1", 0))
        return obj

    return edit


def _instead(name: str, path: str, value: object):
    """An edit that leaves the chain example for the input name (an example
    or twisted-end) with the field at a dotted path set to value."""
    build = {**example_builders(), "twisted-end": twisted_end}[name]
    return lambda obj: set_field(build().to_json(), path, value)


TORUS_MARKING = {"base": "0/1", "transversal": "inf"}
SPLITTING = "manifolds.0.splitting"

# edits of the chain example, each with the message of the one check it
# trips
PARSE_CHECKS = {
    "not-an-object": (lambda obj: [obj], "gluing spec must be a JSON object"),
    "piece-without-manifold": (
        _set("pieces.0", {"id": "p0"}),
        "piece entry needs an id and a manifold",
    ),
    "lambda-list": (_set("lambda", []), "lambda must be an object"),
    "lambda-key": (
        _set("lambda", {"p0E0": TORUS_MARKING}),
        "lambda key 'p0E0' is not piece:boundary",
    ),
    "marking-string": (
        _set("manifolds.0.boundaries.0.decoration", "0/1"),
        "marking must be an object",
    ),
    "disks-string": (_set("manifolds.0.boundaries.0.disks", "0/1"), "disk set must be a list"),
    "boundary-without-id": (
        _set("manifolds.0.boundaries.0", {}),
        "boundary spec must be an object with an id",
    ),
    "boundary-without-decoration": (
        _set("manifolds.0.boundaries.0", {"id": "E0", "backend": {"kind": "torus"}}),
        "boundary E0 needs backend and decoration",
    ),
    # a twisted bundle reads its cover
    "cover-number": (
        _instead("twisted-end", "manifolds.1.cover", 1),
        "cover data must be an object",
    ),
    "cover-empty": (
        _instead("twisted-end", "manifolds.1.cover", {}),
        "cover data missing field 'mu0'",
    ),
    "splitting-number": (_set(SPLITTING, 1), "splitting must be an object"),
    "sub-piece-number": (_set(SPLITTING, {"pieces": [1]}), "sub-piece must be an object"),
    "sub-piece-boundaries-list": (
        _set(SPLITTING, {"pieces": [{"id": "a", "manifold": "ML", "boundaries": []}]}),
        "sub-piece boundaries must be an object",
    ),
    "sub-piece-without-manifold": (
        _set(SPLITTING, {"pieces": [{"id": "a"}]}),
        "sub-piece missing field 'manifold'",
    ),
    "splitting-identification-without-b": (
        _set(SPLITTING, {"pieces": [], "identifications": [{"a": ["a", "E0"]}]}),
        "splitting identification needs slots a and b",
    ),
    "toroidal-junk": (
        _toroidal(disks="junk", backend=7),
        "backend declaration must be an object with a kind",
    ),
}
INVARIANT_CHECKS = {
    "no-pieces": (
        lambda obj: {**obj, "pieces": [], "identifications": []},
        "gluing needs at least one piece",
    ),
    "duplicate-piece": (_set("pieces.2.id", "p0"), "duplicate piece id"),
    "duplicate-manifold": (_set("manifolds.2.id", "ML"), "duplicate manifold id"),
    "fixed-point": (
        _set("identifications", [{"a": ["p0", "E0"], "b": ["p0", "E0"], "map": [[2, 1], [1, 0]]}]),
        "fixed point: self-identification on p0:E0 needs an orientation-reversing involution",
    ),
    # a toroidal boundary's declared fields reach the constructor's rules
    "toroidal-compressible": (
        _toroidal(compressible=True),
        "toroidal boundary T cannot be compressible",
    ),
    "toroidal-chart": (
        _toroidal(backend={"kind": "torus"}, decoration=TORUS_MARKING),
        "toroidal boundary T cannot carry a chart",
    ),
    "toroidal-disks": (_toroidal(disks=["1/0"]), "toroidal boundary T cannot be compressible"),
    "toroidal-backend": (
        _toroidal(backend={"kind": "torus"}),
        "toroidal boundary T cannot carry a chart",
    ),
    "toroidal-decoration": (
        _toroidal(decoration=TORUS_MARKING),
        "toroidal boundary T cannot carry a chart",
    ),
    # a rule of a record is an invariant wherever the file states it: on
    # either slot, glued or not, on either backend
    "bundle-map-without-chart": (
        _set("manifolds.1.boundaries", [{"id": "T", "toroidal": True}]),
        "manifold B needs a non-toroidal boundary",
    ),
    # a kind refuses a map that it does not carry, unread: whatever its
    # value, null included, and whichever boundary the file names first
    "generic-bundle-map-graph-first": (
        _then(_graph_e1(True), _set("manifolds.0.bundle_map", [[1, 0], [0, -1]])),
        "manifold ML: only bundles carry an exchange map",
    ),
    "generic-bundle-map-graph-last": (
        _then(_graph_e1(False), _set("manifolds.0.bundle_map", [[1, 0], [0, -1]])),
        "manifold ML: only bundles carry an exchange map",
    ),
    "generic-cover": (
        _set("manifolds.0.cover", None),
        "manifold ML: only twisted bundles carry a cover",
    ),
    "trivial-bundle-cover": (
        _set("manifolds.1.cover", 1),
        "manifold B: only twisted bundles carry a cover",
    ),
    "compression-bundle-map": (
        _instead("compression", "manifolds.1.bundle_map", [[1, 0], [0, -1]]),
        "manifold C: only bundles carry an exchange map",
    ),
    "compression-bundle-map-null": (
        _instead("compression", "manifolds.1.bundle_map", None),
        "manifold C: only bundles carry an exchange map",
    ),
    # either boundary of a bundle, and either slot of an identification,
    # on another backend: which one the file names first does not matter
    "bundle-across-backends": (_on_graph(1, 1, 0), "trivial bundle B spans two backends"),
    "bundle-f0-across-backends": (_on_graph(1, 0, 0), "trivial bundle B spans two backends"),
    "identification-a-across-backends": (
        _on_graph(0, 0, 0),
        "identified slots p0:E0 and p1:F0 live on different backends",
    ),
    "identification-b-across-backends": (
        _on_graph(2, 0, 0),
        "identified slots p1:F1 and p2:E0 live on different backends",
    ),
    "compressible-bundle": (
        _set("manifolds.1.boundaries.0", {
            "id": "F0", "backend": {"kind": "torus"}, "decoration": TORUS_MARKING,
            "compressible": True, "disks": ["0/1"],
        }),
        "bundle B boundaries are incompressible",
    ),
    "toroidal-slot-a": (
        _then(_toroidal(), _set("identifications.0.a", ["p0", "T"])),
        "identification on toroidal boundary p0:T",
    ),
    "toroidal-slot-b": (
        _then(_toroidal(), _set("identifications.0.b", ["p0", "T"])),
        "identification on toroidal boundary p0:T",
    ),
    "toroidal-lambda": (
        _then(_toroidal(), _set("lambda", {"p0:T": TORUS_MARKING})),
        "lambda on toroidal boundary p0:T",
    ),
    "glued-piece-unknown-manifold": (
        _set("pieces.0.manifold", "NOPE"),
        "piece p0 references unknown manifold NOPE",
    ),
    "unglued-piece-unknown-manifold": (
        lambda obj: {**obj, "pieces": [*obj["pieces"], {"id": "p3", "manifold": "NOPE"}]},
        "piece p3 references unknown manifold NOPE",
    ),
    "torus-decoration-not-adjacent": (
        _set("manifolds.0.boundaries.0.decoration", {"base": "0/1", "transversal": "2/1"}),
        "marking slopes must intersect once: 0/1, 2/1",
    ),
    "graph-decoration-diameter-3": (_on_graph(0, 0, 0, 3), "marking diameter 3 exceeds 2"),
    "bundle-map-preserves-orientation": (
        _set("manifolds.1.bundle_map", [[1, 0], [0, 1]]),
        "bundle B: exchange map must reverse orientation",
    ),
    "identification-map-preserves-orientation": (
        _set("identifications.0.map", [[1, 0], [0, 1]]),
        "gluing map p0:E0 -> p1:F0 must reverse orientation",
    ),
    "matrix-det-2": (
        _set("identifications.0.map", [[2, 0], [0, 1]]),
        "surface map must have det +-1, got 2",
    ),
    # p0:E0 glued to itself, so that both slots are on the graph
    "perm-not-automorphism": (
        _then(_on_graph(0, 0, 0), _set("identifications.0", {
            "a": ["p0", "E0"], "b": ["p0", "E0"], "map": {"perm": [1, 0, 2, 3, 4, 5]},
        })),
        "graph map descriptor is not distance preserving",
    ),
    "slope-0/0": (
        _set("manifolds.0.boundaries.0.decoration.base", "0/0"),
        "slope 0/0 is not a curve",
    ),
}


def chain_example(files) -> dict:
    return json.loads(pathlib.Path(files["example:chain"]).read_text())


@pytest.mark.parametrize("name", [*PARSE_CHECKS, *INVARIANT_CHECKS])
def test_input_checks_name_their_fault(files, capsys, tmp_path, name):
    # each check of the gluing input ends a command with its exit code and
    # its one stderr line
    if name in PARSE_CHECKS:
        (edit, message), code, prefix = PARSE_CHECKS[name], EXIT_PARSE, "parse error"
    else:
        (edit, message), code, prefix = INVARIANT_CHECKS[name], EXIT_INVARIANT, "invariant violation"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(edit(chain_example(files))))
    assert run(capsys, ["validate", "--input", str(bad)]) == (code, "", f"{prefix}: {message}\n")


def test_bare_toroidal_boundary_is_valid(files, capsys, tmp_path):
    ok = tmp_path / "toroidal.json"
    ok.write_text(json.dumps(_toroidal()(chain_example(files))))
    assert run(capsys, ["validate", "--input", str(ok)])[0] == EXIT_PASS
    code, out, _ = run(capsys, ["collapse", "--input", str(ok)])
    assert code == EXIT_PASS
    boundaries = json.loads(out)["result"]["collapsed"]["manifolds"][0]["boundaries"]
    assert {"id": "T", "toroidal": True} in boundaries


@pytest.mark.parametrize("number", ["1e400", "-1e400"])
def test_non_finite_numbers_are_parse_errors(files, capsys, tmp_path, number):
    # no field is a float: a number past double range would reach int() as
    # an infinity
    text = pathlib.Path(files["graph_stack"]).read_text()
    bad = tmp_path / "big.json"
    bad.write_text(re.sub(r'"n": \d+', f'"n": {number}', text, count=1))
    assert bad.read_text() != text
    code, out, err = run(capsys, ["validate", "--input", str(bad)])
    assert (code, out) == (EXIT_PARSE, "")
    assert err.startswith("parse error: malformed gluing spec:")
    assert err.count("\n") == 1


def _garbage_map(obj, split):
    split["identifications"][0]["map"] = "garbage"


def _unknown_part_manifold(obj, split):
    split["pieces"][0]["manifold"] = "NOPE"


def _orientation_preserving_map(obj, split):
    split["identifications"][0]["map"] = [[1, 0], [0, 1]]


def _unplaced_boundaries(obj, split):
    split["pieces"][0]["boundaries"] = {}


def _toroidal_split_slot(obj, split):
    kc = next(m for m in obj["manifolds"] if m["id"] == "KC")
    kc["boundaries"].append({"id": "T0", "toroidal": True})
    split["identifications"][0]["a"] = ["core", "T0"]


def _toroidal_split_slot_b(obj, split):
    kb = next(m for m in obj["manifolds"] if m["id"] == "KB")
    kb["boundaries"].append({"id": "T0", "toroidal": True})
    split["identifications"][0]["b"] = ["body", "T0"]


def _unknown_part_boundary(obj, split):
    split["pieces"][0] = {"id": "core", "manifold": "M", "boundaries": {"E0": "B0"}}


def _unknown_parent_boundary(obj, split):
    split["pieces"][0]["boundaries"] = {"E7": "B0"}


def _boundary_split_twice(obj, split):
    split["pieces"][1]["boundaries"] = {"E0": "E1"}


def _toroidal_part_target(obj, split):
    # E1, unmarked, placed onto a toroidal boundary, where no chart can follow it
    del obj["lambda"]
    kb = next(m for m in obj["manifolds"] if m["id"] == "KB")
    kb["boundaries"].append({"id": "T0", "toroidal": True})
    split["pieces"][1]["boundaries"] = {"E1": "T0"}


def _shared_part_target(obj, split):
    # E0 and an unmarked E1 placed onto one core boundary
    del obj["lambda"]
    split["pieces"][0]["boundaries"] = {"E0": "B0", "E1": "B0"}
    split["pieces"][1]["boundaries"] = {}


def _free_part_boundary(obj, split):
    # the core gains a copy of B0 that no parent boundary is placed on and
    # no identification of the splitting glues
    kc = next(m for m in obj["manifolds"] if m["id"] == "KC")
    kc["boundaries"].append(dict(kc["boundaries"][0], id="B2"))


def _graph_core_slot(obj, split):
    # the core's B1 on a 6-cycle, glued to the body's torus E0
    kc = next(m for m in obj["manifolds"] if m["id"] == "KC")
    kc["boundaries"][1] = _graph_boundary("B1", 0)


def _graph_core_slot_from_body(obj, split):
    # the same, the identification written from the body's side
    _graph_core_slot(obj, split)
    ident = split["identifications"][0]
    ident["a"], ident["b"] = ident["b"], ident["a"]


def _part_that_splits(obj, split):
    # the part is the split manifold M itself
    split["pieces"][0] = {"id": "core", "manifold": "M", "boundaries": {"E0": "E0"}}
    split["identifications"][0]["a"] = ["core", "E1"]


@pytest.mark.parametrize(
    "edit, code, message",
    [
        (_garbage_map, EXIT_PARSE, "parse error: bad surface map 'garbage'"),
        (
            _unknown_part_manifold,
            EXIT_INVARIANT,
            "invariant violation: piece p0: splitting references unknown manifold NOPE",
        ),
        (
            _orientation_preserving_map,
            EXIT_INVARIANT,
            "invariant violation: gluing map p0/core:B1 -> p0/body:E0 must reverse orientation",
        ),
        (
            _unplaced_boundaries,
            EXIT_INVARIANT,
            "invariant violation: piece p0: splitting leaves boundary E0 unplaced",
        ),
        (
            _toroidal_split_slot,
            EXIT_INVARIANT,
            "invariant violation: piece p0: splitting identification on toroidal boundary core:T0",
        ),
        (
            _toroidal_split_slot_b,
            EXIT_INVARIANT,
            "invariant violation: piece p0: splitting identification on toroidal boundary body:T0",
        ),
        (
            _unknown_part_boundary,
            EXIT_INVARIANT,
            "invariant violation: piece p0: splitting targets unknown boundary M:B0",
        ),
        (
            _unknown_parent_boundary,
            EXIT_INVARIANT,
            "invariant violation: piece p0: splitting maps unknown boundary E7",
        ),
        (
            _boundary_split_twice,
            EXIT_INVARIANT,
            "invariant violation: piece p0: boundary E0 split twice",
        ),
        (
            _part_that_splits,
            EXIT_INVARIANT,
            "invariant violation: piece p0: splitting part core is manifold M, which"
            " declares a splitting of its own",
        ),
        (
            _toroidal_part_target,
            EXIT_INVARIANT,
            "invariant violation: piece p0: splitting places boundary E1 on toroidal"
            " boundary body:T0",
        ),
        (
            _shared_part_target,
            EXIT_INVARIANT,
            "invariant violation: piece p0: splitting places two boundaries on core:B0",
        ),
        (
            _free_part_boundary,
            EXIT_INVARIANT,
            "invariant violation: piece p0: splitting leaves part boundary core:B2"
            " unplaced and unglued",
        ),
        # both slots are resolved before the map is read in their chart
        (
            _graph_core_slot,
            EXIT_INVARIANT,
            "invariant violation: identified slots core:B1 and body:E0 live on different"
            " backends",
        ),
        (
            _graph_core_slot_from_body,
            EXIT_INVARIANT,
            "invariant violation: identified slots body:E0 and core:B1 live on different"
            " backends",
        ),
    ],
    ids=["garbage-map", "unknown-manifold", "preserving-map", "unplaced", "toroidal-slot",
         "toroidal-slot-b", "unknown-boundary", "unknown-parent-boundary", "split-twice",
         "part-splits", "toroidal-target", "shared-target", "free-part-boundary",
         "across-backends-core-first", "across-backends-body-first"],
)
def test_every_gluing_command_checks_splittings_as_decompose_does(
    capsys, tmp_path, edit, code, message
):
    # a broken splitting fails every command that reads a gluing alike,
    # before any output
    obj = split_gluing().to_json()
    edit(obj, next(m for m in obj["manifolds"] if m["id"] == "M")["splitting"])
    bad = tmp_path / "broken.json"
    bad.write_text(canonical_dumps(obj))
    for command in ("validate", "report", "collapse", "model", "decompose"):
        assert run(capsys, [command, "--input", str(bad)]) == (code, "", message + "\n"), command


@pytest.mark.parametrize("where", ["missing/x.json", "."])
def test_unwritable_out_is_an_invariant_violation(files, capsys, tmp_path, where):
    target = tmp_path / where
    code, out, err = run(capsys, ["report", "--input", files["chain"], "--out", str(target)])
    assert (code, out) == (EXIT_INVARIANT, "")
    assert err.startswith(f"invariant violation: cannot write {target}: ")
    assert err.count("\n") == 1


def edited_input(src: str, path: str, value: object, tmp_path: pathlib.Path) -> str:
    """A copy of the JSON file src with the field at the dotted path set to
    value; returns the copy's path."""
    obj = set_field(json.loads(pathlib.Path(src).read_text()), path, value)
    out = tmp_path / "edited.json"
    out.write_text(json.dumps(obj))
    return str(out)


def set_field(obj: dict, path: str, value: object) -> dict:
    """obj with the field at the dotted path set to value."""
    *parents, last = (int(key) if key.isdigit() else key for key in path.split("."))
    target = obj
    for key in parents:
        target = target[key]
    target[last] = value
    return obj


FLAG_FIELDS = {
    "identifications.0.map.reverses_orientation": True,
    "manifolds.0.boundaries.0.toroidal": False,
    "manifolds.0.boundaries.0.compressible": False,
}


@pytest.mark.parametrize("path", list(FLAG_FIELDS))
def test_flags_accept_only_json_booleans(files, capsys, tmp_path, path):
    # a string such as "false" is truthy: read as a flag it would flip it
    for value in ("false", "true", "no", 0, 1, None):
        bad = edited_input(files["graph_stack"], path, value, tmp_path)
        code, out, err = run(capsys, ["validate", "--input", bad])
        assert (code, out) == (EXIT_PARSE, ""), value
        assert err.startswith(f"parse error: {path.rsplit('.', 1)[1]} must be true or false")
    # the JSON booleans are read: the default passes, and the other value
    # breaks another rule of this input
    default = FLAG_FIELDS[path]
    ok = edited_input(files["graph_stack"], path, default, tmp_path)
    assert run(capsys, ["validate", "--input", ok])[0] == EXIT_PASS
    flipped = edited_input(files["graph_stack"], path, not default, tmp_path)
    code, _, err = run(capsys, ["validate", "--input", flipped])
    assert code in (EXIT_PARSE, EXIT_INVARIANT)
    assert "must be true or false" not in err


def test_input_text_naming_a_file_is_not_followed(files, capsys, tmp_path):
    # the input's own text is the gluing: a path written in it is JSON
    # that does not parse, and the size and UTF-8 checks cover every byte
    # the command reads
    pathy = tmp_path / "pathy.json"
    pathy.write_text(files["example:chain"])
    code, out, err = run(capsys, ["report", "--input", str(pathy)])
    assert code == EXIT_PARSE
    assert out == ""
    assert err.startswith("parse error: malformed gluing spec")


def test_missing_file_is_a_parse_error(files, capsys):
    code, _, err = run(capsys, ["validate", "--input", str(files["dir"] / "nope.json")])
    assert code == EXIT_PARSE
    assert err.startswith("parse error:")


def test_fixed_point_identification_is_an_invariant_error(files, capsys):
    code, _, err = run(capsys, ["validate", "--input", files["fixed"]])
    assert code == EXIT_INVARIANT
    assert err.startswith("invariant violation: fixed point")


def test_compressible_slot_without_disks_is_an_invariant_error(files, capsys):
    # the file parses; the broken compressible/disk-set pairing is semantic
    code, _, err = run(capsys, ["validate", "--input", files["nodisks"]])
    assert code == EXIT_INVARIANT
    assert "disk set must be non-empty iff compressible" in err


@pytest.mark.parametrize(
    "flags",
    [
        ["report", "--R", "0"],
        ["model", "--eps0", "0"],
        ["model", "--eps0", "-0.1"],
        ["report", "--D", "-1"],
        ["model", "--eps0", "nan"],
        # an infinite eps0 would print as Infinity, which is not JSON
        ["model", "--eps0", "inf"],
        ["model", "--eps0", "1e400"],
    ],
)
def test_bad_parameters_are_invariant_errors(files, capsys, flags):
    # each value is checked by a command that reads it, before any work
    code, out, err = run(capsys, [*flags, "--input", files["chain"]])
    assert (code, out) == (EXIT_INVARIANT, "")
    assert err.startswith("invariant violation:")
    assert err.count("\n") == 1


# ------------------------------------------------------------------ report


def test_report_pass(files, capsys):
    code, out, _ = run(capsys, ["report", "--input", files["chain"]])
    assert code == EXIT_PASS
    result = json.loads(out)["result"]
    assert result["verdict"] == "pass"
    assert result["schema"] == "certificate/1"


def test_report_fails_when_height_floor_is_too_high(files, capsys):
    code, out, _ = run(capsys, ["report", "--input", files["chain"], "--D", "4"])
    assert code == EXIT_VERDICT
    assert json.loads(out)["result"]["verdict"] == "fail"


# ---------------------------------------------------------------- collapse


def test_collapse_without_bundles_is_identity(files, capsys):
    code, out, _ = run(capsys, ["collapse", "--input", files["cores"]])
    assert code == EXIT_PASS
    result = json.loads(out)["result"]
    assert result["ok"] is True
    assert result["stacks"] == []
    assert result["note"] == "no I-bundle pieces"
    assert "correspondence" not in result


def test_collapse_chain_with_correspondence(files, capsys):
    code, out, _ = run(
        capsys,
        ["collapse", "--input", files["chain"], "--emit-correspondence"],
    )
    assert code == EXIT_PASS
    result = json.loads(out)["result"]
    assert result["ok"] is True
    assert result["correspondence"] == [
        {"stack": ["p1"], "slots": ["p0:E0", "p2:E0"]}
    ]
    collapsed_ids = [p["id"] for p in result["collapsed"]["pieces"]]
    assert len(collapsed_ids) == 2


def test_collapse_fibered_case_has_its_own_exit_code(files, capsys):
    code, out, _ = run(capsys, ["collapse", "--input", files["fibered"]])
    assert code == EXIT_FIBERED
    result = json.loads(out)["result"]
    assert result["fibered"] is True
    assert result["note"] == "fibered gluing case: bundle cycle combined and self-glued"


def collapse_result(capsys, tmp_path, x: GluingGraph, code: int) -> dict:
    """The result of collapse on x through main, which must exit with code."""
    path = tmp_path / "gluing.json"
    path.write_text(x.canonical_json())
    got, out, err = run(capsys, ["collapse", "--input", str(path)])
    assert (got, err) == (code, "")
    return json.loads(out)["result"]


# the gluing and exchange maps of these fixtures are not involutions
# (test_transforms.SKEW_*), so a map and its inverse, or a conjugation and
# its reverse, print different bytes
LAM_0 = mk("2/1", "3/1")
LAM_1 = mk("1/2", "1/3")


def test_collapse_pushes_a_free_entry_marking_to_the_exit_neighbour(capsys, tmp_path):
    # the chain's entry b:F0 is free and marked; its exit b:F1 is glued
    # to p0:E0, which opens up and inherits the marking
    x = GluingGraph(
        manifolds=(core("M", MU), skew_bundle("B", 2, SKEW_2)),
        pieces=(("b", "B"), ("p0", "M")),
        identifications=(Identification("b", "F1", "p0", "E0", tmap(SKEW_1)),),
        boundary_markings=((("b", "F0"), LAM_0),),
    )
    result = collapse_result(capsys, tmp_path, x, EXIT_PASS)
    collapsed = result["collapsed"]
    assert [p["id"] for p in collapsed["pieces"]] == ["p0"]
    assert collapsed["identifications"] == []
    # b:F0 data crosses b into the F1 chart by the inverse exchange, then
    # into p0:E0 by the gluing map, which pushes b:F1 data there
    down = SKEW_1 @ SKEW_2.inverse()
    wrong = [SKEW_1.inverse() @ SKEW_2.inverse(), SKEW_1 @ SKEW_2, SKEW_2.inverse() @ SKEW_1]
    assert push(down, LAM_0) not in [push(w, LAM_0) for w in wrong]
    assert collapsed["lambda"] == {"p0:E0": push(down, LAM_0).to_json()}
    (stack,) = result["stacks"]
    assert (stack["left"], stack["right"]) == (None, "p0:E0")


def test_collapse_fibered_chain_keeps_its_end_markings(capsys, tmp_path):
    # an open all-bundle chain becomes one bundle; its free ends keep
    # their markings, the entry's on F0 and the far end's on F1
    chain_x = skew_fibered_chain()
    x = GluingGraph(
        manifolds=chain_x.manifolds,
        pieces=chain_x.pieces,
        identifications=chain_x.identifications,
        boundary_markings=((("b0", "F0"), LAM_0), (("b1", "F1"), LAM_1)),
    )
    result = collapse_result(capsys, tmp_path, x, EXIT_FIBERED)
    collapsed = result["collapsed"]
    assert [p["id"] for p in collapsed["pieces"]] == ["b0+b1"]
    assert collapsed["lambda"] == {"b0+b1:F0": LAM_0.to_json(), "b0+b1:F1": LAM_1.to_json()}


def test_collapse_folds_a_single_bundle_at_its_first_slot(capsys, tmp_path):
    # b:F0 is self-glued, so the one-piece chain enters at F1 and folds at
    # F0; p0:E0 is glued to itself by the fold carried back to it
    fold = A @ REFLECTION @ A.inverse()
    x = GluingGraph(
        manifolds=(core("M", MU), skew_bundle("B", 2, SKEW_2)),
        pieces=(("p0", "M"), ("b", "B")),
        identifications=(
            Identification("p0", "E0", "b", "F1", tmap(SKEW_1)),
            Identification("b", "F0", "b", "F0", tmap(fold)),
        ),
    )
    result = collapse_result(capsys, tmp_path, x, EXIT_PASS)
    (ident,) = result["collapsed"]["identifications"]
    assert ident["a"] == ident["b"] == ["p0", "E0"]
    # p0:E0 data reaches b:F1 by the gluing map and b:F0 by the exchange,
    # which pushes the second boundary's data onto the first
    up = SKEW_2 @ SKEW_1
    assert ident["map"] == tmap(up.inverse() @ fold @ up).to_json()
    assert ident["map"] != tmap(up @ fold @ up.inverse()).to_json()
    assert result["stacks"][0]["pieces"] == ["b"]


# --------------------------------------------------------------- decompose


def test_decompose_reports_partition_and_cut(files, capsys):
    code, out, _ = run(capsys, ["decompose", "--input", files["chain"]])
    assert code == EXIT_PASS
    result = json.loads(out)["result"]
    assert set(result) == {"full", "components", "cut"}
    assert len(result["components"]) == 3
    assert len(result["cut"]) == 2


# sha256 of the stdout of decompose on a splitting whose maximal
# decomposition has three components, recorded while the components still
# came from a union-find of decompose's own
SPLIT3_DECOMPOSE_SHA256 = "733f33cba13248b962e3cec2f3628c55c9bac075221bcf291a572ed583388fec"


def test_decompose_three_component_split_bytes_pinned(files, capsys):
    code, out, _ = run(capsys, ["decompose", "--input", files["split3"]])
    assert code == EXIT_PASS
    result = json.loads(out)["result"]
    assert [c["pieces"] for c in result["components"]] == [
        ["a"],
        ["m/body", "m/core"],
        ["z/body", "z/core"],
    ]
    assert len(result["cut"]) == 2
    assert hashlib.sha256(out.encode()).hexdigest() == SPLIT3_DECOMPOSE_SHA256


# ------------------------------------------------------------------- model


def test_model_json_passes_default_floor(files, capsys):
    code, out, _ = run(capsys, ["model", "--input", files["chain"]])
    assert code == EXIT_PASS
    result = json.loads(out)["result"]
    assert result["skeleton"]["schema"] == "skeleton/1"
    assert result["thickness"]["ok"] is True


def test_model_thin_tube_fails_and_tops_the_correlation(files, capsys):
    code, out, _ = run(
        capsys, ["model", "--input", files["thin"], "--eps0", "0.3"]
    )
    assert code == EXIT_VERDICT
    thickness = json.loads(out)["result"]["thickness"]
    assert thickness["ok"] is False
    name, coeff, systole = thickness["correlation"][0]
    assert name == "p0:E1--free"
    assert coeff == 50
    assert systole < 0.3


def test_model_graph_slot_with_a_free_marking_gets_a_combinatorial_tube(capsys, tmp_path):
    h = BackendHandle.finite_graph(cycle_graph(6))
    x = GluingGraph(
        manifolds=(core("G", AbstractMarking(h, (0,))),),
        pieces=(("p0", "G"),),
        identifications=(),
        boundary_markings=((("p0", "E0"), AbstractMarking(h, (3,))),),
    )
    path = tmp_path / "graph.json"
    path.write_text(x.canonical_json())
    code, out, err = run(capsys, ["model", "--input", str(path)])
    assert (code, err) == (EXIT_PASS, "")
    result = json.loads(out)["result"]
    assert result["skeleton"]["tubes"] == [
        {
            "slot_a": ["p0", "E0"],
            "slot_b": ["p0", "E0"],
            "kind": "boundary",
            "combinatorial": True,
            "sigma_a": None,
            "sigma_b": None,
            "length": 0.0,
            "degenerate": False,
            "samples": [],
        }
    ]
    assert result["skeleton"]["incidence"] == [["p0:E0", "p0:E0"]]
    assert result["thickness"]["rows"] == []
    code, out, _ = run(capsys, ["model", "--input", str(path), "--format", "obj"])
    assert (code, out.splitlines()[1:]) == (EXIT_PASS, [])


def test_model_obj_export(files, capsys, tmp_path):
    target = tmp_path / "mesh.obj"
    code, out, _ = run(
        capsys,
        ["model", "--input", files["chain"], "--format", "obj", "--out", str(target)],
    )
    assert code == EXIT_PASS
    assert out == ""
    data = target.read_bytes()
    head = data.decode().splitlines()[0]
    assert head == "# skeleton/1 sweep, horizontal split zero-connection-product"
    assert b"\no p0:E0--p1:F0\n" in data


# ------------------------------------------------------------------ hyplab


def test_hyplab_path_graph(files, capsys):
    code, out, _ = run(capsys, ["hyplab", "--input", files["p4"]])
    assert code == EXIT_PASS
    result = json.loads(out)["result"]
    assert result["delta"] == [0, 1]
    assert result["diameter"] == 3
    assert result["interval"]["endpoints"] == [0, 3]
    assert result["interval"]["vertices"] == [0, 1, 2, 3]
    assert result["interval"]["quasiconvexity"] == 0


def test_hyplab_cycle_graph(files, capsys):
    code, out, _ = run(capsys, ["hyplab", "--input", files["c6"]])
    assert code == EXIT_PASS
    result = json.loads(out)["result"]
    assert result["delta"] == [1, 1]
    assert result["interval"]["vertices"] == [0, 1, 2, 3, 4, 5]


def test_internal_fault_has_its_own_exit_code(files, capsys, monkeypatch):
    def broken(cfg, text):
        raise RuntimeError("boom")

    help_line, reads, _ = cli.COMMANDS["validate"]
    monkeypatch.setitem(cli.COMMANDS, "validate", (help_line, reads, broken))
    code, out, err = run(capsys, ["validate", "--input", files["chain"]])
    assert code == EXIT_INTERNAL
    assert out == ""
    digest = sha256_of_text(pathlib.Path(files["chain"]).read_text())
    assert err == f"internal error: RuntimeError: boom; input sha256 {digest}\n"


# ------------------------------------------------------- pinned report bytes

UNBURIED = "warning: unburied slot p1:E1 has no free marking; boundary tube omitted\n"

# The golden table of cold runs: (exit code, sha256 of the raw stdout,
# stderr) of `python -m glueforge.cli <command line> --input <input>`, by
# (command line, input name).  It holds every example command line; the
# twisted-end and splitting branches that no example reaches; large
# gluing heights: a long continued fraction (inv1000), a 10,001-digit
# denominator (huge), axis powers 200 and 1000 and STACKS; and graph
# backends: hyplab graphs of up to 1000 vertices and a stack over a
# 400-cycle.  Any change is a report change.
#
# The example pins were recorded while the graph metric, the pushforward,
# the skeleton JSON and the gluing source each still had a second,
# test-only path; the deep pins before the depth-linear torus kernels; the
# stack pins while the stack certificate still scanned the pairs of every
# stack path (the 15- and 30-bundle stacks before geodesic paths skipped
# the scan); the graph pins while distance tables still had an array form
# and graph backends built every row.  The two stack paths that are not
# geodesics, a revisit (backtrack) and a detour (wrap20), were recorded
# while K' still came from the windowed local-to-global report.  The two
# model pins of the stack example were recorded when its 55-bit tube moved
# to the decimal path; before, both ended with exit 5 and no output.  The
# validate, report and model pins of the splitting were recorded before
# those commands checked a splitting as decompose does.  The JSON pins were
# re-recorded when each report's params came to echo only the flags its
# command reads, and the model JSON pins again when `model` stopped
# taking a sample count; the result bytes stayed the same.  The exit
# codes of the deep and stack pins, the stderr of every pin, and the
# inv1000 and huge pins were recorded when the four tables of the suite
# became this one.  The last four, of the benchmark ops that no reference
# digest checks, were recorded before help lost its argparse parser.
COLD_PINS = {
    ("validate", "example:chain"): (0, "a2a597e0eca2cfd4d0c53f1a1948c70f1a9d52807be4b7219f99e971552e0a73", ""),
    ("report", "example:chain"): (0, "c41dc9a61f886de4e6c3bf1ccd81b99047fd12d9fca72eb2bed0b28a142962f4", ""),
    ("collapse --emit-correspondence", "example:chain"): (0, "bb41db41d41b7a898e616e20b764b6cf1c0d84aa225d1ce6d17078f5b66bc3ba", ""),
    ("decompose", "example:chain"): (0, "68643a53580505ac284e24804172bbc9faa3850ae4565f0432a0970a2c6705fa", ""),
    ("model", "example:chain"): (0, "be06cfd9fb98b15d74e13ed4892c023ebf80537bb9df22b99723c8591afc0512", ""),
    ("model --format obj", "example:chain"): (0, "9446c140590e661cd0a522e7c2bdc042afebc43cdfc54980645932c3c4afa9f6", ""),
    ("validate", "example:stack"): (0, "ccc42c8157f4a65a83bbd74d15cdb2a667da0dcdd19575c35c4615d1211b87c8", ""),
    ("report", "example:stack"): (0, "24dc0b1b111b183c1661110396a848a8143d51e5bfa19aee7e2991b58a0f6eaf", ""),
    ("collapse --emit-correspondence", "example:stack"): (0, "7ace200e6c39a872997516d9032a81b48efacb3a49ed0016664b974910983973", ""),
    ("decompose", "example:stack"): (0, "5b9ad24d1844feb26285dbacfac916652656179fd85ea887f2c034890b01dc0e", ""),
    ("model", "example:stack"): (0, "61d6a850ed8073ab45aa29fae049720ad6f7a6ef24a52a516068a17b2f6c7654", ""),
    ("model --format obj", "example:stack"): (0, "fecb985aa33df79286dda5df5090634f80f2935b4174262bc7376213c98a4f3d", ""),
    ("validate", "example:twisted"): (0, "f747b1c19d4d53a967a81759ff0ed3c8ba23d33f8aa9e1bad251b3a89d3d027f", ""),
    ("report", "example:twisted"): (1, "a855110700edd6645908b7bd3c9ce264a93680a7b6cc3b16b58471bf3add9d86", ""),
    ("collapse --emit-correspondence", "example:twisted"): (0, "1eafc1f369f13433927895f393f8f914b712eda63f3591bbce7545b4079cce6b", ""),
    ("decompose", "example:twisted"): (0, "a03f3a6039065df1029f0bb30ee422acdcedcd31c445f51745ac98f1c5e7c399", ""),
    ("model", "example:twisted"): (0, "d284f53766401fb708d3112ab4ebcf4fc428eeb98fcfef4254ca68b03fe3fcc7", ""),
    ("model --format obj", "example:twisted"): (0, "bf88759627fe918823e3aaddd4eff8b9bb4a4d337d975dc75de09834f5a0d70d", ""),
    ("validate", "example:compression"): (0, "10fb7380ebb35dfdb938b152da3a88cb6d3bb86a7a2bebf10b08f6825290b178", ""),
    ("report", "example:compression"): (1, "a045713fe77090e9b78958d522d753e6c03178f0512d2d053cc666dd32ef9d44", ""),
    ("collapse --emit-correspondence", "example:compression"): (0, "8688200adabba9ec528b55784d73cd7ebfe23e7b3e2ce612b34c35346df7c125", ""),
    ("decompose", "example:compression"): (0, "7ea58d3883ecefd3e175bb04bd98c758b5b25d8dbb776fdd9a79e52230e9f56b", ""),
    ("model", "example:compression"): (0, "fd55a75a46279e5333d647ee305e357dfb3e0cbce4a79b9bee925acbf9a757fa", UNBURIED),
    ("model --format obj", "example:compression"): (0, "17beb101eadb38419211d61e0cc2efd5fd48812fd51d69d7c128f967733a01ed", UNBURIED),
    ("validate", "example:thin"): (0, "cceb7206a6d8292cb8c3359ad92bea81596b1031e0db4e71907e96d73698e215", ""),
    ("report", "example:thin"): (1, "cdbaff95e84a54840816c893b6742f90ef28693456f0b36b95ba9040480355d1", ""),
    ("collapse --emit-correspondence", "example:thin"): (0, "a74519ee5f623a6bb07dde7bd5e2b7bf9278c595e329a62edf1e688cbdce4465", ""),
    ("decompose", "example:thin"): (0, "6428c3e83326439e59747b558909996dbfc262ed6ffc3a474097e7e0b50a445c", ""),
    ("model", "example:thin"): (0, "2124d785648213ddd96cae664beb84c78afc6f74ca2979a1d0ae666baa093d21", ""),
    ("model --format obj", "example:thin"): (0, "6a0b7c7a0628a07ef398da4379e90d464bc59d867c8eebdcd625f8c36be1271f", ""),
    ("validate", "example:fibered"): (0, "13e49078282ce8bd9c7dbab2305f69f6cdb302dbc8e7f9c28ee23473da06c75b", ""),
    ("report", "example:fibered"): (1, "92dc63f7b181aae69faa1f2a93944dfab31b7099c32ba2da184565e78ca96c25", ""),
    ("collapse --emit-correspondence", "example:fibered"): (4, "c839b758a284dad3c1cbbfb2273734f920ee0cdf3132244eb9e995aa71e99746", ""),
    ("decompose", "example:fibered"): (0, "7228488304352b6440f057be8f059bbedc8dfd478c32340efc2f3d1b7f9b89fa", ""),
    ("model", "example:fibered"): (0, "93a03f11bc9cc71eb40f65a0170fbd59bfd2d16a1c82ff092472123fbbdf0aa3", ""),
    ("model --format obj", "example:fibered"): (0, "a996974b5de3f8366f6cca908008bdf251bab19e6ada3b1b4153917e816cb779", ""),
    ("report", "twisted-end"): (0, "ff49b88e5e06ed810daf1b4e15d065bba3e9982f5e645f1edf1feccccffc3506", ""),
    ("collapse", "twisted-end"): (0, "53f9bd7b887ec00340e7346b27ae809684d22d5fc30c81cfd1d7c4180fe6dda9", ""),
    ("decompose", "split"): (0, "8b7284b31d48f127c15efecc611b8cd5e35895bf97f1edaf9a00fe5166809ba6", ""),
    ("collapse", "split"): (0, "868996f8dfd274ccbb962fb635e7fb3ddd9e6cf8e49585b36ec4f2a73a4b5b49", ""),
    ("validate", "split"): (0, "865d03f6cca671f1c56344f0a0638c331c7638d20aa09c06c9a35526d4b8f396", ""),
    ("report", "split"): (1, "c11d16ef17825d75f61d26b6929a3d2b78de7413458c605c848ce48d632b9da1", ""),
    ("model", "split"): (0, "1d62be9b554697f50a091a3320f9a4dd6f5be5d1fb33405507201eb71820a265", ""),
    ("collapse", "backtrack"): (1, "69050b36845362c97a26e976b3acc3c587bb2efd7a136f15dbfe819f1730a77d", ""),
    ("collapse", "wrap20"): (0, "98292565b1b3a4d24db6b16ad18141855cbb22dea0dfeec34b6c4e13e998d0d5", ""),
    ("report", "deep200"): (0, "16a7d39d4fab8d29f1bf9416d9faf8b80e71c5b15610ca9d8899d40e87d332b3", ""),
    ("collapse", "deep200"): (0, "ef6366241faaec6345004bdc27f493ddcb624858b199929065c8b22f71bd3bdf", ""),
    ("report", "deep1000"): (0, "63c1ab5922d1eb41f39b6c8c4553381b2d6928d70a6f0b4446a012b8385502f6", ""),
    ("report", "stack100_600"): (0, "5e2441364a330388b9ce3a56785c21718b24a0b4ebb660dfd833115b66b1e4dd", ""),
    ("collapse", "stack100_600"): (0, "5351aee766897b50436b3fbec6bab6ab8df70178f5411a5fa1cced915d8cd752", ""),
    ("report", "stack100_1100"): (0, "ac961079517e7dca5659c9c97fb08e19addc2fb2e27aa4bc1aa97c06ce0c58db", ""),
    ("collapse", "stack100_1100"): (0, "98ac97f07ef5b5c5aed2b4a4aa0313c37116d28aa569fca62dec82383bde2f03", ""),
    ("report", "stack50_300"): (0, "8e6895b8bc5a8a4d1a6267b90599b666ea75c4c9d997a30390ee0e04e62fa5ad", ""),
    ("collapse", "stack50_300"): (0, "1ae1b5f1752ac23924b8081cabd3ec8bf4667d03cb82c808e50ca8884e38f76b", ""),
    ("report", "stack50_750"): (0, "06e44a6af8f20d5ae57a2eb34a2ebe4404327e2c33f045015a91f55690a95dad", ""),
    ("collapse", "stack50_750"): (0, "823d4fad5899745a3fc8bac99d4e15e345f7fabdad50f155bf2040442dde74ab", ""),
    ("report", "stack50_1500"): (0, "e629b9e2bf0cef555c886a664edacc155e67d83c5d9b840f510c965213f60c87", ""),
    ("collapse", "stack50_1500"): (0, "8bea6c09e251cae5ff1248646c82cac916713570a100a7df004845ea1541d2e3", ""),
    ("hyplab", "c6.txt"): (0, "fc87b52e26c4d3f1ced3d6bfb0ac911956a77e616a45eb3b41972eaa7798f18e", ""),
    ("hyplab", "k7.txt"): (0, "4fee95aa5a652e444361cbe39861c86bd6a8ca0ff4929dde7a211cd985d0e635", ""),
    ("hyplab", "sparse300.txt"): (0, "c2bdeb358a87259b119154054cb06c4aa5eea05b2d33a73144b08a5e4f30ce89", ""),
    ("hyplab", "sparse1000.txt"): (0, "33d7f9791750ade9af8b78fbde7bfb304a1392fb9ffd0204b8245ed9362048e6", ""),
    ("hyplab", "gnp60.txt"): (0, "5113cb0c3b8facece6fb89b260471504c2003f9d1a0229aa7638a34dcbe609ae", ""),
    ("validate", "stack400.json"): (0, "fa73d2b8d3348b7f74b1a5a6a58e1755eac1f18e87b9a7e9027308c364729890", ""),
    ("report", "stack400.json"): (1, "d2505c6ac103876123b87428ab1c25ab660985a2c48b580dd53c8eef351eebd1", ""),
    ("collapse", "stack400.json"): (0, "0e23cdfeff31e46246d23a307b22e4bf44bce6f75c46b80674a8c9add63c7510", ""),
    ("report", "inv1000"): (1, "6a325208ccb8684dde0fb16c48459d5fe74ea83bcbdb3b03717b5c36800cab16", ""),
    ("validate", "huge"): (0, "428e9bb3db32105aa22e8eacb92ffad6b621c8503e6a4eec6de7c1da85c7b132", ""),
    ("report", "huge"): (1, "5c643421238cdf4a7dc4c437f445cdafc27182e74aabdb62fdb7ade7bd85a68a", ""),
    ("report", "bench:inv300"): (1, "05e5c83a9a32537e7f5966c6310a400fd41acabb89d1315c38227e7229e8bcb7", ""),
    ("report", "bench:inv1000"): (1, "288d054d16566b8ac9a3b4db85b85a0e6ad149d78c10592bdc55cee0303e030b", ""),
    ("report", "bench:fib1000"): (0, "3d3d58030661a1d80abee8f3780920c57a8b15f1296c9e92edb4527ad5ca1d5c", ""),
    ("model", "deep30"): (0, "f7a185d9de484a74d6d78c6abc6ad6d2bfbb49c0246d8c75f5db62a76b76f9c1", ""),
}

# The sha256 of each input above that a benchmark op reads, by name: that
# of the seed-1 input in the benchmark's manifest (perfbench/inputs.py)
BENCH_INPUTS = {
    "bench:inv300": "46dd15761cce8088c9f4a1dc85bb834fe7c735368e6b82da234f5deec5d2f5dd",
    "bench:inv1000": "9099fca622750df0974e9609ee62c1e73a4c7842b5d55e7e50f391bf2ef5bf25",
    "bench:fib1000": "663cb94aec58c634062bf270922ce2017c639b94ebd8f6e66998f58192633ebf",
    "deep30": "c8d10c3eacf7c03b44be8cf543f70fc8e7b20042cc5adee06de4ad80f7dd59ca",
}


def test_pins_read_the_benchmark_inputs(files):
    read = {name: hashlib.sha256(pathlib.Path(files[name]).read_bytes()).hexdigest() for name in BENCH_INPUTS}
    assert read == BENCH_INPUTS


# Interpreter settings that no printed byte may depend on: warnings as
# errors, dev mode, -O and the lowest digit limit CPython allows
ADVERSE = {"PYTHONWARNINGS": "error", "PYTHONDEVMODE": "1", "PYTHONOPTIMIZE": "1", "PYTHONINTMAXSTRDIGITS": "640"}
EXAMPLE_PINS = [pin for pin in COLD_PINS if pin[1].startswith("example:")]

# every pin under the caller's environment; each example's pins again
# under two fixed hash seeds, so that no printed byte depends on the order
# of a set of strings, and under ADVERSE; and the pins with a stderr line
# with warnings ignored, which must not drop that line
PIN_RUNS = [
    pytest.param(command, name, env, id="-".join([command, name, *(f"{k}={v}" for k, v in env.items())]))
    for env, (command, name) in [
        *(({}, pin) for pin in COLD_PINS),
        *(({"PYTHONHASHSEED": seed}, pin) for seed in ("0", "1") for pin in EXAMPLE_PINS),
        *((ADVERSE, pin) for pin in EXAMPLE_PINS),
        *(({"PYTHONWARNINGS": "ignore"}, pin) for pin in COLD_PINS if COLD_PINS[pin][2]),
    ]
]


@pytest.mark.parametrize("command, name, env", PIN_RUNS)
def test_cold_command_bytes_pinned(files, large_graph_files, command, name, env):
    # a cold interpreter, as a user runs it: no warm caches, real stderr,
    # and stdout buffered, so that bytes the process entry fails to flush
    # are missing bytes
    path = {**files, **large_graph_files}[name]
    proc = cold([*CLI, *command.split(), "--input", path], **env)
    code, digest, stderr = COLD_PINS[command, name]
    assert (proc.returncode, proc.stderr.decode()) == (code, stderr)
    assert hashlib.sha256(proc.stdout).hexdigest() == digest


# The transcendental functions of the C library that model geometry calls.
# Libraries may differ in their last bit; sqrt and fsum are correctly
# rounded in every one.
LIBM = ("acosh", "atan2", "log", "tan", "exp", "atan", "hypot", "cos", "sin")


class NudgedMath:
    """`math`, with the result of each `LIBM` function moved one ulp
    towards `direction`: what another C library may return."""

    def __init__(self, direction: float):
        self.direction = direction

    def __getattr__(self, name: str):
        f = getattr(math, name)
        if name not in LIBM:
            return f
        return lambda *args: math.nextafter(f(*args), self.direction)


# The model pins whose bytes move with libm's last bit today, with the
# direction of the nudge: the double path prints libm's results (ROADMAP
# items 22 and 14)
LIBM_MOVERS = {
    (direction, command, name)
    for direction in ("down", "up")
    for command, name in (
        ("model", "example:chain"),
        ("model", "example:stack"),
        ("model --format obj", "example:stack"),
        ("model", "example:thin"),
        ("model", "split"),
    )
}


@pytest.mark.parametrize(
    "direction, command, name",
    [
        pytest.param(
            direction,
            command,
            name,
            id=f"{command}-{name}-{direction}",
            marks=pytest.mark.xfail(strict=True, reason="ROADMAP items 22 and 14")
            if (direction, command, name) in LIBM_MOVERS
            else (),
        )
        for direction in ("down", "up")
        for command, name in COLD_PINS
        if command.startswith("model")
    ],
)
def test_model_bytes_do_not_depend_on_libm(files, capsys, monkeypatch, direction, command, name):
    argv = [*command.split(), "--input", files[name]]
    want = run(capsys, argv)
    nudged = NudgedMath(-math.inf if direction == "down" else math.inf)
    monkeypatch.setattr(halfplane, "math", nudged)
    monkeypatch.setattr(model, "math", nudged)
    assert run(capsys, argv) == want


@pytest.mark.parametrize(
    "command, name", [("report", "inv1000"), ("collapse", "deep200")]
)
def test_large_heights_finish_with_a_report(files, capsys, command, name):
    # the pins above fix these runs' bytes in a cold process; this reads
    # what the bytes say
    code, out, err = run(capsys, [command, "--input", files[name]])
    assert (code, err) == (COLD_PINS[command, name][0], "")
    obj = envelope(out)
    assert obj["command"] == command
    assert obj["input_sha256"] == sha256_of_text(pathlib.Path(files[name]).read_text())


def test_main_restores_the_digit_limit(files, capsys):
    saved = sys.get_int_max_str_digits()
    code, out, _ = run(capsys, ["report", "--input", files["huge"]])
    assert code in (EXIT_PASS, EXIT_VERDICT)
    assert len(out) > 10000
    assert sys.get_int_max_str_digits() == saved
    # a flag longer than the limit reads too: main reads the command line
    # under the lifted limit
    nines = "9" * 4301
    code, out, _ = run(capsys, ["report", "--input", files["chain"], "--R", nines])
    assert code in (EXIT_PASS, EXIT_VERDICT)
    assert json.loads(out, parse_int=str)["params"]["R"] == nines
    assert sys.get_int_max_str_digits() == saved


def test_long_bad_values_are_cut_in_parse_errors(files, capsys, tmp_path):
    text = pathlib.Path(files["inv1000"]).read_text().replace('"1/1000"', '"1/' + "9" * 10000 + 'x"')
    assert len(text) > 10000
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, out, err = run(capsys, ["validate", "--input", str(path)])
    assert code == EXIT_PARSE
    assert out == ""
    assert err.startswith("parse error: ") and "bad slope '1/999" in err
    assert "... (10005 chars)" in err
    assert len(err) < 200


# Spellings of an integer that int() reads but the formats do not: an
# underscore, a sign '+', inner whitespace and digits of other scripts
# (Arabic-Indic three and zero, Devanagari six).
SLOPE_SPELLINGS = ["1_0/1", "\u0663/1", "0 / 1", "+0/1", "0/1_0", "\u0660/1"]


@pytest.mark.parametrize("spelling", SLOPE_SPELLINGS)
def test_slopes_are_ascii_integers(files, capsys, tmp_path, spelling):
    path = "manifolds.0.boundaries.0.decoration.base"
    bad = edited_input(files["chain"], path, spelling, tmp_path)
    code, out, err = run(capsys, ["validate", "--input", bad])
    assert (code, out) == (EXIT_PARSE, "")
    assert err.startswith("parse error: ") and "bad slope" in err


@pytest.mark.parametrize("spelling", [" 0/1 ", "0/1", "-0/1", "0/-1"])
def test_slopes_keep_outer_whitespace_and_a_minus(files, capsys, tmp_path, spelling):
    path = "manifolds.0.boundaries.0.decoration.base"
    ok = edited_input(files["chain"], path, spelling, tmp_path)
    assert run(capsys, ["validate", "--input", ok])[0] == EXIT_PASS
    for infinity in ("inf", "1/0", "-1/0", " inf "):
        path = "manifolds.0.boundaries.0.decoration.transversal"
        ok = edited_input(files["chain"], path, infinity, tmp_path)
        assert run(capsys, ["validate", "--input", ok])[0] == EXIT_PASS, infinity


@pytest.mark.parametrize(
    "line, spelling",
    [(0, "\u0666 6"), (0, "6 +6"), (6, "5 0_0"), (6, "5 +0"), (6, "5 \u0660")],
)
def test_graph_files_are_ascii_integers(capsys, tmp_path, line, spelling):
    lines = C6.splitlines()
    lines[line] = spelling
    path = tmp_path / "graph.txt"
    path.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, ["hyplab", "--input", str(path)])
    assert (code, out) == (EXIT_PARSE, "")
    assert err.startswith("parse error: bad ")


# Every numeric flag takes ASCII spellings only: the integer flags read
# through ascii_int and --eps0 through ascii_float, which refuse what int()
# and float() would take beyond them (a plus sign, an underscore,
# surrounding whitespace, other scripts' digits) as a usage error.
@pytest.mark.parametrize(
    "command, flag, spelling",
    [
        ("report", "--R", "\u0663"),
        ("report", "--D", "+1"),
        ("collapse", "--h", "1_0"),
        ("collapse", "--denom-bound", " 5"),
        ("hyplab", "--R", "\u0663"),
        ("model", "--eps0", "0_3"),
        ("model", "--eps0", "\u0660.\u0663"),
        ("model", "--eps0", " 0.3"),
        ("model", "--eps0", "+0.3"),
        ("model", "--eps0", "0.3\t"),
    ],
)
def test_integer_flags_are_ascii_integers(files, capsys, command, flag, spelling):
    source = files["c6" if command == "hyplab" else "chain"]
    code, out, err = run(capsys, [command, "--input", source, flag, spelling])
    assert (code, out, err) == (EXIT_PARSE, "", f"glueforge: error: '{flag}' does not take {spelling!r}\n")


def test_oversized_input_is_a_parse_error(capsys, tmp_path):
    path = tmp_path / "big.json"
    path.write_text(" " * (cli.MAX_INPUT_BYTES + 1))
    code, out, err = run(capsys, ["validate", "--input", str(path)])
    assert code == EXIT_PARSE
    assert out == ""
    assert err == f"parse error: input {path} is larger than {cli.MAX_INPUT_BYTES} bytes\n"
    # a multi-byte character counts by its bytes
    path.write_text("é" * (cli.MAX_INPUT_BYTES // 2 + 1))
    assert run(capsys, ["validate", "--input", str(path)])[0] == EXIT_PARSE


def test_input_that_is_not_utf8_is_a_parse_error(capsys, tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"pieces": "\xe9"}')
    code, out, err = run(capsys, ["validate", "--input", str(path)])
    assert code == EXIT_PARSE
    assert err.startswith(f"parse error: cannot read {path}: not UTF-8 text")


@pytest.mark.parametrize("name", ["chain", "c6"])
def test_input_hash_is_the_hash_of_the_file_bytes(files, capsys, tmp_path, name):
    # no newline translation: a CRLF copy hashes as itself, not as its LF
    # twin, and gives the same result
    command = "hyplab" if name == "c6" else "report"
    crlf = tmp_path / "crlf.txt"
    crlf.write_bytes(pathlib.Path(files[name]).read_bytes().replace(b"\n", b"\r\n"))
    lf_code, lf_out, _ = run(capsys, [command, "--input", files[name]])
    code, out, err = run(capsys, [command, "--input", str(crlf)])
    assert (code, err) == (lf_code, "")
    obj = envelope(out)
    assert obj["input_sha256"] == hashlib.sha256(crlf.read_bytes()).hexdigest()
    assert obj["input_sha256"] != envelope(lf_out)["input_sha256"]
    assert obj["result"] == envelope(lf_out)["result"]


@pytest.mark.parametrize("encoding", ["ascii", "latin-1"])
def test_stdout_is_utf8_in_every_locale(tmp_path, encoding):
    path = tmp_path / "accent.json"
    path.write_text(chain(core("MÉ", MU), core("c1", push(REFLECTION))).canonical_json(), "utf-8")
    argv = ["collapse", "--input", str(path)]
    plain = cold([*CLI, *argv])
    assert plain.returncode == EXIT_PASS and "MÉ".encode() in plain.stdout
    proc = cold([*CLI, *argv], PYTHONIOENCODING=encoding)
    assert (proc.returncode, proc.stdout, proc.stderr) == (EXIT_PASS, plain.stdout, b"")
    out = tmp_path / "out.json"
    assert cold([*CLI, *argv, "--out", str(out)], PYTHONIOENCODING=encoding).returncode == EXIT_PASS
    assert out.read_bytes() == plain.stdout


def id_gluings() -> dict:
    """JSON objects of gluings whose ids and names each case edits: two
    cores, a split piece, and a graph backend with a named marking and a
    projection table."""
    h = BackendHandle.finite_graph(
        cycle_graph(6), {"W": [0, 1]}, [GraphProjection((0, 1), (3,), "W0", 7)]
    )
    graph = GluingGraph(
        manifolds=(core("G", AbstractMarking(h, (0, 1))),),
        pieces=(("p0", "G"), ("p1", "G")),
        identifications=(
            Identification("p0", "E0", "p1", "E0", SlotMap(h, perm=(0, 5, 4, 3, 2, 1))),
        ),
    )
    cores = chain(core("c0", MU), core("c1", push(REFLECTION)))
    return {"cores": cores.to_json(), "split": split_gluing().to_json(), "graph": graph.to_json()}


SPLIT = ("manifolds", 0, "splitting", "pieces", 0)
GRAPH_BOUNDARY = ("manifolds", 0, "boundaries", 0)


# Each case: the gluing, its edits as (path..., value), and the field the
# parse error names.  Before ids had to be strings, str() turned the
# first three into valid gluings.
@pytest.mark.parametrize(
    "base, edits, field",
    [
        ("cores", [("manifolds", 0, "id", 7), ("pieces", 0, "manifold", 7)], "manifold id"),
        (
            "cores",
            [("manifolds", 0, "boundaries", 0, "id", 0), ("identifications", 0, "a", ["p0", "0"])],
            "boundary id",
        ),
        ("cores", [("manifolds", 0, "id", None), ("pieces", 0, "manifold", "None")], "manifold id"),
        ("cores", [("manifolds", 0, "kind", 0)], "manifold kind"),
        ("cores", [("manifolds", 0, "disk_records", [[0]])], "disk_records boundary"),
        ("cores", [("pieces", 0, "id", 0)], "piece id"),
        ("cores", [("manifolds", 0, "id", "7"), ("pieces", 0, "manifold", 7)], "piece manifold"),
        ("cores", [("identifications", 0, "b", ["p1", 0])], "slot b boundary"),
        ("split", [(*SPLIT, "id", 0)], "sub-piece id"),
        ("split", [(*SPLIT, "manifold", None)], "sub-piece manifold"),
        ("split", [(*SPLIT, "boundaries", "E0", 0)], "sub-piece boundary"),
        ("graph", [(*GRAPH_BOUNDARY, "backend", "projections", 0, "label", 0)], "projection label"),
        (
            "graph",
            [
                (*GRAPH_BOUNDARY, "backend", "markings", {"5": [0, 1]}),
                (*GRAPH_BOUNDARY, "decoration", {"name": 5}),
            ],
            "marking name",
        ),
    ],
)
def test_ids_and_names_must_be_json_strings(capsys, tmp_path, base, edits, field):
    obj = id_gluings()[base]
    for *parents, last, value in edits:
        target = obj
        for key in parents:
            target = target[key]
        target[last] = value
    path = tmp_path / "ids.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, ["validate", "--input", str(path)])
    assert (code, out) == (EXIT_PARSE, "")
    assert err.startswith(f"parse error: {field} must be a string, not "), err


def c6_pair(**backend: object) -> dict:
    """JSON object of two pieces of one C6 boundary glued by the rotation
    v -> v + 2, so that clause a reads the slot pair ({0, 1}, {2, 3});
    backend adds to the graph backend's declaration."""
    h = BackendHandle.finite_graph(cycle_graph(6))
    rotation = SlotMap(h, perm=(2, 3, 4, 5, 0, 1))
    obj = GluingGraph(
        manifolds=(core("G", AbstractMarking(h, (0, 1))),),
        pieces=(("p0", "G"), ("p1", "G")),
        identifications=(Identification("p0", "E0", "p1", "E0", rotation),),
    ).to_json()
    obj["manifolds"][0]["boundaries"][0]["backend"].update(backend)
    return obj


def run_gluing(capsys, tmp_path, obj: dict, argv: list[str]):
    path = tmp_path / "gluing.json"
    path.write_text(json.dumps(obj))
    return run(capsys, [*argv, "--input", str(path)])


@pytest.mark.parametrize("a, b", [([0, 1], [2, 3]), ([1, 0], [3, 2]), ([3, 2], [1, 0])])
def test_a_projection_entry_matches_in_any_vertex_order(capsys, tmp_path, a, b):
    # each side is a vertex set: before entries were stored sorted, only
    # ascending lists matched, and the written-down 9 went unread
    obj = c6_pair(projections=[{"a": a, "b": b, "label": "W", "value": 9}])
    code, out, err = run_gluing(capsys, tmp_path, obj, ["report", "--R", "6"])
    assert (code, err) == (EXIT_VERDICT, "")
    slots = envelope(out)["result"]["slots"]
    assert [(s["projection"]["value"], s["clause_a"]) for s in slots] == [(0, True), (9, False)]


@pytest.mark.parametrize(
    "backend, message",
    [
        ({"projections": [{"a": [0, 1], "b": [2, 3], "label": "W", "value": -50}]},
         "projection 'W' has negative value -50"),
        ({"projections": [{"a": [0, 99], "b": [2, 3], "label": "W", "value": 9}]},
         "projection vertex 99 outside the graph"),
        ({"projections": [{"a": [], "b": [2, 3], "label": "W", "value": 9}]},
         "projection 'W' has an empty side"),
        ({"projections": [{"a": [0, 1], "b": [2, 2], "label": "W", "value": 9}]},
         "projection 'W' repeats a vertex"),
        ({"markings": {"X": [0, 99]}}, "marking vertex 99 outside the graph"),
        ({"markings": {"X": [0, 3]}}, "marking diameter 3 exceeds 2"),
    ],
)
def test_a_graph_backend_checks_its_declared_data(capsys, tmp_path, backend, message):
    # checked when the backend is built, whether or not a slot reads it
    for argv in (["validate"], ["report", "--R", "6"]):
        code, out, err = run_gluing(capsys, tmp_path, c6_pair(**backend), argv)
        assert (code, out, err) == (EXIT_INVARIANT, "", f"invariant violation: {message}\n")


@pytest.mark.parametrize("key", ["disk_records", "annulus_records"])
def test_a_record_entry_must_be_a_list(capsys, tmp_path, key):
    # a string entry used to be read as its characters
    obj = id_gluings()["cores"]
    obj["manifolds"][0][key] = ["E0"]
    code, out, err = run_gluing(capsys, tmp_path, obj, ["validate"])
    message = f"parse error: {key} must be lists of boundary ids\n"
    assert (code, out, err) == (EXIT_PARSE, "", message)


@pytest.mark.parametrize(
    "key, message",
    [("p0:NOPE", "unknown slot p0:NOPE"), ("px:E0", "unknown piece px")],
)
def test_a_bad_lambda_key_is_named_as_lambda(capsys, tmp_path, key, message):
    obj = id_gluings()["cores"]
    obj["lambda"] = {key: {"base": "0", "transversal": "inf"}}
    code, out, err = run_gluing(capsys, tmp_path, obj, ["validate"])
    expected = f"invariant violation: lambda references {message}\n"
    assert (code, out, err) == (EXIT_INVARIANT, "", expected)


@pytest.mark.parametrize("encoding", ["ascii", "latin-1"])
def test_stderr_is_utf8_in_every_locale(tmp_path, encoding):
    obj = id_gluings()["cores"]
    obj["identifications"][0]["a"][0] = "pÉ"
    path = tmp_path / "accent.json"
    path.write_text(json.dumps(obj, ensure_ascii=False), "utf-8")
    argv = ["validate", "--input", str(path)]
    plain = cold([*CLI, *argv])
    expected = "invariant violation: identification references unknown piece pÉ\n".encode()
    assert (plain.returncode, plain.stderr) == (EXIT_INVARIANT, expected)
    proc = cold([*CLI, *argv], PYTHONIOENCODING=encoding)
    assert (proc.returncode, proc.stdout, proc.stderr) == (EXIT_INVARIANT, b"", expected)
    # a path byte that is not UTF-8 prints as its escape, not as a fault
    undecodable = ["validate", "--input", os.fsdecode(bytes(tmp_path) + b"/\xff")]
    plain = cold([*CLI, *undecodable])
    assert plain.returncode == EXIT_PARSE and b"\\udcff" in plain.stderr
    proc = cold([*CLI, *undecodable], PYTHONIOENCODING=encoding)
    assert (proc.returncode, proc.stderr) == (EXIT_PARSE, plain.stderr)


def test_balanced_points_beyond_double_precision_are_internal_faults(files, capsys):
    # axis power 200 puts balanced points below y = 2^-1074, the least
    # double; the run stops at once with one internal-fault line
    start = time.perf_counter()
    code, out, err = run(capsys, ["model", "--input", files["deep200"]])
    assert time.perf_counter() - start < 5.0
    assert (code, out) == (EXIT_INTERNAL, "")
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("internal error: PrecisionLossError: ")


def test_deep_stack_model_answers_on_the_decimal_path(files, capsys):
    # axis power 30 puts balanced points near y = 1e-50, beyond what a
    # double resolves; both tubes are 30 log phi^2 long
    start = time.perf_counter()
    code, out, err = run(capsys, ["model", "--input", files["deep30"]])
    assert time.perf_counter() - start < 5.0
    assert code == EXIT_PASS, err
    tubes = json.loads(out)["result"]["skeleton"]["tubes"]
    golden = 30 * 2 * math.log((1 + math.sqrt(5)) / 2)
    assert len(tubes) == 2
    assert all(t["length"] == pytest.approx(golden, rel=1e-12) for t in tubes)


# ------------------------------------------------ modules a cold run loads


def test_no_module_imports_numpy():
    root = pathlib.Path(glueforge.__file__).resolve().parent
    for path in sorted(root.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        assert not re.search(r"^\s*(import|from)\s+numpy\b", text, re.M), path.name


# Runs main(argv) in a fresh interpreter and prints two lines: the modules
# loaded once cli is imported, then main's exit code and the modules loaded
# after it.  Each argv that it runs writes its report to --out.
MODULES_PROBE = (
    "import sys\n"
    "from glueforge import cli\n"
    "print(*sys.modules)\n"
    "code = cli.main(sys.argv[1:])\n"
    "print(code, *sys.modules)\n"
)

# importing dataclasses compiles its generated methods on every cold start,
# and it loads inspect; records are built without either.  fractions loads
# decimal and numbers; only the --denom-bound sweep and the K' of a stack
# path that detours (neither a geodesic nor a revisit) build one, and
# hyplab writes its delta from an int.  A model within 40 bits of
# precision demand runs in doubles and loads neither; the decimal path
# (decimalpath) of a deeper one (deep30) loads both.  hashlib loads OpenSSL
# (_hashlib); no command imports it, since the input hash is CPython's
# builtin SHA-256.  argparse loads gettext, and its first message lookup
# locale; no module imports argparse, and help and usage errors load none
# of the three
HEAVY = {
    "dataclasses", "inspect", "fractions", "decimal", "hashlib", "_hashlib",
    "argparse", "gettext", "locale",
}
EXACT = {"fractions", "decimal"}
TORUS = {"gluing", "surface", "torus"}
GRAPH = {"gluing", "surface", "hypgraph"}
# a JSON report loads its writer, and an OBJ export does not
JSON = {"ioutil"}
# the skeleton on the torus in doubles, and on the decimal path
SKELETON = TORUS | {"halfplane", "model"}
DECIMAL = SKELETON | {"decimalpath"}
# the certificate and the collapse read the slot measures
REPORT = {"certify", "measures"}
COLLAPSE = {"transforms", "measures"}

# The glueforge modules that a cold run loads besides cli, errors and
# record (the table of the README), and the modules of HEAVY and numpy
# that it loads, by (command line, input name); main's exit code comes
# first.  No import of cli loads a module of HEAVY or numpy.
COLD_MODULES = {
    ("validate", "example:chain"): (EXIT_PASS, TORUS | JSON, set()),
    ("report", "example:chain"): (EXIT_PASS, TORUS | JSON | {"farey"} | REPORT, set()),
    ("collapse", "example:stack"): (EXIT_PASS, TORUS | JSON | {"farey"} | COLLAPSE, set()),
    ("decompose", "example:chain"): (EXIT_PASS, TORUS | JSON | {"decompose"}, set()),
    ("model", "example:chain"): (EXIT_PASS, SKELETON | JSON, set()),
    ("model --format obj", "example:chain"): (EXIT_PASS, SKELETON, set()),
    ("validate", "example:twisted"): (EXIT_PASS, TORUS | JSON, set()),
    ("decompose", "example:compression"): (EXIT_PASS, TORUS | JSON | {"decompose"}, set()),
    ("model", "example:thin"): (EXIT_PASS, SKELETON | JSON, set()),
    # at 38 bits the deepest double-path input of the benchmark (axis7),
    # and one on the decimal path (deep30)
    ("model", "axis7"): (EXIT_PASS, SKELETON | JSON, set()),
    ("model --format obj", "axis7"): (EXIT_PASS, SKELETON, set()),
    ("model", "deep30"): (EXIT_PASS, DECIMAL | JSON, EXACT),
    ("model --format obj", "deep30"): (EXIT_PASS, DECIMAL, EXACT),
    # a stack path that revisits a vertex runs the pair scan, which needs
    # no more layers than the one-row test of a geodesic path
    ("collapse", "backtrack"): (EXIT_VERDICT, TORUS | JSON | {"farey"} | COLLAPSE, set()),
    # boundaries on both backends load both layers
    ("report", "mixed"): (EXIT_VERDICT, TORUS | GRAPH | JSON | {"farey"} | REPORT, set()),
    ("validate", "graph_pair"): (EXIT_PASS, GRAPH | JSON, set()),
    ("validate", "graph_stack"): (EXIT_PASS, GRAPH | JSON, set()),
    ("report", "graph_stack"): (EXIT_PASS, GRAPH | JSON | REPORT, set()),
    ("collapse", "graph_stack"): (EXIT_PASS, GRAPH | JSON | COLLAPSE, set()),
    ("decompose", "graph_stack"): (EXIT_PASS, GRAPH | JSON | {"decompose"}, set()),
    ("model", "graph_stack"): (EXIT_PASS, GRAPH | JSON | {"model"}, set()),
    ("hyplab", "c6"): (EXIT_PASS, JSON | {"hypgraph", "hyplab"}, set()),
}


@pytest.mark.parametrize("line", ["--help", "report --help", "bogus", "report --R=3 --input"])
def test_help_and_usage_errors_load_no_module_of_a_command(files, line):
    argv = [*line.split(), *[files["chain"]] * line.endswith("--input")]
    code, *after = cold(["-c", MODULES_PROBE, *argv]).stdout.decode().splitlines()[-1].split()
    loaded = {m.removeprefix("glueforge.") for m in after if m.startswith("glueforge.")}
    assert int(code) == (EXIT_PASS if "--help" in argv else EXIT_PARSE)
    assert loaded <= {"cli", "errors", "record"} and (HEAVY | {"numpy"}).isdisjoint(after)


@pytest.mark.parametrize("command, name", list(COLD_MODULES))
def test_cold_runs_load_only_their_modules(files, tmp_path, command, name):
    target = tmp_path / "out"
    argv = [*command.split(), "--input", files[name], "--out", str(target)]
    proc = cold(["-c", MODULES_PROBE, *argv])
    assert (proc.returncode, proc.stderr) == (0, b"")
    before, (code, *after) = (line.split() for line in proc.stdout.decode().splitlines())
    loaded = {m.removeprefix("glueforge.") for m in after if m.startswith("glueforge.")}
    outside = HEAVY | {"numpy"}
    expected_code, layers, heavy = COLD_MODULES[command, name]
    assert (int(code), loaded, outside & {*after}) == (
        expected_code, {"cli", "errors", "record"} | layers, heavy
    )
    assert outside.isdisjoint(before)
    assert target.stat().st_size > 0


# ------------------------------------------------------- process entry


# Command lines of every command and every exit code, by (command line,
# input name): main() returns the code in process, and the process entry,
# which ends the process with os._exit, exits with it and prints the same
# bytes
PROCESS_RUNS = {
    ("validate", "example:twisted"): EXIT_PASS,
    ("report", "example:chain"): EXIT_PASS,
    # a flag and its value in one token: a usage error
    ("report --R=6", "example:chain"): EXIT_PARSE,
    ("collapse --emit-correspondence", "example:stack"): EXIT_PASS,
    ("collapse", "example:fibered"): EXIT_FIBERED,
    ("decompose", "example:compression"): EXIT_PASS,
    ("model", "example:compression"): EXIT_PASS,
    ("model --eps0 0.3", "example:thin"): EXIT_VERDICT,
    ("model --format obj", "example:chain"): EXIT_PASS,
    ("model", "deep200"): EXIT_INTERNAL,
    # the graph backend's involution test and the skeleton's involution
    # block, and its disk-set echo
    ("model", "graph_self"): EXIT_PASS,
    ("decompose", "graph_disks"): EXIT_PASS,
    # a twisted bundle on a graph backend: its cover clause, and the
    # twisted end of a stack
    ("report", "graph_twisted"): EXIT_PASS,
    ("collapse", "graph_twisted"): EXIT_VERDICT,
    ("hyplab", "c6"): EXIT_PASS,
    ("validate", "bad"): EXIT_PARSE,
    ("validate", "fixed"): EXIT_INVARIANT,
}


@pytest.mark.parametrize("command, example", list(PROCESS_RUNS))
def test_process_entry_matches_in_process_main(files, capsys, command, example):
    argv = [*command.split(), "--input", files[example]]
    proc = cold([*CLI, *argv])
    code, out, err = run(capsys, argv)
    assert (proc.returncode, proc.stdout, proc.stderr.decode()) == (code, out.encode(), err)
    assert code == PROCESS_RUNS[command, example]


def test_warnings_print_one_line_each(files, capsys):
    # in process, as in the cold runs that COLD_PINS pins
    code, _, err = run(capsys, ["model", "--input", files["example:compression"]])
    assert (code, err) == (EXIT_PASS, UNBURIED)


# The top-level help, which `--help`, `-h` and a line with --help that
# names no command print, and the help of each command
TOP_HELP = """\
usage: glueforge <command> --input INPUT [--flag value ...] [--out OUT]

  validate   parse a gluing file and check every structural invariant
  report     certify bounded combinatorics at (R, D)
  collapse   combine I-bundle stacks and rewire the gluing
  decompose  expand splittings and cut along maximal compressions
  model      assemble, verify and export the metric skeleton as json or obj
  hyplab     measure hyperbolicity and stability on a finite graph

glueforge <command> --help lists the flags of a command
"""
HELP = {
    "validate": "--input INPUT [--out OUT]\n\nparse a gluing file and check every structural invariant\n",
    "report": "--input INPUT [--R R] [--D D] [--denom-bound DENOM_BOUND] [--out OUT]\n\n"
    "certify bounded combinatorics at (R, D)\n",
    "collapse": "--input INPUT [--R R] [--h H] [--denom-bound DENOM_BOUND] [--emit-correspondence] [--out OUT]\n\n"
    "combine I-bundle stacks and rewire the gluing\n",
    "decompose": "--input INPUT [--out OUT]\n\nexpand splittings and cut along maximal compressions\n",
    "model": "--input INPUT [--eps0 EPS0] [--format FORMAT] [--out OUT]\n\n"
    "assemble, verify and export the metric skeleton as json or obj\n",
    "hyplab": "--input INPUT [--R R] [--out OUT]\n\nmeasure hyperbolicity and stability on a finite graph\n",
}
ALL_COMMANDS = "; the commands are validate, report, collapse, decompose, model, hyplab"


def usage(message: str) -> tuple[int, str, str]:
    return EXIT_PARSE, "", f"glueforge: error: {message}\n"


# Help, usage errors and flag values that fail their checks, by command
# line (split at spaces): the exit code, stdout and stderr.  A usage error
# names the first bad token, and --R=3, -- and a repeated flag are usage
# errors.
USAGE_LINES = {
    "--help": (EXIT_PASS, TOP_HELP, ""),
    "-h": (EXIT_PASS, TOP_HELP, ""),
    "bogus --input x.json --help": (EXIT_PASS, TOP_HELP, ""),
    **{f"{command} --help": (EXIT_PASS, f"usage: glueforge {command} {text}", "") for command, text in HELP.items()},
    "report --input x.json --R 3 -h": (EXIT_PASS, "usage: glueforge report " + HELP["report"], ""),
    "": usage("no command" + ALL_COMMANDS),
    "bogus": usage("unknown command 'bogus'" + ALL_COMMANDS),
    "bogus --input x.json": usage("unknown command 'bogus'" + ALL_COMMANDS),
    "--R 3 report --input x.json": usage("unknown command '--R'" + ALL_COMMANDS),
    "report": usage("report needs --input"),
    "report --R 3": usage("report needs --input"),
    "report --input x.json --bogus": usage("report does not take '--bogus'"),
    "report --input x.json --R=3": usage("report does not take '--R=3'"),
    "report --inp x.json": usage("report does not take '--inp'"),
    "report --input x.json --denom_bound 5": usage("report does not take '--denom_bound'"),
    "report --input x.json -- --R 3": usage("report does not take '--'"),
    "hyplab --input x.txt --emit-correspondence": usage("hyplab does not take '--emit-correspondence'"),
    "hyplab --input x.json --format obj": usage("hyplab does not take '--format'"),
    "report --input x.json --input y.json": usage("'--input' is given twice"),
    "report --input x.json --R 3 --R 4": usage("'--R' is given twice"),
    "collapse --input x.json --emit-correspondence --emit-correspondence": usage("'--emit-correspondence' is given twice"),
    "report --input x.json --R": usage("'--R' needs a value"),
    "model --input x.json --format xyz": usage("'--format' does not take 'xyz'"),
    "model --input x.json --eps0 many": usage("'--eps0' does not take 'many'"),
    # a value is the next token, whatever it begins with
    "report --input x.json --R -1": (EXIT_INVARIANT, "", "invariant violation: R must be at least 1\n"),
    "model --input x.json --eps0 -0.5": (EXIT_INVARIANT, "", "invariant violation: eps0 must be positive\n"),
}


@pytest.mark.parametrize("line", list(USAGE_LINES))
def test_help_and_usage_errors_are_pinned(capsys, line):
    # in process through main
    assert run(capsys, line.split()) == USAGE_LINES[line]


@pytest.mark.parametrize("line", list(USAGE_LINES))
def test_cold_usage_lines_are_pinned(line):
    # from the cold process entry, which prints what main prints
    code, out, err = USAGE_LINES[line]
    proc = cold([*CLI, *line.split()])
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out.encode(), err.encode())


@pytest.mark.parametrize("extra", [["--" + "x" * 99998], ["--R", "x" * 100000]])
def test_long_bad_tokens_are_cut_in_usage_errors(files, capsys, extra):
    code, out, err = run(capsys, ["report", "--input", files["chain"], *extra])
    assert (code, out, err.count("\n")) == (EXIT_PARSE, "", 1)
    assert len(err) < 200 and "... (100002 chars)" in err


def help_flags(text: str) -> list[str]:
    """The long flags besides --help that a help text names, in order of
    first mention: the order of its usage line."""
    flags = dict.fromkeys(re.findall(r"(?<![\w-])--[A-Za-z][\w-]*", text))
    return [flag for flag in flags if flag != "--help"]


# The params of each command's report with default flags: the flags it
# reads, in the order it echoes them
DEFAULT_PARAMS = {
    "validate": {},
    "report": {"R": 6, "D": 1, "denom_bound": None},
    "collapse": {"R": 6, "h": 1, "denom_bound": None},
    "decompose": {},
    "model": {"eps0": 0.1, "format": "json"},
    "hyplab": {"R": 6},
}
# every optional flag of some command, and the deleted --seed, each with a
# value that a command reading it would accept
ALL_FLAGS = {
    "--R": "3",
    "--D": "1",
    "--h": "1",
    "--eps0": "0.3",
    "--denom-bound": "5",
    "--format": "obj",
    "--seed": "1",
    "--emit-correspondence": None,
}


@pytest.mark.parametrize("command", list(DEFAULT_PARAMS))
def test_each_command_takes_only_the_flags_it_reads(files, capsys, command):
    source = files["c6" if command == "hyplab" else "chain"]
    reads = ["--" + name.replace("_", "-") for name in DEFAULT_PARAMS[command]]
    if command == "collapse":
        reads.append("--emit-correspondence")
    code, out, _ = run(capsys, [command, "--help"])
    assert code == EXIT_PASS
    assert help_flags(out) == ["--input", *reads, "--out"]
    # any other flag is a usage error, as an unknown flag is, even one
    # that begins a flag the command takes (--h and --help)
    for flag, value in ALL_FLAGS.items():
        if flag in reads:
            continue
        argv = [command, "--input", source, flag, *([] if value is None else [value])]
        assert run(capsys, argv) == usage(f"{command} does not take '{flag}'"), argv
    code, out, _ = run(capsys, [command, "--input", source])
    assert code == EXIT_PASS
    assert list(envelope(out)["params"].items()) == list(DEFAULT_PARAMS[command].items())


def test_model_takes_no_sample_count(files, capsys):
    # every tube is sampled at the model's one count; a sample count on the
    # command line is a usage error
    assert list(cli.FLAGS) == ["R", "D", "h", "denom_bound", "eps0", "format"]
    argv = ["model", "--input", files["thin"], "--samples", "9"]
    assert run(capsys, argv) == usage("model does not take '--samples'")
    code, out, _ = run(capsys, argv[:3])
    tubes = envelope(out)["result"]["skeleton"]["tubes"]
    assert code == EXIT_PASS
    assert [len(t["samples"]) for t in tubes if not t["degenerate"]] == [DEFAULT_SAMPLES]


# The shapes of the benchmark ops and example command lines, each with
# the fields that the reader gives it besides the command's defaults
# (DEFAULT_PARAMS, input x.json, no --out, no --emit-correspondence)
PLAIN_LINES = [
    (["validate", "--input", "x.json"], {}),
    (["report", "--R", "3", "--input", "x.json", "--D", "0", "--denom-bound", "5"], {"R": 3, "D": 0, "denom_bound": 5}),
    (["collapse", "--emit-correspondence", "--input", "x.json", "--h", "2", "--out", "o"],
     {"h": 2, "emit_correspondence": True, "out": "o"}),
    (["model", "--input", "x.json", "--eps0", "nan", "--format", "obj"], {"eps0": float("nan"), "format": "obj"}),
    (["hyplab", "--out", "", "--input", "x.json", "--R", "3"], {"out": "", "R": 3}),
    # a value is the next token, whatever it begins with
    (["report", "--input", "-1", "--D", "-1"], {"input": "-1", "D": -1}),
]


@pytest.mark.parametrize("argv, fields", PLAIN_LINES)
def test_plain_lines_read_their_fields(argv, fields):
    # repr, so that a NaN --eps0 equals itself and the types count (1 is
    # not 1.0, nor True)
    unset = {"command": argv[0], "input": "x.json", "out": None, "emit_correspondence": False}
    want = {**unset, **DEFAULT_PARAMS[argv[0]], **fields}
    read = vars(cli._read_argv(argv))
    assert {name: repr(value) for name, value in read.items()} == {name: repr(value) for name, value in want.items()}


def test_main_leaves_the_collector_alone(files, capsys):
    before = gc.get_freeze_count()
    assert run(capsys, ["validate", "--input", files["example:chain"]])[0] == EXIT_PASS
    assert gc.get_freeze_count() == before
    assert gc.isenabled()


def test_process_entry_ends_with_every_byte_and_exit_code(files, large_graph_files, tmp_path):
    # a report larger than a pipe's buffer reaches a file and --out whole,
    # with the bytes that the pinned digest names (its pin reads a pipe)
    argv = ["collapse", "--input", large_graph_files["stack400.json"]]
    code, digest, _ = COLD_PINS["collapse", "stack400.json"]
    with open(tmp_path / "stdout.json", "wb") as fh:
        assert cold([*CLI, *argv], stdout=fh).returncode == code
    out = tmp_path / "out.json"
    written = cold([*CLI, *argv, "--out", str(out)])
    assert (written.returncode, written.stdout, written.stderr) == (code, b"", b"")
    for path in (tmp_path / "stdout.json", out):
        assert path.stat().st_size > 1 << 16
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
    # every exit code leaves the process entry
    assert {*PROCESS_RUNS.values()} == {
        EXIT_PASS, EXIT_VERDICT, EXIT_PARSE, EXIT_INVARIANT, EXIT_FIBERED, EXIT_INTERNAL
    }
    # main() runs with the cyclic collector off
    probe = (
        "import gc, sys\n"
        "from glueforge import cli\n"
        "real = cli.main\n"
        "cli.main = lambda: print(gc.isenabled(), file=sys.stderr) or real()\n"
        "cli.entry()\n"
    )
    proc = cold(["-c", probe, "validate", "--input", files["example:chain"]])
    assert (proc.returncode, proc.stderr) == (EXIT_PASS, b"False\n")


def closed_pipe_run(argv: list[str]):
    """A cold run whose stdout is a pipe that its reader closed first."""
    read, write = os.pipe()
    os.close(read)
    try:
        return cold([*CLI, *argv], stdout=write)
    finally:
        os.close(write)


@pytest.mark.parametrize("command, name", [("collapse", "stack400.json"), ("hyplab", "c6.txt")])
def test_a_closed_stdout_is_an_invariant_violation(large_graph_files, command, name):
    # as an unwritable --out is: one stderr line, not an internal fault,
    # whether the report fills a pipe's buffer or fits in stdout's
    proc = closed_pipe_run([command, "--input", large_graph_files[name]])
    assert proc.returncode == EXIT_INVARIANT
    assert proc.stderr.decode().splitlines() == ["invariant violation: cannot write stdout: Broken pipe"]


def test_cold_runs_see_neither_unbuffered_stdout_nor_an_encoding(monkeypatch):
    # whatever the caller's environment sets, the runner's child imports the
    # package from src, buffers its stdout and returns its raw bytes: a CR
    # and the UTF-8 bytes of an accent stay as written
    monkeypatch.setenv("PYTHONUNBUFFERED", "1")
    monkeypatch.setenv("PYTHONIOENCODING", "ascii")
    probe = (
        "import os, glueforge\n"
        "print(os.environ.get('PYTHONUNBUFFERED'), os.environ.get('PYTHONIOENCODING'),"
        " glueforge.__file__)\n"
    )
    proc = cold(["-c", probe])
    unbuffered, encoding, path = proc.stdout.decode().split()
    assert (proc.returncode, unbuffered, encoding) == (0, "None", "None")
    assert pathlib.Path(path).resolve() == pathlib.Path(glueforge.__file__).resolve()
    proc = cold(["-c", "import sys\nsys.stdout.buffer.write(b'a\\r\\nb\\xc3\\x89\\n')"])
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"a\r\nb\xc3\x89\n", b"")


def test_console_script_is_the_process_entry():
    pyproject = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
    assert re.search(r'^glueforge = "glueforge\.cli:entry"$', pyproject.read_text(), re.M)


# ------------------------------------------------------- graphs at scale


def test_huge_vertex_count_without_edges_fails_fast(tmp_path):
    graph = tmp_path / "huge.txt"
    graph.write_text("1000000000 0")
    assert graph.stat().st_size == 12
    start = time.perf_counter()
    proc = cold([*CLI, "hyplab", "--input", str(graph)])
    assert time.perf_counter() - start < 1.0
    assert (proc.returncode, proc.stdout) == (EXIT_INVARIANT, b"")
    assert proc.stderr.decode().splitlines() == [
        "invariant violation: graph disconnected: no path from 0 to 1"
    ]


def test_hyplab_refuses_a_path_past_its_vertex_cap(tmp_path):
    # before any distance row: a path at the cap takes seconds, and every
    # hyplab input of this suite lies far below it
    n = hyplab.MAX_HYPLAB_VERTICES + 1
    graph = tmp_path / "path.txt"
    graph.write_text(f"{n} {n - 1}\n" + "".join(f"{i} {i + 1}\n" for i in range(n - 1)))
    start = time.perf_counter()
    proc = cold([*CLI, "hyplab", "--input", str(graph)])
    assert time.perf_counter() - start < 1.0
    assert (proc.returncode, proc.stdout) == (EXIT_INVARIANT, b"")
    assert proc.stderr.decode().splitlines() == [
        f"invariant violation: hyplab takes at most {hyplab.MAX_HYPLAB_VERTICES} vertices, got {n}"
    ]


def test_denom_bound_sweep_is_counted_before_it_is_built(files):
    # a window a million wide holds about 10^7 fractions of denominator at
    # most 4: the count passes the cap before the sweep builds a slope
    obj = json.loads(pathlib.Path(files["example:chain"]).read_text())
    obj["manifolds"][0]["boundaries"][0]["decoration"] = {"base": "1000000/1", "transversal": "inf"}
    wide = pathlib.Path(files["dir"]) / "wide-chain.json"
    wide.write_text(json.dumps(obj))
    start = time.perf_counter()
    proc = cold([*CLI, "report", "--denom-bound", "4", "--input", str(wide)])
    assert time.perf_counter() - start < 1.0
    assert (proc.returncode, proc.stdout) == (EXIT_INVARIANT, b"")
    assert proc.stderr.decode().splitlines() == [
        "invariant violation: denominator bound 4 sweeps more than"
        f" {farey.MAX_SWEEP_CANDIDATES} candidate slopes"
    ]


def test_the_sweep_cap_bounds_the_count_of_built_slopes(monkeypatch):
    # the window [-2, 2] holds 4q + 1 fractions of denominator q, so a
    # bound b counts 2b(b + 1) + b + 1 candidates with infinity
    def counted(b: int) -> int:
        return 2 * b * (b + 1) + b + 1

    monkeypatch.setattr(farey, "MAX_SWEEP_CANDIDATES", counted(5))
    built = farey._sweep_candidates([Fraction(0)], 5)
    assert INFINITY in built and len(built) <= counted(5)
    with pytest.raises(ValidationError, match="denominator bound 6 sweeps more than 66"):
        farey._sweep_candidates([Fraction(0)], 6)
    with pytest.raises(ValidationError):  # counting stops at the cap, whatever the bound
        farey._sweep_candidates([Fraction(0)], 10**18)


def test_deep_nesting_is_a_parse_error(tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    proc = cold([*CLI, "validate", "--input", str(deep)])
    assert (proc.returncode, proc.stdout) == (EXIT_PARSE, b"")
    assert proc.stderr.decode().splitlines() == [
        "parse error: malformed gluing spec: arrays or objects nest too deeply"
    ]


def seeded_sparse_graph(seed: int, n: int, extra: int) -> str:
    """Edge-list text of a random spanning tree plus `extra` chords."""
    rng = random.Random(seed)
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    while len(edges) < n - 1 + extra:
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    return f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in sorted(edges))


def test_hyplab_on_300_vertices_is_fast(large_graph_files, capsys):
    # the pin of this graph fixes the bytes of a cold run
    start = time.perf_counter()
    code, out, err = run(capsys, ["hyplab", "--input", large_graph_files["sparse300.txt"]])
    assert time.perf_counter() - start < 2.0
    assert code == EXIT_PASS, err
    result = json.loads(out)["result"]
    # frozen from the exhaustive O(n^4) scan, oracles.exhaustive_delta
    assert result["delta"] == [9, 2]
    assert result["diameter"] == 14


def seeded_gnp_graph(seed: int, n: int, p: float) -> str:
    """Edge-list text of a G(n, p) draw."""
    rng = random.Random(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)


def complete_graph_text(n: int) -> str:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)


def cycle_stack(n: int, ks: list[int]) -> GluingGraph:
    """Cores and trivial I-bundles over C_n glued in a row by v -> -v,
    bundle i carrying the edge {k, k+1} on F0 and its reflection on F1."""
    h = BackendHandle.finite_graph(cycle_graph(n))
    flip = SlotMap(h, perm=tuple(-v % n for v in range(n)))

    def edge(*vertices: int) -> AbstractMarking:
        return AbstractMarking(h, tuple(v % n for v in vertices))

    bundles = [bundle(f"B{i}", edge(k, k + 1), edge(-k, -k - 1), flip) for i, k in enumerate(ks)]
    last = ks[-1] + 2
    right = core("MR", edge(-last, -last - 1))
    return chain(core("ML", edge(0, 1)), *bundles, right, maps=[flip] * (len(ks) + 1))


@pytest.fixture(scope="module")
def large_graph_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("graphs")
    texts = {
        "c6.txt": C6,
        "k7.txt": complete_graph_text(7),
        "sparse300.txt": seeded_sparse_graph(300, 300, 50),
        "sparse1000.txt": seeded_sparse_graph(1000, 1000, 166),
        "gnp60.txt": seeded_gnp_graph(60, 60, 0.5),
        "stack400.json": cycle_stack(400, [6, 14, 25]).canonical_json(),
    }
    out = {}
    for name, text in texts.items():
        (root / name).write_text(text)
        out[name] = str(root / name)
    return out


def parsed_graph(x: GluingGraph) -> FiniteGraph:
    """The one curve graph that every boundary of x reads."""
    graphs = {id(g): g for g in (b.handle.graph for m in x.manifolds for b in m.boundaries)}
    assert len(graphs) == 1
    return graphs.popitem()[1]


def test_validate_computes_few_rows_of_a_large_curve_graph(
    large_graph_files, capsys, monkeypatch
):
    # the graph that the command's own parse built
    parsed = []
    real = gluing.validate_gluing

    def keeping(text):
        parsed.append(real(text))
        return parsed[-1]

    monkeypatch.setattr(gluing, "validate_gluing", keeping)
    code, _, _ = run(capsys, ["validate", "--input", large_graph_files["stack400.json"]])
    assert code == EXIT_PASS
    graph = parsed_graph(parsed[0])
    assert graph.vertex_count == 400
    assert graph.rows_held < 40


def test_a_parse_does_its_own_work_whatever_ran_before(large_graph_files, capsys, monkeypatch):
    # the rows a parse computes and the maps it checks depend on the file
    # alone: a report run in between leaves the next parse nothing to reuse
    name = large_graph_files["stack400.json"]
    text = pathlib.Path(name).read_text()
    checked = []
    real = FiniteGraph.preserved_by

    def counting(graph, perm):
        checked.append(tuple(perm))
        return real(graph, perm)

    monkeypatch.setattr(FiniteGraph, "preserved_by", counting)

    def parse() -> tuple[int, list]:
        checked.clear()
        return parsed_graph(validate_gluing(text)).rows_held, list(checked)

    first = parse()
    assert first[0] > 0 and first[1]
    code, _, _ = run(capsys, ["report", "--input", name])
    assert code == COLD_PINS["report", "stack400.json"][0]
    assert parse() == first


def test_no_module_keeps_a_memo_between_calls():
    # a process-wide functools cache would make work, and any answer that
    # depends on it, follow what the process computed earlier
    names = [info.name for info in pkgutil.iter_modules(glueforge.__path__)]
    memos = []
    for name in names:
        module = importlib.import_module(f"glueforge.{name}")
        for attr, value in vars(module).items():
            found = [(attr, value)]
            if isinstance(value, type) and value.__module__ == module.__name__:
                found += [(f"{attr}.{k}", getattr(value, k)) for k in vars(value)]
            memos += [f"{name}.{a}" for a, v in found if hasattr(v, "cache_info")]
    assert "surface" in names and memos == []


# ----------------------------------------------------------- determinism


@pytest.mark.parametrize("command", ["validate", "report", "collapse", "decompose", "model"])
def test_repeated_runs_are_byte_identical(files, capsys, command):
    _, first, _ = run(capsys, [command, "--input", files["chain"]])
    _, second, _ = run(capsys, [command, "--input", files["chain"]])
    assert first == second
    assert first.endswith("\n")


def test_out_file_matches_stdout(files, capsys, tmp_path):
    _, out, _ = run(capsys, ["report", "--input", files["chain"]])
    target = tmp_path / "report.json"
    code, silent, _ = run(
        capsys, ["report", "--input", files["chain"], "--out", str(target)]
    )
    assert silent == ""
    assert target.read_bytes() == out.encode()
