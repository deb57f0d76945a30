"""Front-end tests: exit codes, report envelopes, determinism, and the
export paths, all through main(argv)."""

import contextlib
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
import subprocess
import sys
import time

import pytest

import glueforge
from glueforge import cli, gluing
from glueforge.cli import (
    EXIT_FIBERED,
    EXIT_INTERNAL,
    EXIT_INVARIANT,
    EXIT_PARSE,
    EXIT_PASS,
    EXIT_VERDICT,
    main,
)
from glueforge.gluing import (
    GENERIC,
    TRIVIAL_IBUNDLE,
    BoundarySpec,
    DecoratedManifoldSpec,
    GluingGraph,
    Identification,
    SlotMap,
    validate_gluing,
)
from glueforge.hypgraph import FiniteGraph, cycle_graph
from glueforge.ioutil import canonical_dumps, sha256_of_text
from glueforge.surface import AbstractMarking, BackendHandle, GraphProjection
from glueforge.torus import IDENTITY, REFLECTION, FareyMarking, Slope
from test_transforms import (
    SKEW_1,
    SKEW_2,
    A,
    MU,
    axis_bundle,
    bundle,
    chain,
    core,
    core2,
    core_stack_core,
    example_builders,
    mk,
    push,
    skew_bundle,
    skew_fibered_chain,
    split_gluing,
    split_spec,
    tmap,
    twisted_end,
    wrap_cycle_stack,
)

T = BackendHandle.torus()
P4 = "4 3\n0 1\n1 2\n2 3\n"
C6 = "6 6\n0 1\n1 2\n2 3\n3 4\n4 5\n5 0\n"


@contextlib.contextmanager
def any_int_digits():
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Input corpus shared by the whole module, one file per scenario."""
    root = tmp_path_factory.mktemp("cli")

    def save(name: str, text: str) -> str:
        path = root / name
        path.write_text(text)
        return str(path)

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
    fixed = GluingGraph(
        manifolds=(core("c0", MU),),
        pieces=(("p0", "c0"),),
        identifications=(Identification("p0", "E0", "p0", "E0", tmap(REFLECTION)),),
    ).to_json()
    fixed["identifications"][0]["map"] = tmap(IDENTITY).to_json()
    out["fixed"] = save("fixed.json", canonical_dumps(fixed))

    # structurally fine, semantically broken: compressible slot, no disks
    broken = json.loads(cores.canonical_json())
    broken["manifolds"][0]["boundaries"][0]["compressible"] = True
    out["nodisks"] = save("nodisks.json", json.dumps(broken))

    two_sided = DecoratedManifoldSpec(
        "c0",
        GENERIC,
        (
            BoundarySpec("E0", handle=T, decoration=MU),
            BoundarySpec("E1", handle=T, decoration=MU),
        ),
    )
    thin = GluingGraph(
        manifolds=(two_sided, core("c1", push(REFLECTION))),
        pieces=(("p0", "c0"), ("p1", "c1")),
        identifications=(Identification("p0", "E0", "p1", "E0", tmap(REFLECTION)),),
        boundary_markings=((("p0", "E1"), mk("50/1", "1/0")),),
    )
    out["thin"] = save("thin.json", thin.canonical_json())

    # large gluing heights: a long continued fraction and a deep stack
    inv1000 = GluingGraph(
        manifolds=(core("c0", mk("1/1000", "0/1")),),
        pieces=(("p0", "c0"),),
        identifications=(Identification("p0", "E0", "p0", "E0", tmap(REFLECTION)),),
    )
    out["inv1000"] = save("inv1000.json", inv1000.canonical_json())
    out["deep200"] = save("deep200.json", core_stack_core([200]).canonical_json())
    out["deep1000"] = save("deep1000.json", core_stack_core([1000]).canonical_json())
    for name, ks in STACKS.items():
        out[name] = save(f"{name}.json", core_stack_core(ks).canonical_json())
    # a 10,001-digit denominator: past the interpreter's default int/str
    # limit, which only the CLI lifts
    with any_int_digits():
        huge = GluingGraph(
            manifolds=(
                core("c0", AbstractMarking(T, FareyMarking(Slope(1, 10**10000), Slope(0, 1)))),
            ),
            pieces=(("p0", "c0"),),
            identifications=(Identification("p0", "E0", "p0", "E0", tmap(REFLECTION)),),
        )
        out["huge"] = save("huge.json", huge.canonical_json())
    out["deep30"] = save("deep30.json", core_stack_core([30]).canonical_json())
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
        manifolds=(outer, inner_core, inner_body, core2("N", push(REFLECTION), push(REFLECTION))),
        pieces=(("z", "M"), ("a", "N"), ("m", "M")),
        identifications=(
            Identification("z", "E0", "a", "E0", tmap(REFLECTION)),
            Identification("a", "E1", "m", "E0", tmap(REFLECTION)),
        ),
        boundary_markings=((("z", "E1"), mk("2/1", "3/1")), (("m", "E1"), mk("3/1", "1/0"))),
    )
    out["split3"] = save("split3.json", split3.canonical_json())

    h = BackendHandle.finite_graph(cycle_graph(6))

    def graph_core(mid: str, *vertices: int) -> DecoratedManifoldSpec:
        dec = AbstractMarking(h, vertices)
        return DecoratedManifoldSpec(mid, GENERIC, (BoundarySpec("E0", handle=h, decoration=dec),))

    graph_pair = GluingGraph(
        manifolds=(graph_core("c0", 0, 1), graph_core("c1", 2, 3)),
        pieces=(("p0", "c0"), ("p1", "c1")),
        identifications=(
            Identification("p0", "E0", "p1", "E0", SlotMap(h, perm=(0, 5, 4, 3, 2, 1))),
        ),
    )
    out["graph_pair"] = save("graph_pair.json", graph_pair.canonical_json())

    # one spec with a torus and a graph boundary, glued along the torus
    mixed_spec = DecoratedManifoldSpec(
        "m",
        GENERIC,
        (
            BoundarySpec("E0", handle=T, decoration=MU),
            BoundarySpec("E1", handle=h, decoration=AbstractMarking(h, (0, 1))),
        ),
    )
    mixed = GluingGraph(
        manifolds=(mixed_spec,),
        pieces=(("p0", "m"), ("p1", "m")),
        identifications=(Identification("p0", "E0", "p1", "E0", tmap(REFLECTION)),),
    )
    out["mixed"] = save("mixed.json", mixed.canonical_json())

    # a core, a trivial I-bundle and a core over C_12, glued by v -> -v
    h12 = BackendHandle.finite_graph(cycle_graph(12))
    flip = SlotMap(h12, perm=tuple(-v % 12 for v in range(12)))

    def boundary(slot: str, *vertices: int) -> BoundarySpec:
        return BoundarySpec(slot, handle=h12, decoration=AbstractMarking(h12, vertices))

    graph_stack = GluingGraph(
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
    )
    out["graph_stack"] = save("graph_stack.json", graph_stack.canonical_json())

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
    text = open(files["chain"]).read()
    for argv, params in (
        (["validate"], []),
        (["report", "--denom-bound", "5", "--R", "7", "--D", "2"], [("R", 7), ("D", 2), ("denom_bound", 5)]),
        (["collapse", "--h", "2", "--R", "7"], [("R", 7), ("h", 2), ("denom_bound", None)]),
        (["decompose"], []),
        (["model", "--samples", "5", "--eps0", "0.2"], [("eps0", 0.2), ("samples", 5), ("format", "json")]),
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


def _unknown_part_boundary(obj, split):
    split["pieces"][0] = {"id": "core", "manifold": "M", "boundaries": {"E0": "B0"}}


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
            _unknown_part_boundary,
            EXIT_INVARIANT,
            "invariant violation: piece p0: splitting targets unknown boundary M:B0",
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
    ],
    ids=["garbage-map", "unknown-manifold", "preserving-map", "unplaced", "toroidal-slot",
         "unknown-boundary", "part-splits", "toroidal-target", "shared-target",
         "free-part-boundary"],
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
    obj = json.loads(pathlib.Path(src).read_text())
    *parents, last = (int(key) if key.isdigit() else key for key in path.split("."))
    target = obj
    for key in parents:
        target = target[key]
    target[last] = value
    out = tmp_path / "edited.json"
    out.write_text(json.dumps(obj))
    return str(out)


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
        ["model", "--samples", "1"],
        ["report", "--D", "-1"],
        ["model", "--samples", "10001"],
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


def test_sample_count_is_capped(files, capsys):
    # the cap bounds the work of a model run
    argv = ["model", "--input", files["thin"], "--format", "obj", "--samples"]
    assert run(capsys, [*argv, str(cli.MAX_SAMPLES)])[0] == EXIT_PASS
    code, out, err = run(capsys, [*argv, str(cli.MAX_SAMPLES + 1)])
    assert (code, out) == (EXIT_INVARIANT, "")
    assert err == f"invariant violation: sample count must be at most {cli.MAX_SAMPLES}\n"


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
    spec = DecoratedManifoldSpec(
        "G", GENERIC, (BoundarySpec("E0", handle=h, decoration=AbstractMarking(h, (0,))),)
    )
    x = GluingGraph(
        manifolds=(spec,),
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
    digest = sha256_of_text(open(files["chain"]).read())
    assert err == f"internal error: RuntimeError: boom; input sha256 {digest}\n"


# ------------------------------------------------------ large gluing heights


@pytest.mark.parametrize(
    "command, name", [("report", "inv1000"), ("collapse", "deep200")]
)
def test_large_heights_finish_with_a_report(files, command, name):
    # a cold interpreter, as a user runs it: no warm caches, real stderr
    src = str(pathlib.Path(glueforge.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "glueforge.cli", command, "--input", files[name]],
        capture_output=True,
        text=True,
        timeout=120,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode in (EXIT_PASS, EXIT_VERDICT), proc.stderr
    assert "Traceback" not in proc.stderr
    obj = envelope(proc.stdout)
    assert obj["command"] == command
    assert obj["input_sha256"] == sha256_of_text(open(files[name]).read())


def cold_run(argv: list[str]) -> subprocess.CompletedProcess:
    src = str(pathlib.Path(glueforge.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-m", "glueforge.cli", *argv],
        capture_output=True,
        text=True,
        timeout=120,
        env=dict(os.environ, PYTHONPATH=src),
    )


# sha256 of the stdout of cold runs on core_stack_core([k]) with default
# flags, recorded before the depth-linear torus kernels; any change is a
# report change
# Re-recorded when each report's params came to echo only the flags its
# command reads; the result bytes stayed the same.
DEEP_STDOUT_SHA256 = {
    ("report", "deep200"): "16a7d39d4fab8d29f1bf9416d9faf8b80e71c5b15610ca9d8899d40e87d332b3",
    ("collapse", "deep200"): "ef6366241faaec6345004bdc27f493ddcb624858b199929065c8b22f71bd3bdf",
    ("report", "deep1000"): "63c1ab5922d1eb41f39b6c8c4553381b2d6928d70a6f0b4446a012b8385502f6",
}


# Stacks of two to thirty axis bundles with large height gaps; the sha256
# of the stdout of cold runs with default flags was recorded while the
# stack certificate still scanned the pairs of every stack path (the 15-
# and 30-bundle stacks before geodesic paths skipped the scan)
STACKS = {
    "stack100_600": [100, 600],
    "stack100_1100": [100, 1100],
    "stack50_300": [50, 100, 150, 200, 250, 300],
    "stack50_750": list(range(50, 800, 50)),
    "stack50_1500": list(range(50, 1550, 50)),
}
# Re-recorded when each report's params came to echo only the flags its
# command reads; the result bytes stayed the same.
STACK_STDOUT_SHA256 = {
    ("report", "stack100_600"): "5e2441364a330388b9ce3a56785c21718b24a0b4ebb660dfd833115b66b1e4dd",
    ("collapse", "stack100_600"): "5351aee766897b50436b3fbec6bab6ab8df70178f5411a5fa1cced915d8cd752",
    ("report", "stack100_1100"): "ac961079517e7dca5659c9c97fb08e19addc2fb2e27aa4bc1aa97c06ce0c58db",
    ("collapse", "stack100_1100"): "98ac97f07ef5b5c5aed2b4a4aa0313c37116d28aa569fca62dec82383bde2f03",
    ("report", "stack50_300"): "8e6895b8bc5a8a4d1a6267b90599b666ea75c4c9d997a30390ee0e04e62fa5ad",
    ("collapse", "stack50_300"): "1ae1b5f1752ac23924b8081cabd3ec8bf4667d03cb82c808e50ca8884e38f76b",
    ("report", "stack50_750"): "06e44a6af8f20d5ae57a2eb34a2ebe4404327e2c33f045015a91f55690a95dad",
    ("collapse", "stack50_750"): "823d4fad5899745a3fc8bac99d4e15e345f7fabdad50f155bf2040442dde74ab",
    ("report", "stack50_1500"): "e629b9e2bf0cef555c886a664edacc155e67d83c5d9b840f510c965213f60c87",
    ("collapse", "stack50_1500"): "8bea6c09e251cae5ff1248646c82cac916713570a100a7df004845ea1541d2e3",
}


@pytest.mark.parametrize(
    "command, name", list(DEEP_STDOUT_SHA256) + list(STACK_STDOUT_SHA256)
)
def test_deep_stack_report_bytes_pinned(files, command, name):
    proc = cold_run([command, "--input", files[name]])
    assert proc.returncode in (EXIT_PASS, EXIT_VERDICT), proc.stderr
    digest = hashlib.sha256(proc.stdout.encode()).hexdigest()
    assert digest == {**DEEP_STDOUT_SHA256, **STACK_STDOUT_SHA256}[command, name]


# exit code and sha256 of the stdout of cold runs with default flags: every
# example command line, and the twisted-end and splitting branches that no
# example reaches.  Recorded while the graph metric, the pushforward, the
# skeleton JSON and the gluing source each still had a second, test-only
# path; any change is a report change.  The two stack paths that are not
# geodesics, a revisit (backtrack) and a detour (wrap20), were recorded
# while K' still came from the windowed local-to-global report.  The two
# model pins of the stack example were recorded when its 55-bit tube moved
# to the decimal path; before, both ended with exit 5 and no output.
# The JSON pins were re-recorded when each report's params came to echo
# only the flags its command reads; the result bytes stayed the same.  The
# validate, report and model pins of the splitting were recorded before
# those commands checked a splitting as decompose does.
COLD_STDOUT_PINS = {
    ("validate", "example:chain"): (0, "a2a597e0eca2cfd4d0c53f1a1948c70f1a9d52807be4b7219f99e971552e0a73"),
    ("report", "example:chain"): (0, "c41dc9a61f886de4e6c3bf1ccd81b99047fd12d9fca72eb2bed0b28a142962f4"),
    ("collapse --emit-correspondence", "example:chain"): (0, "bb41db41d41b7a898e616e20b764b6cf1c0d84aa225d1ce6d17078f5b66bc3ba"),
    ("decompose", "example:chain"): (0, "68643a53580505ac284e24804172bbc9faa3850ae4565f0432a0970a2c6705fa"),
    ("model", "example:chain"): (0, "560b3c87476f699f247715e60a3bf75a750e34e61a4bd85a5816e4e997f7af56"),
    ("model --format obj", "example:chain"): (0, "9446c140590e661cd0a522e7c2bdc042afebc43cdfc54980645932c3c4afa9f6"),
    ("validate", "example:stack"): (0, "ccc42c8157f4a65a83bbd74d15cdb2a667da0dcdd19575c35c4615d1211b87c8"),
    ("report", "example:stack"): (0, "24dc0b1b111b183c1661110396a848a8143d51e5bfa19aee7e2991b58a0f6eaf"),
    ("collapse --emit-correspondence", "example:stack"): (0, "7ace200e6c39a872997516d9032a81b48efacb3a49ed0016664b974910983973"),
    ("decompose", "example:stack"): (0, "5b9ad24d1844feb26285dbacfac916652656179fd85ea887f2c034890b01dc0e"),
    ("model", "example:stack"): (0, "dc1eea487f397dd092883125b3eac78b120922877d96fe81ca1b1b76ee3030e3"),
    ("model --format obj", "example:stack"): (0, "fecb985aa33df79286dda5df5090634f80f2935b4174262bc7376213c98a4f3d"),
    ("validate", "example:twisted"): (0, "f747b1c19d4d53a967a81759ff0ed3c8ba23d33f8aa9e1bad251b3a89d3d027f"),
    ("report", "example:twisted"): (1, "a855110700edd6645908b7bd3c9ce264a93680a7b6cc3b16b58471bf3add9d86"),
    ("collapse --emit-correspondence", "example:twisted"): (0, "1eafc1f369f13433927895f393f8f914b712eda63f3591bbce7545b4079cce6b"),
    ("decompose", "example:twisted"): (0, "a03f3a6039065df1029f0bb30ee422acdcedcd31c445f51745ac98f1c5e7c399"),
    ("model", "example:twisted"): (0, "fadec79ffac8d15e4bc7cb6086a0c3c439390e4f755b869d57335369b258530d"),
    ("model --format obj", "example:twisted"): (0, "bf88759627fe918823e3aaddd4eff8b9bb4a4d337d975dc75de09834f5a0d70d"),
    ("validate", "example:compression"): (0, "10fb7380ebb35dfdb938b152da3a88cb6d3bb86a7a2bebf10b08f6825290b178"),
    ("report", "example:compression"): (1, "a045713fe77090e9b78958d522d753e6c03178f0512d2d053cc666dd32ef9d44"),
    ("collapse --emit-correspondence", "example:compression"): (0, "8688200adabba9ec528b55784d73cd7ebfe23e7b3e2ce612b34c35346df7c125"),
    ("decompose", "example:compression"): (0, "7ea58d3883ecefd3e175bb04bd98c758b5b25d8dbb776fdd9a79e52230e9f56b"),
    ("model", "example:compression"): (0, "f2ba7dbebccd1d5224f7fe3872fb76e49395848ad6e81e2422f30329f9fb92cf"),
    ("model --format obj", "example:compression"): (0, "17beb101eadb38419211d61e0cc2efd5fd48812fd51d69d7c128f967733a01ed"),
    ("validate", "example:thin"): (0, "cceb7206a6d8292cb8c3359ad92bea81596b1031e0db4e71907e96d73698e215"),
    ("report", "example:thin"): (1, "cdbaff95e84a54840816c893b6742f90ef28693456f0b36b95ba9040480355d1"),
    ("collapse --emit-correspondence", "example:thin"): (0, "a74519ee5f623a6bb07dde7bd5e2b7bf9278c595e329a62edf1e688cbdce4465"),
    ("decompose", "example:thin"): (0, "6428c3e83326439e59747b558909996dbfc262ed6ffc3a474097e7e0b50a445c"),
    ("model", "example:thin"): (0, "88fcddc8bbfc40a818b4598d3596e15119073a354939cc9dc3ac6843da6e6e6b"),
    ("model --format obj", "example:thin"): (0, "6a0b7c7a0628a07ef398da4379e90d464bc59d867c8eebdcd625f8c36be1271f"),
    ("validate", "example:fibered"): (0, "13e49078282ce8bd9c7dbab2305f69f6cdb302dbc8e7f9c28ee23473da06c75b"),
    ("report", "example:fibered"): (1, "92dc63f7b181aae69faa1f2a93944dfab31b7099c32ba2da184565e78ca96c25"),
    ("collapse --emit-correspondence", "example:fibered"): (4, "c839b758a284dad3c1cbbfb2273734f920ee0cdf3132244eb9e995aa71e99746"),
    ("decompose", "example:fibered"): (0, "7228488304352b6440f057be8f059bbedc8dfd478c32340efc2f3d1b7f9b89fa"),
    ("model", "example:fibered"): (0, "0fbff450b920a7a38a669ee70783fdfd00fa050cdc821410cc28554cd1db0b14"),
    ("model --format obj", "example:fibered"): (0, "a996974b5de3f8366f6cca908008bdf251bab19e6ada3b1b4153917e816cb779"),
    ("report", "twisted-end"): (0, "ff49b88e5e06ed810daf1b4e15d065bba3e9982f5e645f1edf1feccccffc3506"),
    ("collapse", "twisted-end"): (0, "53f9bd7b887ec00340e7346b27ae809684d22d5fc30c81cfd1d7c4180fe6dda9"),
    ("decompose", "split"): (0, "8b7284b31d48f127c15efecc611b8cd5e35895bf97f1edaf9a00fe5166809ba6"),
    ("collapse", "split"): (0, "868996f8dfd274ccbb962fb635e7fb3ddd9e6cf8e49585b36ec4f2a73a4b5b49"),
    ("validate", "split"): (0, "865d03f6cca671f1c56344f0a0638c331c7638d20aa09c06c9a35526d4b8f396"),
    ("report", "split"): (1, "c11d16ef17825d75f61d26b6929a3d2b78de7413458c605c848ce48d632b9da1"),
    ("model", "split"): (0, "d8ecab63212cf1093632d5999d8535bcffb0abe399b67c34d444afeeadcfe41b"),
    ("collapse", "backtrack"): (1, "69050b36845362c97a26e976b3acc3c587bb2efd7a136f15dbfe819f1730a77d"),
    ("collapse", "wrap20"): (0, "98292565b1b3a4d24db6b16ad18141855cbb22dea0dfeec34b6c4e13e998d0d5"),
}


@pytest.mark.parametrize("command, name", list(COLD_STDOUT_PINS))
def test_cold_command_bytes_pinned(files, command, name):
    proc = cold_run([*command.split(), "--input", files[name]])
    code, digest = COLD_STDOUT_PINS[command, name]
    assert proc.returncode == code, proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == digest


def loaded_modules(argv: list[str]) -> set[str]:
    """The glueforge modules a cold process has loaded after one command."""
    code = (
        "import contextlib, io, sys\n"
        "from glueforge import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    cli.main(sys.argv[1:])\n"
        "print(' '.join(m for m in sys.modules if m.startswith('glueforge.')))\n"
    )
    src = str(pathlib.Path(glueforge.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True,
        text=True,
        timeout=120,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


# The glueforge modules a cold command loads besides cli, errors, ioutil
# and record, per backend of its input: the table of the README.
LAYERS_LOADED = {
    ("hyplab", None): {"hypgraph", "hyplab"},
    ("validate", "torus"): {"gluing", "surface", "torus"},
    ("report", "torus"): {"gluing", "surface", "torus", "farey", "certify"},
    ("collapse", "torus"): {"gluing", "surface", "torus", "farey", "transforms"},
    ("decompose", "torus"): {"gluing", "surface", "torus", "decompose"},
    ("model", "torus"): {"gluing", "surface", "torus", "halfplane", "model"},
    ("validate", "graph"): {"gluing", "surface", "hypgraph"},
    ("report", "graph"): {"gluing", "surface", "hypgraph", "certify"},
    ("collapse", "graph"): {"gluing", "surface", "hypgraph", "transforms"},
    ("decompose", "graph"): {"gluing", "surface", "hypgraph", "decompose"},
    ("model", "graph"): {"gluing", "surface", "hypgraph", "model"},
}
INPUT_OF_BACKEND = {None: "c6", "torus": "chain", "graph": "graph_stack"}


def test_commands_load_only_the_layers_they_run(files):
    for (command, backend), layers in LAYERS_LOADED.items():
        loaded = loaded_modules([command, "--input", files[INPUT_OF_BACKEND[backend]]])
        expected = {"cli", "errors", "ioutil", "record"} | layers
        assert loaded == {f"glueforge.{m}" for m in expected}, (command, backend)


def test_stack_certificates_and_mixed_gluings_load_their_layers(files, capsys):
    # a stack path that is not a geodesic runs the pair scan, which needs
    # no more layers than the one-row test of a geodesic path
    argv = ["collapse", "--input", files["backtrack"]]
    assert loaded_modules(argv) == loaded_modules(["collapse", "--input", files["chain"]])
    code, out, _ = run(capsys, argv)
    assert code == EXIT_VERDICT
    assert envelope(out)["result"]["stacks"][0]["certificate"]["k_prime"] is None
    # a gluing with boundaries on both backends loads both layers
    both = loaded_modules(["report", "--input", files["mixed"]])
    assert {"glueforge.torus", "glueforge.farey", "glueforge.hypgraph"} <= both


@pytest.mark.parametrize("command", ["validate", "report"])
def test_slopes_beyond_the_default_digit_limit(files, command):
    proc = cold_run([command, "--input", files["huge"]])
    assert proc.returncode in (EXIT_PASS, EXIT_VERDICT), proc.stderr
    assert "Traceback" not in proc.stderr
    with any_int_digits():
        obj = envelope(proc.stdout)
    assert obj["command"] == command
    assert obj["input_sha256"] == sha256_of_text(open(files["huge"]).read())


def test_main_restores_the_digit_limit(files, capsys):
    saved = sys.get_int_max_str_digits()
    code, out, _ = run(capsys, ["report", "--input", files["huge"]])
    assert code in (EXIT_PASS, EXIT_VERDICT)
    assert len(out) > 10000
    assert sys.get_int_max_str_digits() == saved


def test_long_bad_values_are_cut_in_parse_errors(files, capsys, tmp_path):
    text = open(files["inv1000"]).read().replace('"1/1000"', '"1/' + "9" * 10000 + 'x"')
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


@pytest.mark.parametrize(
    "command, flag, spelling",
    [
        ("report", "--R", "\u0663"),
        ("report", "--D", "+1"),
        ("collapse", "--h", "1_0"),
        ("collapse", "--denom-bound", " 5"),
        ("model", "--samples", "1_0"),
        ("hyplab", "--R", "\u0663"),
    ],
)
def test_integer_flags_are_ascii_integers(files, capsys, command, flag, spelling):
    source = files["c6" if command == "hyplab" else "chain"]
    with pytest.raises(SystemExit) as exc:
        main([command, "--input", source, flag, spelling])
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (EXIT_PARSE, "")
    assert err.splitlines()[-1].startswith(f"glueforge {command}: error: argument {flag}: invalid")


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
    plain = cold_bytes(argv)
    assert plain.returncode == EXIT_PASS and "MÉ".encode() in plain.stdout
    proc = cold_bytes(argv, PYTHONIOENCODING=encoding)
    assert (proc.returncode, proc.stdout, proc.stderr) == (EXIT_PASS, plain.stdout, b"")
    out = tmp_path / "out.json"
    assert cold_bytes([*argv, "--out", str(out)], PYTHONIOENCODING=encoding).returncode == EXIT_PASS
    assert out.read_bytes() == plain.stdout


def id_gluings() -> dict:
    """JSON objects of gluings whose ids and names each case edits: two
    cores, a split piece, and a graph backend with a named marking and a
    projection table."""
    h = BackendHandle.finite_graph(
        cycle_graph(6), {"W": [0, 1]}, [GraphProjection((0, 1), (3,), "W0", 7)]
    )
    spec = DecoratedManifoldSpec(
        "G", GENERIC, (BoundarySpec("E0", handle=h, decoration=AbstractMarking(h, (0, 1))),)
    )
    graph = GluingGraph(
        manifolds=(spec,),
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
    spec = DecoratedManifoldSpec(
        "G", GENERIC, (BoundarySpec("E0", handle=h, decoration=AbstractMarking(h, (0, 1))),)
    )
    rotation = SlotMap(h, perm=(2, 3, 4, 5, 0, 1))
    obj = GluingGraph(
        manifolds=(spec,),
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
    assert (code, out, err) == (EXIT_PARSE, "", f"parse error: lambda references {message}\n")


@pytest.mark.parametrize("encoding", ["ascii", "latin-1"])
def test_stderr_is_utf8_in_every_locale(tmp_path, encoding):
    obj = id_gluings()["cores"]
    obj["identifications"][0]["a"][0] = "pÉ"
    path = tmp_path / "accent.json"
    path.write_text(json.dumps(obj, ensure_ascii=False), "utf-8")
    argv = ["validate", "--input", str(path)]
    plain = cold_bytes(argv)
    expected = "parse error: identification references unknown piece pÉ\n".encode()
    assert (plain.returncode, plain.stderr) == (EXIT_PARSE, expected)
    proc = cold_bytes(argv, PYTHONIOENCODING=encoding)
    assert (proc.returncode, proc.stdout, proc.stderr) == (EXIT_PARSE, b"", expected)
    # a path byte that is not UTF-8 prints as its escape, not as a fault
    undecodable = ["validate", "--input", os.fsdecode(bytes(tmp_path) + b"/\xff")]
    plain = cold_bytes(undecodable)
    assert plain.returncode == EXIT_PARSE and b"\\udcff" in plain.stderr
    proc = cold_bytes(undecodable, PYTHONIOENCODING=encoding)
    assert (proc.returncode, proc.stderr) == (EXIT_PARSE, plain.stderr)


def test_balanced_points_beyond_double_precision_are_internal_faults(files):
    # axis power 200 puts balanced points below y = 2^-1074, the least
    # double; the run stops at once with one internal-fault line
    src = str(pathlib.Path(glueforge.__file__).resolve().parents[1])
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "glueforge.cli", "model", "--input", files["deep200"]],
        capture_output=True,
        text=True,
        timeout=120,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert time.perf_counter() - start < 5.0
    assert proc.returncode == EXIT_INTERNAL
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("internal error: PrecisionLossError: ")


def test_deep_stack_model_answers_on_the_decimal_path(files):
    # axis power 30 puts balanced points near y = 1e-50, beyond what a
    # double resolves; both tubes are 30 log phi^2 long
    start = time.perf_counter()
    proc = cold_run(["model", "--input", files["deep30"]])
    assert time.perf_counter() - start < 5.0
    assert proc.returncode == EXIT_PASS, proc.stderr
    tubes = json.loads(proc.stdout)["result"]["skeleton"]["tubes"]
    golden = 30 * 2 * math.log((1 + math.sqrt(5)) / 2)
    assert len(tubes) == 2
    assert all(t["length"] == pytest.approx(golden, rel=1e-12) for t in tubes)


# ------------------------------------------------------- numpy stays cold

# runs main(argv) in a fresh interpreter, then reports its exit code and
# whether numpy was ever imported
_NUMPY_PROBE = (
    "import sys\n"
    "from glueforge import cli\n"
    "code = cli.main(sys.argv[1:])\n"
    "print(code, 'numpy' in sys.modules)\n"
)


def numpy_probe(argv: list[str]) -> str:
    src = str(pathlib.Path(glueforge.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _NUMPY_PROBE, *argv],
        capture_output=True,
        text=True,
        timeout=120,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    return proc.stdout


@pytest.mark.parametrize(
    "command, example",
    [
        ("validate", "twisted"),
        ("report", "chain"),
        ("collapse", "stack"),
        ("decompose", "compression"),
        ("model", "thin"),
        ("model --format obj", "chain"),
    ],
)
def test_torus_commands_never_load_numpy(files, tmp_path, command, example):
    target = tmp_path / "out"
    argv = [*command.split(), "--input", files[f"example:{example}"], "--out", str(target)]
    out = numpy_probe(argv)
    assert out == f"{EXIT_PASS} False\n"
    assert target.stat().st_size > 0


@pytest.mark.parametrize(
    "command, name",
    [
        ("validate", "graph_pair"),
        ("validate", "graph_stack"),
        ("report", "graph_stack"),
        ("collapse", "graph_stack"),
        ("decompose", "graph_stack"),
        ("model", "graph_stack"),
        ("hyplab", "c6"),
    ],
)
def test_graph_backend_commands_never_load_numpy(files, tmp_path, command, name):
    target = tmp_path / "out"
    out = numpy_probe([command, "--input", files[name], "--out", str(target)])
    assert out == f"{EXIT_PASS} False\n"
    assert json.loads(target.read_text())["command"] == command


def test_no_module_imports_numpy():
    root = pathlib.Path(glueforge.__file__).resolve().parent
    for path in sorted(root.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        assert not re.search(r"^\s*(import|from)\s+numpy\b", text, re.M), path.name


# importing dataclasses compiles its generated methods on every cold start,
# and it loads inspect; records are built without either.  fractions loads
# decimal and numbers; only the delta, the --denom-bound sweep and the pair
# scan of a stack path that is not a geodesic build one.  A model within
# 40 bits of precision demand runs in doubles and loads neither; the
# decimal path of a deeper one (deep30) loads both.  hashlib loads OpenSSL
# (_hashlib); no command imports it, since the input hash is CPython's
# builtin SHA-256
_IMPORT_PROBE = (
    "import sys\n"
    "from glueforge import cli\n"
    "heavy = ('dataclasses', 'inspect', 'fractions', 'decimal', 'hashlib', '_hashlib')\n"
    "print(*[m for m in heavy if m in sys.modules])\n"
    "code = cli.main(sys.argv[1:])\n"
    "print(code, *[m for m in heavy if m in sys.modules])\n"
)


def test_cold_start_loads_neither_dataclasses_nor_inspect(files, tmp_path):
    src = str(pathlib.Path(glueforge.__file__).resolve().parents[1])
    target = tmp_path / "out"
    for command, example in (
        ("validate", "example:chain"),
        ("report", "example:chain"),
        ("model", "example:chain"),
        ("model", "axis7"),
        ("decompose", "example:chain"),
        ("collapse", "example:stack"),
        ("model --format obj", "example:chain"),
        ("model --format obj", "axis7"),
        ("model", "deep30"),
    ):
        argv = [*command.split(), "--input", files[example], "--out", str(target)]
        proc = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, *argv],
            capture_output=True,
            text=True,
            timeout=120,
            env=dict(os.environ, PYTHONPATH=src),
        )
        assert proc.returncode == 0, proc.stderr
        obj = "obj" in command
        exact = " fractions decimal" if example == "deep30" else ""
        assert proc.stdout == f"\n{EXIT_PASS}{exact}\n", command
        if obj:
            continue
        report = json.loads(target.read_text())
        assert report["command"] == command
        if command == "validate":
            assert report["result"]["valid"] is True


# ------------------------------------------------------- process entry


def cold_bytes(argv: list[str], **env: str) -> subprocess.CompletedProcess:
    """`python -m glueforge.cli argv...` in a fresh interpreter, stdout as
    bytes; env adds to the environment, which never sets PYTHONIOENCODING
    unless env does."""
    src = str(pathlib.Path(glueforge.__file__).resolve().parents[1])
    base = {k: v for k, v in os.environ.items() if k != "PYTHONIOENCODING"}
    return subprocess.run(
        [sys.executable, "-m", "glueforge.cli", *argv],
        capture_output=True,
        timeout=120,
        env=dict(base, PYTHONPATH=src, **env),
    )


@pytest.mark.parametrize(
    "command, example",
    [
        ("validate", "example:twisted"),
        ("report", "example:chain"),
        ("collapse --emit-correspondence", "example:stack"),
        ("collapse", "example:fibered"),
        ("decompose", "example:compression"),
        ("model", "example:compression"),
        ("model --eps0 0.3", "example:thin"),
        ("model --format obj", "example:chain"),
        ("hyplab", "c6"),
    ],
)
def test_process_entry_matches_in_process_main(files, capsys, command, example):
    argv = [*command.split(), "--input", files[example]]
    proc = cold_bytes(argv)
    code, out, err = run(capsys, argv)
    assert proc.returncode == code
    assert proc.stdout == out.encode()
    assert proc.stderr.decode() == err


def test_warnings_print_one_line_each(files, capsys):
    argv = ["model", "--input", files["example:compression"]]
    expected = ["warning: unburied slot p1:E1 has no free marking; boundary tube omitted"]
    assert cold_bytes(argv).stderr.decode().splitlines() == expected
    code, _, err = run(capsys, argv)
    assert code == EXIT_PASS
    assert err.splitlines() == expected


def full_parser_output(capsys, argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of argparse on the parser with every
    command's arguments, in process: a cold process entry prints the same."""
    with pytest.raises(SystemExit) as exc:
        cli._build_parser().parse_args(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["--help"],
        ["report", "--help"],
        ["collapse", "--help"],
        ["bogus"],
        [],
        ["report"],
        ["report", "--input", "x.json", "--bogus"],
        ["model", "--input", "x.json", "--samples", "many"],
        ["hyplab", "--input", "x.txt", "--emit-correspondence"],
        ["--R", "3", "report", "--input", "x.json"],
    ],
)
def test_help_and_usage_errors_match_the_full_parser(capsys, argv):
    proc = cold_bytes(argv)
    assert (proc.returncode, proc.stdout.decode(), proc.stderr.decode()) == full_parser_output(
        capsys, argv
    )


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
    "model": {"eps0": 0.1, "samples": 9, "format": "json"},
    "hyplab": {"R": 6},
}
# every optional flag of some command, and the deleted --seed, each with a
# value that a command reading it would accept
ALL_FLAGS = {
    "--R": "3",
    "--D": "1",
    "--h": "1",
    "--eps0": "0.3",
    "--samples": "5",
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
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == EXIT_PASS
    assert help_flags(capsys.readouterr().out) == ["--input", *reads, "--out"]
    # any other flag is a usage error, as an unknown flag is, even one
    # that begins a flag the command takes (--h and --help)
    for flag, value in ALL_FLAGS.items():
        if flag in reads:
            continue
        argv = [command, "--input", source, flag, *([] if value is None else [value])]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (EXIT_PARSE, ""), argv
        assert err.splitlines()[-1].startswith("glueforge: error: unrecognized arguments: " + flag)
    code, out, _ = run(capsys, [command, "--input", source])
    assert code == EXIT_PASS
    assert list(envelope(out)["params"].items()) == list(DEFAULT_PARAMS[command].items())


def test_help_names_every_command_and_flag(capsys):
    proc = cold_bytes(["--help"])
    assert proc.returncode == EXIT_PASS
    for name in ("validate", "report", "collapse", "decompose", "model", "hyplab"):
        assert name in proc.stdout.decode()
    for name, (_, reads, _) in cli.COMMANDS.items():
        proc = cold_bytes([name, "--help"])
        assert proc.returncode == EXIT_PASS
        flags = ["--" + flag.replace("_", "-") for flag in reads]
        if name == "collapse":
            flags.append("--emit-correspondence")
        assert help_flags(proc.stdout.decode()) == ["--input", *flags, "--out"], name
    proc = cold_bytes(["bogus"])
    assert proc.returncode == EXIT_PARSE
    assert proc.stderr.decode().splitlines()[-1].startswith(
        "glueforge: error: argument command: invalid choice: 'bogus'"
    )


def test_main_leaves_the_collector_alone_and_entry_freezes(files, capsys, monkeypatch):
    before = gc.get_freeze_count()
    assert run(capsys, ["validate", "--input", files["example:chain"]])[0] == EXIT_PASS
    assert gc.get_freeze_count() == before
    assert gc.isenabled()
    monkeypatch.setattr(sys, "argv", ["glueforge", "validate", "--input", files["example:chain"]])
    # entry runs main with the cyclic collector off and restores it after
    collecting = []
    real_main = cli.main
    monkeypatch.setattr(cli, "main", lambda: collecting.append(gc.isenabled()) or real_main())
    try:
        assert cli.entry() == EXIT_PASS
        assert gc.get_freeze_count() > before
    finally:
        gc.unfreeze()
    assert collecting == [False]
    assert gc.isenabled()
    capsys.readouterr()


def test_console_script_is_the_process_entry():
    pyproject = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
    assert re.search(r'^glueforge = "glueforge\.cli:entry"$', pyproject.read_text(), re.M)


# ------------------------------------------------------- graphs at scale


def cold_cli(argv: list[str]):
    """Runs glueforge in a fresh interpreter; returns the process and its
    wall time."""
    src = str(pathlib.Path(glueforge.__file__).resolve().parents[1])
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "glueforge.cli", *argv],
        capture_output=True,
        text=True,
        timeout=120,
        env=dict(os.environ, PYTHONPATH=src),
    )
    return proc, time.perf_counter() - start


def test_huge_vertex_count_without_edges_fails_fast(tmp_path):
    graph = tmp_path / "huge.txt"
    graph.write_text("1000000000 0")
    assert graph.stat().st_size == 12
    proc, wall = cold_cli(["hyplab", "--input", str(graph)])
    assert wall < 1.0
    assert proc.returncode == EXIT_INVARIANT
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [
        "invariant violation: graph disconnected: no path from 0 to 1"
    ]


def test_deep_nesting_is_a_parse_error(tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    proc, _ = cold_cli(["validate", "--input", str(deep)])
    assert proc.returncode == EXIT_PARSE
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [
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


def test_hyplab_on_300_vertices_is_fast(tmp_path):
    graph = tmp_path / "sparse300.txt"
    graph.write_text(seeded_sparse_graph(300, 300, 50))
    proc, wall = cold_cli(["hyplab", "--input", str(graph)])
    assert proc.returncode == EXIT_PASS, proc.stderr
    assert wall < 2.0
    result = json.loads(proc.stdout)["result"]
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

    def boundary(slot: str, *vertices: int) -> BoundarySpec:
        marking = AbstractMarking(h, tuple(v % n for v in vertices))
        return BoundarySpec(slot, handle=h, decoration=marking)

    specs = [DecoratedManifoldSpec("ML", GENERIC, (boundary("E0", 0, 1),))]
    for i, k in enumerate(ks):
        ends = (boundary("F0", k, k + 1), boundary("F1", -k, -k - 1))
        specs.append(DecoratedManifoldSpec(f"B{i}", TRIVIAL_IBUNDLE, ends, bundle_map=flip))
    last = ks[-1] + 2
    specs.append(DecoratedManifoldSpec("MR", GENERIC, (boundary("E0", -last, -last - 1),)))
    m = len(ks)
    idents = [
        Identification(
            f"p{i}", "E0" if i == 0 else "F1", f"p{i + 1}", "F0" if i < m else "E0", flip
        )
        for i in range(m + 1)
    ]
    return GluingGraph(
        manifolds=tuple(specs),
        pieces=tuple((f"p{i}", spec.id) for i, spec in enumerate(specs)),
        identifications=tuple(idents),
    )


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


# (exit code, sha256 of stdout) of cold runs, recorded while distance
# tables still had an array form and graph backends built every row; any
# change is a report change
# Re-recorded when each report's params came to echo only the flags its
# command reads; the result bytes stayed the same.
LARGE_GRAPH_STDOUT = {
    ("hyplab", "c6.txt"): (
        EXIT_PASS,
        "fc87b52e26c4d3f1ced3d6bfb0ac911956a77e616a45eb3b41972eaa7798f18e",
    ),
    ("hyplab", "k7.txt"): (
        EXIT_PASS,
        "4fee95aa5a652e444361cbe39861c86bd6a8ca0ff4929dde7a211cd985d0e635",
    ),
    ("hyplab", "sparse300.txt"): (
        EXIT_PASS,
        "c2bdeb358a87259b119154054cb06c4aa5eea05b2d33a73144b08a5e4f30ce89",
    ),
    ("hyplab", "sparse1000.txt"): (
        EXIT_PASS,
        "33d7f9791750ade9af8b78fbde7bfb304a1392fb9ffd0204b8245ed9362048e6",
    ),
    ("hyplab", "gnp60.txt"): (
        EXIT_PASS,
        "5113cb0c3b8facece6fb89b260471504c2003f9d1a0229aa7638a34dcbe609ae",
    ),
    ("validate", "stack400.json"): (
        EXIT_PASS,
        "fa73d2b8d3348b7f74b1a5a6a58e1755eac1f18e87b9a7e9027308c364729890",
    ),
    ("report", "stack400.json"): (
        EXIT_VERDICT,
        "d2505c6ac103876123b87428ab1c25ab660985a2c48b580dd53c8eef351eebd1",
    ),
    ("collapse", "stack400.json"): (
        EXIT_PASS,
        "0e23cdfeff31e46246d23a307b22e4bf44bce6f75c46b80674a8c9add63c7510",
    ),
}


@pytest.mark.parametrize("command, name", list(LARGE_GRAPH_STDOUT))
def test_large_graph_report_bytes_pinned(large_graph_files, command, name):
    proc = cold_run([command, "--input", large_graph_files[name]])
    code, digest = LARGE_GRAPH_STDOUT[command, name]
    assert proc.returncode == code, proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == digest


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
    assert code == LARGE_GRAPH_STDOUT["report", "stack400.json"][0]
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
