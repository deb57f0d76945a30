"""Front-end tests: exit codes, report envelopes, determinism, and the
export paths, all through main(argv)."""

import contextlib
import gc
import hashlib
import json
import math
import os
import pathlib
import random
import re
import subprocess
import sys
import time

import pytest

import glueforge
from glueforge import cli, surface
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
)
from glueforge.hypgraph import cycle_graph
from glueforge.ioutil import sha256_of_text
from glueforge.surface import AbstractMarking, BackendHandle
from glueforge.torus import IDENTITY, REFLECTION, FareyMarking, Slope
from test_transforms import (
    A,
    MU,
    axis_bundle,
    bundle,
    chain,
    core,
    core_stack_core,
    example_builders,
    mk,
    push,
    split_gluing,
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

    fixed = GluingGraph(
        manifolds=(core("c0", MU),),
        pieces=(("p0", "c0"),),
        identifications=(Identification("p0", "E0", "p0", "E0", tmap(IDENTITY)),),
    )
    out["fixed"] = save("fixed.json", fixed.canonical_json())

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
    ).validate()
    out["thin"] = save("thin.json", thin.canonical_json())

    # large gluing heights: a long continued fraction and a deep stack
    inv1000 = GluingGraph(
        manifolds=(core("c0", mk("1/1000", "0/1")),),
        pieces=(("p0", "c0"),),
        identifications=(Identification("p0", "E0", "p0", "E0", tmap(REFLECTION)),),
    ).validate()
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
        ).validate()
        out["huge"] = save("huge.json", huge.canonical_json())
    out["deep30"] = save("deep30.json", core_stack_core([30]).canonical_json())
    # 38 bits, the deepest double-path input of the benchmark
    out["axis7"] = save("axis7.json", core_stack_core([7]).canonical_json())

    for name, build in example_builders().items():
        out[f"example:{name}"] = save(f"example-{name}.json", build().canonical_json())
    out["twisted-end"] = save("twisted-end.json", twisted_end().canonical_json())
    out["split"] = save("split.json", split_gluing().canonical_json())

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
    ).validate()
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
    ).validate()
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
    ).validate()
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
    text = open(files["chain"]).read()
    code, out, _ = run(
        capsys,
        ["validate", "--input", files["chain"], "--R", "7", "--seed", "11"],
    )
    assert code == EXIT_PASS
    obj = envelope(out)
    assert obj["input_sha256"] == sha256_of_text(text)
    assert obj["params"]["R"] == 7
    assert obj["params"]["seed"] == 11
    assert set(obj["params"]) == {
        "R",
        "D",
        "h",
        "eps0",
        "samples",
        "denom_bound",
        "format",
        "seed",
    }


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


def test_splitting_identification_on_a_toroidal_boundary(capsys, tmp_path):
    obj = json.loads(split_gluing().canonical_json())
    kc = next(m for m in obj["manifolds"] if m["id"] == "KC")
    kc["boundaries"].append({"id": "T0", "toroidal": True})
    outer = next(m for m in obj["manifolds"] if m["id"] == "M")
    outer["splitting"]["identifications"][0]["a"] = ["core", "T0"]
    bad = tmp_path / "split.json"
    bad.write_text(json.dumps(obj))
    code, out, err = run(capsys, ["decompose", "--input", str(bad)])
    assert (code, out) == (EXIT_INVARIANT, "")
    assert err == (
        "invariant violation: piece p0: splitting identification on toroidal"
        " boundary core:T0\n"
    )


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
    [["--R", "0"], ["--eps0", "0"], ["--samples", "1"], ["--D", "-1"], ["--samples", "10001"]],
)
def test_bad_parameters_are_invariant_errors(files, capsys, flags):
    code, _, err = run(capsys, ["validate", "--input", files["chain"], *flags])
    assert code == EXIT_INVARIANT
    assert err.startswith("invariant violation:")
    assert err.count("\n") == 1


def test_sample_count_is_capped(files, capsys):
    # the cap bounds the work of a model run; every command checks it
    argv = ["validate", "--input", files["chain"], "--samples"]
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


# --------------------------------------------------------------- decompose


def test_decompose_reports_partition_and_cut(files, capsys):
    code, out, _ = run(capsys, ["decompose", "--input", files["chain"]])
    assert code == EXIT_PASS
    result = json.loads(out)["result"]
    assert set(result) == {"full", "components", "cut"}
    assert len(result["components"]) == 3
    assert len(result["cut"]) == 2


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
    def broken(cfg):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli._COMMANDS, "validate", broken)
    code, out, err = run(capsys, ["validate", "--input", files["chain"]])
    assert code == EXIT_INTERNAL
    assert out == ""
    assert err == "internal error: RuntimeError: boom\n"


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
DEEP_STDOUT_SHA256 = {
    ("report", "deep200"): "25874abaf69a8da1a7b64bbd006a526cba5759184508e7ea2b700aef053a1a2e",
    ("collapse", "deep200"): "f7e7bddca8d06a01c15d472719c6ef144cda7cd2c345c47ca65211c0c3a39a13",
    ("report", "deep1000"): "88ee54c08eb47a8fb976d9e19c79e8a312b1141a014b31bc81c99d0acbabd4f8",
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
STACK_STDOUT_SHA256 = {
    ("report", "stack100_600"): "210be08207f5f246cb404aa53ffa701ccd29c7108c493b9c1628d3da6a48360e",
    ("collapse", "stack100_600"): "583c1dca6868f205808196c5dd55b2f39216af3b0e3659db698846c9a49d71e8",
    ("report", "stack100_1100"): "2641a03db0ebc364f96b9482106ec7bc9d4206b5001b09f0f6596a0c55f61476",
    ("collapse", "stack100_1100"): "1c5bc6bc6acc77697030ada86c1e33444e1adde88847aea405430868b936cf70",
    ("report", "stack50_300"): "87d46243ca393383164ea56df4c802bbb01616e4ad2c470ae9ceb55ab8f363b2",
    ("collapse", "stack50_300"): "25a99ec7fc028394e2f479fae4ae1898530bc7db4ed5f061ec696e6808e04dbb",
    ("report", "stack50_750"): "f58a5ddbce9796b8ceb59e4c0b30f80c1f1826c32fdfd4e888a5f43aa26b6abe",
    ("collapse", "stack50_750"): "6f5c093142c689ece3fe51a3b4db7f80850ddc345d5c6c70a1377c7444b4407a",
    ("report", "stack50_1500"): "4f1d17368eafddef88729df6249fbc8f51714a0b73ee5ab8dcb6cf36ddaca6a5",
    ("collapse", "stack50_1500"): "5417d98886ceda68e4cd3515b8c4ac5794f5a7e745d0a18bc2e5f342cb1155d5",
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
COLD_STDOUT_PINS = {
    ("validate", "example:chain"): (0, "e9f916e0f1b4cf2d85841f9e775a783e665f19f5a2d8f900310e99774fd70ef8"),
    ("report", "example:chain"): (0, "0aadbbf94c88ca3b2748359456fc426dadc480addc73a94276790c58f7dc76af"),
    ("collapse --emit-correspondence", "example:chain"): (0, "dcf00224752e94a101bf14b785aa2e1483d30274e79d78c5fb9ce45801525be9"),
    ("decompose", "example:chain"): (0, "b2c627dbe764cae7361572b729865100aa9b0cdf4da28a2d81e3619e605da5c9"),
    ("model", "example:chain"): (0, "f75516596b2c4fb4cbecd13c845b4c3cd19688f1b71602dfefd2a3c6d77eec30"),
    ("model --format obj", "example:chain"): (0, "9446c140590e661cd0a522e7c2bdc042afebc43cdfc54980645932c3c4afa9f6"),
    ("validate", "example:stack"): (0, "7e5d431a320bd5669e79ab101036db42a240f298e3fe5fea3b8060a62b259ecb"),
    ("report", "example:stack"): (0, "012e7e84d1706873f88cdcad3ce8710a7fb5730bc1211d0e02e0f85948f55147"),
    ("collapse --emit-correspondence", "example:stack"): (0, "3560327b6dfe8b344d835a91d8cd58ac2c1575ca345c6fa92e97cad91cea19ee"),
    ("decompose", "example:stack"): (0, "3a2ae88549860f68f278c434d2eb80edec7fdb6b80904f61504cde50af0bcfb3"),
    ("model", "example:stack"): (0, "9cb62550329f0b1a1aff902175cf93b14ef210017a3c9adb14c40502be2a4416"),
    ("model --format obj", "example:stack"): (0, "fecb985aa33df79286dda5df5090634f80f2935b4174262bc7376213c98a4f3d"),
    ("validate", "example:twisted"): (0, "3f860a6f68f270e86d079ae9d8d3fde99fda28e9935f2997dac6baf781e5f42f"),
    ("report", "example:twisted"): (1, "6e3d06ef6d3023c0bc94e6f17ec67094c178dc3dc00583faffff4c827c6c3d83"),
    ("collapse --emit-correspondence", "example:twisted"): (0, "1e8b594e417ac619852b0da4aac85f7e57b469e35ecd618c74000f96df5c32e6"),
    ("decompose", "example:twisted"): (0, "5d134f732a471ac8897bd23795fa2424ca28ad5311518281baf53f9d749427c3"),
    ("model", "example:twisted"): (0, "f7c11ad460b7fafc601aca39b770dabef4eee98e103c56fabf01addca830a706"),
    ("model --format obj", "example:twisted"): (0, "bf88759627fe918823e3aaddd4eff8b9bb4a4d337d975dc75de09834f5a0d70d"),
    ("validate", "example:compression"): (0, "9ff401c6584ae9b34939484ef3ca23d851d9f82075cc82a9892189ef29886b9f"),
    ("report", "example:compression"): (1, "1a97faccf6b6be402cd0c24b30cb0de411ceac4a879db5c3aa50e86d64674325"),
    ("collapse --emit-correspondence", "example:compression"): (0, "b57224690c1eeace0b94bef4be13079d78d1862a7e878fa868a297f87a50e6ba"),
    ("decompose", "example:compression"): (0, "d7669add274623d433296e0fad6b709f4b7408e04078344074d3aadb7429729f"),
    ("model", "example:compression"): (0, "516073e8dbda2d3de5167eec485fd4405777dff4b0df21b04b5f25088d3b27a3"),
    ("model --format obj", "example:compression"): (0, "17beb101eadb38419211d61e0cc2efd5fd48812fd51d69d7c128f967733a01ed"),
    ("validate", "example:thin"): (0, "95e5db3ff4633ed610ccddbe955e8e0bb04dd9798fab3eb4faf7cd78243d8d7c"),
    ("report", "example:thin"): (1, "a1d548ab4bb1e90bc8542d606f6a109a04509cecf887eab1eb992de33307b2d1"),
    ("collapse --emit-correspondence", "example:thin"): (0, "6e61ba0e53a3a721b31fd84db36a2b940749f2d0861862790ec78b7f7a6afd7c"),
    ("decompose", "example:thin"): (0, "be54962b60003756fba25b438d026438faf64a2a670d539e2913398cb923c75d"),
    ("model", "example:thin"): (0, "5c95f89dac533e9d263a6ddf891d144e6aba15cc118da0d9416e4fe0846ddc96"),
    ("model --format obj", "example:thin"): (0, "6a0b7c7a0628a07ef398da4379e90d464bc59d867c8eebdcd625f8c36be1271f"),
    ("validate", "example:fibered"): (0, "3b4a224981f56b06aad955c0fd0fe9e51f07fc197bebca29d240996627ddf65b"),
    ("report", "example:fibered"): (1, "721d5274f954d3832545316639159e8c01ad6d33695d3bf34cc998aa4055a7a1"),
    ("collapse --emit-correspondence", "example:fibered"): (4, "1a2cdeacc447c582698d73b142d0d12cac5d178feb6b36438d1bfbe5ac573a19"),
    ("decompose", "example:fibered"): (0, "c0647ee3b2b6b8c2598e9983609ce8ffe0ab37d60fccee17b620438eed6573f6"),
    ("model", "example:fibered"): (0, "418a00c3ba99788521730d2ce6e02a649f024e761cf971ba03bd751a7705dc89"),
    ("model --format obj", "example:fibered"): (0, "a996974b5de3f8366f6cca908008bdf251bab19e6ada3b1b4153917e816cb779"),
    ("report", "twisted-end"): (0, "b7acd2c0523991f1ceae0d340c9a83e2fda93bddc27a0461635d04d2ffbfa2f4"),
    ("collapse", "twisted-end"): (0, "8fd7d67af68ef8da2af2e975ecad15639b54f34b599842a92b9a71679e930ae2"),
    ("decompose", "split"): (0, "07549f736ec17990bcf882c04653daadc84fe6cd16cc7535bb18773171b7aa5b"),
    ("collapse", "split"): (0, "80c7744e8d94bb01e9ebe043187e75e22a5944945778d3ce13de88ed5793a4af"),
    ("collapse", "backtrack"): (1, "7ee9b66de8439d7a8496f8d435480021b9ac85f3c089b34de4f3e39e50fbcdcf"),
    ("collapse", "wrap20"): (0, "bf05699f7bda14176a6439fa222e213288827f320c718904bbc348600b01be50"),
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
# (_hashlib); only the commands that print an input hash import it
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
        hashed = "" if obj else " hashlib _hashlib"
        assert proc.stdout == f"\n{EXIT_PASS}{exact}{hashed}\n", command
        if obj:
            continue
        report = json.loads(target.read_text())
        assert report["command"] == command
        if command == "validate":
            assert report["result"]["valid"] is True


# ------------------------------------------------------- process entry


def cold_bytes(argv: list[str]) -> subprocess.CompletedProcess:
    """`python -m glueforge.cli argv...` in a fresh interpreter, stdout as bytes."""
    src = str(pathlib.Path(glueforge.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-m", "glueforge.cli", *argv],
        capture_output=True,
        timeout=120,
        env=dict(os.environ, PYTHONPATH=src),
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
    command's arguments, as it was built before parsers were trimmed to
    the command named on the command line."""
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


def test_help_names_every_command_and_flag(capsys):
    proc = cold_bytes(["--help"])
    assert proc.returncode == EXIT_PASS
    for name in ("validate", "report", "collapse", "decompose", "model", "hyplab"):
        assert name in proc.stdout.decode()
    proc = cold_bytes(["report", "--help"])
    flags = "--input --R --D --h --eps0 --samples --denom-bound --out --format --seed"
    assert all(flag in proc.stdout.decode() for flag in flags.split())
    assert "--emit-correspondence" not in proc.stdout.decode()
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
    ).validate()


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
LARGE_GRAPH_STDOUT = {
    ("hyplab", "c6.txt"): (
        EXIT_PASS,
        "7f61841b395a85b240d038c3d2a5735aaefd8103a19ed5b487ea99a4f0459938",
    ),
    ("hyplab", "k7.txt"): (
        EXIT_PASS,
        "0ce46a0c9dfe9008bd3a27519ff379474e67f710625fb60c16a5d7040bdd6d04",
    ),
    ("hyplab", "sparse300.txt"): (
        EXIT_PASS,
        "b9f8020e59e226eb002b044e9d4c342daf6f1fade853884b6ec0b584342395c2",
    ),
    ("hyplab", "sparse1000.txt"): (
        EXIT_PASS,
        "b4553771112609cbad1237aeb69989d7db1a6e8c759383522c58cbc8860a1f1f",
    ),
    ("hyplab", "gnp60.txt"): (
        EXIT_PASS,
        "06b3c001c288dc7083493adff33c8b5aa3d3e38f4b123aed6a2e57cfb5c38c63",
    ),
    ("validate", "stack400.json"): (
        EXIT_PASS,
        "6e7de117c32b8f25eb36e3a4fd3e08c2af340c69e60430105ce23e3130e609d2",
    ),
    ("report", "stack400.json"): (
        EXIT_VERDICT,
        "7c0cb5ac1fe4e8bfb5e5c505e8bab24896589911e20ff65469db96b0e20df8e8",
    ),
    ("collapse", "stack400.json"): (
        EXIT_PASS,
        "cf2239d30f4fe45591d173c7c8a6e0ae7ece9fd3a42b31328fa2db28b1257355",
    ),
}


@pytest.mark.parametrize("command, name", list(LARGE_GRAPH_STDOUT))
def test_large_graph_report_bytes_pinned(large_graph_files, command, name):
    proc = cold_run([command, "--input", large_graph_files[name]])
    code, digest = LARGE_GRAPH_STDOUT[command, name]
    assert proc.returncode == code, proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == digest


def test_validate_computes_few_rows_of_a_large_curve_graph(large_graph_files, capsys):
    surface._graph_table.cache_clear()
    code, _, _ = run(capsys, ["validate", "--input", large_graph_files["stack400.json"]])
    assert code == EXIT_PASS
    table = surface._graph_table(cycle_graph(400))
    assert table.n == 400
    assert table.rows_held < 40


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
