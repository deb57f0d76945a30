"""Every bound at its boundary, and the known wrong answers.

A value equal to its bound passes some rules and fails others today
(ROADMAP item 12): `report` passes clauses a, b and c/d at value <= R and
the height floor at height >= D, while `collapse` passes its chain
conditions only at height > h, projection < R and deviation < R, and
sup_ok at sup <= 2R.  Each test below runs one rule on an input whose
value equals its bound, through main(argv), and pins today's verdict; one
bound further the rule flips, which shows the input sits on the boundary.
Item 12 will flip some of these on purpose.

The strict xfails assert the right answer where glueforge gives a wrong
one today, each naming the ROADMAP item that fixes it.
"""

import json

import pytest

from glueforge.cli import EXIT_PASS, EXIT_VERDICT, main
from glueforge.farey import AnnulusLabel, max_subsurface_projection
from glueforge.gluing import GluingGraph, Identification
from glueforge.model import build_skeleton, verify_thickness
from glueforge.torus import INFINITY, REFLECTION, FareyMarking, Slope
from builders import (
    A,
    MU,
    bundle,
    chain,
    core,
    core_bundle_core,
    core_stack_core,
    example_builders,
    mk,
    on_core,
    push,
    tmap,
    twisted,
)

FIB = mk("55/34", "89/55")


def meridian_gluing() -> GluingGraph:
    """A compressible slot of height 6 at disk distance 1, whose annular
    projections are at most 5: clause b alone decides R = 5."""
    return GluingGraph(
        manifolds=(
            core("M0", push(A.power(4)), disks={0: (Slope(-1, 1),)}),
            core("M1", push(A.power(2))),
        ),
        pieces=(("p0", "M0"), ("p1", "M1")),
        identifications=(Identification("p1", "E0", "p0", "E0", tmap(REFLECTION)),),
    )


def covered_twisted_gluing() -> GluingGraph:
    """A twisted I-bundle whose declared double cover sits at distance 5
    from the lifted geodesic."""
    return on_core(twisted("W", MU, FIB), "M0")


def backtracking_stack() -> GluingGraph:
    """A two-bundle stack whose middle marking deviates 9 from the geodesic
    between its neighbours."""
    b0 = bundle("B0", MU, push(REFLECTION @ A.power(12)))
    b1 = bundle("B1", push(A.power(3)), push(REFLECTION @ A.power(18)))
    return chain(core("ML", MU), b0, b1, core("MR", push(A.power(18) @ REFLECTION)))


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("bounds")
    gluings = {f"example:{name}": build() for name, build in example_builders().items()}
    gluings.update(
        meridian=meridian_gluing(),
        bundle=core_bundle_core(bundle("B", FIB, FIB), MU, MU),
        cover=covered_twisted_gluing(),
        backtrack=backtracking_stack(),
        axis8=core_stack_core([8]),
        axis194=core_stack_core([194]),
    )
    out = {}
    for name, x in gluings.items():
        path = root / f"{name.replace(':', '-')}.json"
        path.write_text(x.canonical_json())
        out[name] = str(path)
    return out


def result(capsys, argv: list[str]) -> tuple[int, dict]:
    code = main(argv)
    return code, json.loads(capsys.readouterr().out)["result"]


# ------------------------------------------------------------- report


def slot(res: dict, piece: str, boundary: str) -> dict:
    return next(s for s in res["slots"] if (s["piece"], s["boundary"]) == (piece, boundary))


def piece(res: dict, pid: str) -> dict:
    return next(p for p in res["pieces"] if p["piece"] == pid)


# name of the rule -> (input, flag, value at the bound, the rule's field
# in the report); at the bound every other rule passes too
REPORT_BOUNDS = {
    # every slot of the chain example has projection value 5
    "clause-a-value-le-R": (
        "example:chain", "--R", 5, lambda r: [s["clause_a"] for s in r["slots"]],
    ),
    # height 6 = disk distance 1 + R
    "clause-b-height-le-disk-distance-plus-R": (
        "meridian", "--R", 5, lambda r: slot(r, "p0", "E0")["clause_b"]["ok"],
    ),
    # both bundle decorations at distance 5 from the induced geodesic
    "clause-c-distance-le-R": (
        "bundle", "--R", 5, lambda r: piece(r, "b")["clause_c"]["ok"],
    ),
    "clause-d-distance-le-R": (
        "cover", "--R", 5, lambda r: piece(r, "w")["clause_d"]["ok"],
    ),
    # every slot of the chain example has height 3
    "height-ge-D": (
        "example:chain", "--D", 3, lambda r: [s["height_ok"] for s in r["slots"]],
    ),
}


@pytest.mark.parametrize("rule", list(REPORT_BOUNDS))
def test_report_passes_a_value_equal_to_its_bound(files, capsys, rule):
    name, flag, bound, field = REPORT_BOUNDS[rule]
    floor = flag == "--D"
    defaults = [] if floor else ["--D", "0"]
    code, res = result(capsys, ["report", "--input", files[name], flag, str(bound), *defaults])
    assert code == EXIT_PASS
    passed = field(res)
    assert passed is True or passed == [True] * len(passed)
    # one step past the bound the rule fails
    past = bound + 1 if floor else bound - 1
    code, res = result(capsys, ["report", "--input", files[name], flag, str(past), *defaults])
    assert code == EXIT_VERDICT
    failed = field(res)
    assert failed is False or False in failed


# ----------------------------------------------------------- collapse


# name of the rule -> (input, flag, value at the bound, the condition's
# field, the witness at the bound); the stack example has heights (5, 6)
# and projection values (5, 5)
COLLAPSE_BOUNDS = {
    "heights-gt-h": ("example:stack", "--h", 5, "heights_ok", ["height", 0]),
    "projections-lt-R": ("example:stack", "--R", 5, "projections_ok", ["projection", 0]),
    "deviations-lt-R": ("backtrack", "--R", 9, "geodesics_ok", ["geodesic", 1]),
}


@pytest.mark.parametrize("rule", list(COLLAPSE_BOUNDS))
def test_collapse_fails_a_value_equal_to_its_bound(files, capsys, rule):
    name, flag, bound, field, witness = COLLAPSE_BOUNDS[rule]
    code, res = result(capsys, ["collapse", "--input", files[name], flag, str(bound)])
    assert code == EXIT_VERDICT
    conditions = res["stacks"][0]["certificate"]["conditions"]
    assert conditions[field] is False
    assert conditions["witness"] == witness
    # one step past the bound the condition holds
    past = bound - 1 if flag == "--h" else bound + 1
    _, res = result(capsys, ["collapse", "--input", files[name], flag, str(past)])
    assert res["stacks"][0]["certificate"]["conditions"][field] is True


def test_collapse_sup_ok_passes_sup_equal_to_twice_R(files, capsys):
    # the chain example's stack has one marking, whose projection to itself
    # is 2; R = 1 is the least bound, so only the side of equality exists
    code, res = result(capsys, ["collapse", "--input", files["example:chain"], "--R", "1"])
    stack = res["stacks"][0]
    assert (stack["sup_value"], stack["sup_ok"]) == (2, True)
    assert code == EXIT_PASS


# -------------------------------------------------- known wrong answers


@pytest.mark.xfail(strict=True, reason="ROADMAP item 11")
def test_thickness_verdict_reads_the_exact_minimum_systole(files, capsys):
    # both tubes of axis power 8 reach systole 0.9457416 between samples,
    # at -610/377 in the chart of sigma(mu); the default samples read 1.0
    code, _ = result(capsys, ["model", "--input", files["axis8"], "--eps0", "0.95"])
    assert code == EXIT_VERDICT


@pytest.mark.xfail(strict=True, reason="ROADMAP item 11")
def test_thin_thickness_verdict_does_not_depend_on_the_sample_count():
    # the tube's top point has systole 626^(-1/4) = 0.19992, below the
    # floor, but no sample of an even count lands on it
    thin = example_builders()["thin"]()
    for samples in (9, 50, 400):
        assert not verify_thickness(build_skeleton(thin, samples=samples), 0.2001).ok, samples


@pytest.mark.xfail(strict=True, reason="ROADMAP item 7")
def test_default_annulus_maximum_matches_the_sweep():
    # the search returns value 2 at 1/0; the sweep at bound 30 finds 3
    m = FareyMarking(Slope(1, 1), INFINITY)
    assert max_subsurface_projection(m, m, 30) == (AnnulusLabel(Slope(-1, 1)), 3)
    assert max_subsurface_projection(m, m) == (AnnulusLabel(Slope(-1, 1)), 3)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2")
def test_model_answers_axis_power_194(files, capsys):
    # y = 1/(c^2 + d^2) falls below the least double and the run exits 5
    assert main(["model", "--input", files["axis194"]]) == EXIT_PASS


@pytest.mark.xfail(strict=True, reason="ROADMAP item 14")
def test_stack_anchor_equals_the_same_point_as_a_tube_end(files, capsys):
    _, res = result(capsys, ["model", "--input", files["example:stack"]])
    skeleton = res["skeleton"]
    anchor = next(p for p in skeleton["pieces"] if p["piece"] == "p3")["anchors"]["F1"]
    tube = next(t for t in skeleton["tubes"] if t["slot_a"] == ["p3", "F1"])
    assert anchor == tube["sigma_a"]
