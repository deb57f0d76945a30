"""Write a set of ready-to-run example gluing files.

Each example exercises a different pipeline branch: a plain
core-bundle-core chain, a three-bundle stack, a twisted self-glued
quotient, a compression-body chain, a thin boundary marking, and the
all-bundle fibered cycle.  Files land in the target directory together
with a one-line description and the command that consumes them.
"""

from __future__ import annotations

import argparse
import pathlib

from glueforge.gluing import (
    COMPRESSION_BODY,
    GENERIC,
    TRIVIAL_IBUNDLE,
    BoundarySpec,
    DecoratedManifoldSpec,
    DiskSet,
    GluingGraph,
    Identification,
    SlotMap,
)
from glueforge.surface import AbstractMarking, BackendHandle
from glueforge.torus import REFLECTION, FareyMarking, Slope, SurfaceMap, parse_slope

T = BackendHandle.torus()
A = SurfaceMap(2, 1, 1, 1)
MU = AbstractMarking(T, FareyMarking(parse_slope("0/1"), parse_slope("1/0")))


def push(m: SurfaceMap) -> AbstractMarking:
    return AbstractMarking(T, m.on_marking(MU.payload))


def rmap() -> SlotMap:
    return SlotMap(T, matrix=REFLECTION)


def core(mid: str, dec: AbstractMarking, *extra: AbstractMarking) -> DecoratedManifoldSpec:
    bs = [BoundarySpec("E0", handle=T, decoration=dec)]
    bs += [BoundarySpec(f"E{i+1}", handle=T, decoration=d) for i, d in enumerate(extra)]
    return DecoratedManifoldSpec(mid, GENERIC, tuple(bs))


def axis_bundle(mid: str, k: int) -> DecoratedManifoldSpec:
    return DecoratedManifoldSpec(
        mid,
        TRIVIAL_IBUNDLE,
        (
            BoundarySpec("F0", handle=T, decoration=push(A.power(k))),
            BoundarySpec("F1", handle=T, decoration=push(REFLECTION @ A.power(k))),
        ),
        bundle_map=rmap(),
    )


def row(specs, idents, lam=()) -> GluingGraph:
    return GluingGraph(
        manifolds=tuple(dict.fromkeys(specs, None)),
        pieces=tuple((f"p{i}", s.id) for i, s in enumerate(specs)),
        identifications=tuple(idents),
        boundary_markings=tuple(lam),
    ).validate()


def chain_example() -> GluingGraph:
    return row(
        [core("ML", MU), axis_bundle("B", 3), core("MR", push(A.power(6) @ REFLECTION))],
        [
            Identification("p0", "E0", "p1", "F0", rmap()),
            Identification("p1", "F1", "p2", "E0", rmap()),
        ],
    )


def core_stack_core(ks: list[int], right_power: int | None = None) -> GluingGraph:
    """Left core at the axis origin, axis bundles at the given powers, and
    a right core one reflection beyond the last bundle."""
    right_power = 2 * ks[-1] if right_power is None else right_power
    specs = [core("ML", MU)]
    specs += [axis_bundle(f"B{i}", k) for i, k in enumerate(ks)]
    specs.append(core("MR", push(A.power(right_power) @ REFLECTION)))
    n = len(ks)
    idents = [
        Identification(
            f"p{i}", "E0" if i == 0 else "F1", f"p{i + 1}", "F0" if i < n else "E0", rmap()
        )
        for i in range(n + 1)
    ]
    return row(specs, idents)


def stack_example() -> GluingGraph:
    return core_stack_core([2, 7, 13], right_power=20)


def twisted_example() -> GluingGraph:
    return GluingGraph(
        manifolds=(core("M", MU),),
        pieces=(("p0", "M"),),
        identifications=(Identification("p0", "E0", "p0", "E0", rmap()),),
    ).validate()


def compression_example() -> GluingGraph:
    disks = DiskSet(T, (parse_slope("0/1"),), owner="E0")
    body = DecoratedManifoldSpec(
        "C",
        COMPRESSION_BODY,
        (
            BoundarySpec("E0", handle=T, decoration=MU, compressible=True, disks=disks),
            BoundarySpec("E1", handle=T, decoration=push(SurfaceMap(1, 1, 0, 1))),
        ),
    )
    return row(
        [core("M", MU), body],
        [Identification("p0", "E0", "p1", "E0", rmap())],
    )


def thin_example() -> GluingGraph:
    lam = AbstractMarking(T, FareyMarking(Slope(50, 1), Slope(1, 0)))
    return row(
        [core("M", MU, MU), core("N", MU)],
        [Identification("p0", "E0", "p1", "E0", rmap())],
        lam=((("p0", "E1"), lam),),
    )


def fibered_example() -> GluingGraph:
    return GluingGraph(
        manifolds=(axis_bundle("B", 2),),
        pieces=(("p0", "B"),),
        identifications=(Identification("p0", "F1", "p0", "F0", rmap()),),
    ).validate()


EXAMPLES = [
    ("chain", chain_example, "report", "single bundle between two cores"),
    ("stack", stack_example, "collapse --emit-correspondence", "three-bundle stack"),
    ("twisted", twisted_example, "validate", "orientation-reversing self-gluing"),
    ("compression", compression_example, "decompose", "core with a compression body"),
    ("thin", thin_example, "model --eps0 0.3", "thin boundary tube, CF coefficient 50"),
    ("fibered", fibered_example, "collapse", "all-bundle cycle, exits with code 4"),
]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("target", nargs="?", default="example_gluings")
    args = parser.parse_args(argv)
    target = pathlib.Path(args.target)
    target.mkdir(parents=True, exist_ok=True)
    for name, build, command, blurb in EXAMPLES:
        x = build()
        path = target / f"{name}.json"
        path.write_text(x.canonical_json())
        print(f"{path}  [{x.content_hash()[:12]}]  {blurb}")
        print(f"  glueforge {command} --input {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
