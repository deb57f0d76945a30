"""Seeded input generators for the benchmark workloads.

Run as a child process from the root of a checkout:

    python3 perfbench/inputs.py --workload torus-certify --seed 1 --out DIR

It writes every input file into DIR together with ``ops.json``, the op
list of the workload: one entry per cold ``glueforge`` invocation, with
the command line (input paths relative to DIR), the expected exit code
where the input fixes it, and the sha256 of the input file.  The same
seed always yields the same files.

Every gluing is built through the public ``glueforge.gluing`` and
``glueforge.surface`` objects, with the helper functions of
``scripts/make_example_gluings.py``, and written with
``GluingGraph.canonical_json()``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import random
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "scripts")]

from make_example_gluings import EXAMPLES, MU, A, T, axis_bundle, core, push, rmap, row  # noqa: E402

from glueforge.gluing import (  # noqa: E402
    GENERIC,
    TRIVIAL_IBUNDLE,
    BoundarySpec,
    DecoratedManifoldSpec,
    GluingGraph,
    Identification,
    SlotMap,
)
from glueforge.hypgraph import FiniteGraph, cycle_graph  # noqa: E402
from glueforge.surface import AbstractMarking, BackendHandle  # noqa: E402
from glueforge.torus import REFLECTION, FareyMarking, Slope  # noqa: E402

WORKLOADS = ("torus-certify", "graph-lab", "skeleton")

# Exit code an input fixes regardless of its verdict; every other op may
# end with either verdict, 0 or 1.
FIBERED_EXIT = 4


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


def self_glued_core(base: Slope, transversal: Slope) -> GluingGraph:
    """One core whose only boundary, decorated (base, transversal), is
    glued to itself by the reflection."""
    dec = AbstractMarking(T, FareyMarking(base, transversal))
    return GluingGraph(
        manifolds=(core("M", dec),),
        pieces=(("p0", "M"),),
        identifications=(Identification("p0", "E0", "p0", "E0", rmap()),),
    ).validate()


def fibonacci_marking(n: int) -> tuple[Slope, Slope]:
    """(F(n+1)/F(n), F(n)/F(n-1)): Farey neighbours whose continued
    fractions are n ones."""
    a, b = 1, 1
    for _ in range(n - 1):
        a, b = b, a + b
    return Slope(a + b, b), Slope(b, a)


def thin_gluing(coeff: int) -> GluingGraph:
    """Criterion-8 thin tube: the unburied boundary is marked (coeff/1, inf)."""
    lam = AbstractMarking(T, FareyMarking(Slope(coeff, 1), Slope(1, 0)))
    return row(
        [core("c0", MU, MU), core("c1", push(REFLECTION))],
        [Identification("p0", "E0", "p1", "E0", rmap())],
        lam=((("p0", "E1"), lam),),
    )


def axis_ladder(rng: random.Random, length: int, start: range, step: range) -> list[int]:
    """Axis powers of a stack: a seeded start, then steps taken at evenly
    spaced points of the step range in a seeded order.  The seed moves
    every power, but the span, and with it the cost of the stack, is the
    same for every seed."""
    n = length - 1
    steps = [step[round((j + 0.5) * len(step) / n - 0.5)] for j in range(n)]
    rng.shuffle(steps)
    ks = [rng.choice(start)]
    for s in steps:
        ks.append(ks[-1] + s)
    return ks


def graph_stack(n: int, ks: list[int]) -> GluingGraph:
    """Cores and trivial I-bundles over the cycle graph C_n, glued in a row
    by the reflection v -> -v.  Bundle i carries the edge {k, k+1} on F0
    and its reflection on F1, the graph analogue of an axis bundle."""
    h = BackendHandle.finite_graph(cycle_graph(n))
    flip = SlotMap(h, perm=tuple((-v) % n for v in range(n)))

    def mark(*vs: int) -> AbstractMarking:
        return AbstractMarking(h, tuple(v % n for v in vs))

    def gcore(mid: str, dec: AbstractMarking) -> DecoratedManifoldSpec:
        return DecoratedManifoldSpec(mid, GENERIC, (BoundarySpec("E0", handle=h, decoration=dec),))

    specs = [gcore("ML", mark(0, 1))]
    for i, k in enumerate(ks):
        specs.append(
            DecoratedManifoldSpec(
                f"B{i}",
                TRIVIAL_IBUNDLE,
                (
                    BoundarySpec("F0", handle=h, decoration=mark(k, k + 1)),
                    BoundarySpec("F1", handle=h, decoration=mark(-k, -k - 1)),
                ),
                bundle_map=flip,
            )
        )
    last = ks[-1] + 2
    specs.append(gcore("MR", mark(-last, -last - 1)))
    m = len(ks)
    idents = [
        Identification(
            f"p{i}", "E0" if i == 0 else "F1", f"p{i + 1}", "F0" if i < m else "E0", flip
        )
        for i in range(m + 1)
    ]
    return GluingGraph(
        manifolds=tuple(specs),
        pieces=tuple((f"p{i}", s.id) for i, s in enumerate(specs)),
        identifications=tuple(idents),
    ).validate()


def random_tree(rng: random.Random, n: int) -> FiniteGraph:
    return FiniteGraph.from_edges(n, [(rng.randrange(v), v) for v in range(1, n)])


def sparse_graph(rng: random.Random, n: int, extra: int) -> FiniteGraph:
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    while len(edges) < n - 1 + extra:
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    return FiniteGraph.from_edges(n, sorted(edges))


def graph_text(g: FiniteGraph) -> str:
    """The edge-list format read by ``glueforge hyplab``."""
    lines = [f"{g.vertex_count} {len(g.edges)}"]
    lines += [f"{u} {v}" for u, v in sorted(g.edges)]
    return "\n".join(lines) + "\n"


class OpList:
    """Input files of one workload and the ops that consume them."""

    def __init__(self, out: pathlib.Path):
        self.out = out
        self.ops: list[dict] = []
        self.inputs: dict[str, str] = {}

    def add_input(self, name: str, text: str) -> str:
        (self.out / name).write_text(text, encoding="utf-8")
        self.inputs[name] = hashlib.sha256(text.encode("utf-8")).hexdigest()
        return name

    def gluing(self, name: str, x: GluingGraph) -> str:
        return self.add_input(f"{name}.json", x.canonical_json())

    def op(self, name: str, input_name: str, args: list[str], expect: int | None = None) -> None:
        fmt = "obj" if "obj" in args else "json"
        self.ops.append(
            {
                "name": name,
                "argv": [args[0], "--input", input_name, *args[1:]],
                "input": input_name,
                "input_sha256": self.inputs[input_name],
                "expect": expect,
                "output": fmt,
            }
        )


def torus_certify(ops: OpList, rng: random.Random) -> None:
    for name, build, command, _ in EXAMPLES:
        if name == "thin":
            continue
        f = ops.gluing(name, build())
        args = command.split()
        ops.op(f"{args[0]}:{name}", f, args, FIBERED_EXIT if name == "fibered" else None)
    # every length 1-6 twice, so that seeds vary the powers but not the mix
    for i in range(12):
        ks = axis_ladder(rng, i % 6 + 1, range(1, 11), range(5, 41))
        x = core_stack_core(ks, right_power=ks[-1] + rng.randrange(5, 41))
        f = ops.gluing(f"stack{i:02d}", x)
        ops.op(f"report:stack{i:02d}", f, ["report"])
        ops.op(f"collapse:stack{i:02d}", f, ["collapse"])
    for name, x in (
        ("deep30", core_stack_core([30])),
        ("deep200", core_stack_core([200])),
    ):
        f = ops.gluing(name, x)
        for cmd in ("validate", "report", "collapse", "decompose"):
            ops.op(f"{cmd}:{name}", f, [cmd])
    for name, (base, transversal) in (
        ("inv1000", (Slope(1, 1000), Slope(0, 1))),
        ("inv300", (Slope(1, 300), Slope(0, 1))),
        ("fib1000", fibonacci_marking(1000)),
    ):
        f = ops.gluing(name, self_glued_core(base, transversal))
        ops.op(f"report:{name}", f, ["report"])


def graph_lab(ops: OpList, rng: random.Random) -> None:
    for i in range(6):
        ks = axis_ladder(rng, i % 3 + 1, range(2, 12), range(4, 13))
        f = ops.gluing(f"gstack{i:02d}", graph_stack(200 + 40 * i, ks))
        for cmd in ("validate", "report", "collapse"):
            ops.op(f"{cmd}:gstack{i:02d}", f, [cmd])
    # sizes are fixed: the four-point delta costs O(n^4)
    for i in range(8):
        n = 60 + 90 * i // 7
        g = random_tree(rng, n) if i % 2 == 0 else sparse_graph(rng, n, n // 6)
        f = ops.add_input(f"graph{i:02d}.txt", graph_text(g))
        ops.op(f"hyplab:graph{i:02d}", f, ["hyplab"])


def skeleton(ops: OpList, rng: random.Random) -> None:
    thin = next(build for name, build, _, _ in EXAMPLES if name == "thin")
    inputs = [("thin", thin(), ["--eps0", "0.3"])]
    inputs += [(f"thin{c}", thin_gluing(c), []) for c in (50, 120, 300, 800)]
    # shallow: model cost grows about fivefold per unit of axis gap
    for i in range(8):
        ks = axis_ladder(rng, i % 3 + 1, range(1, 4), range(1, 4))
        inputs.append((f"shallow{i}", core_stack_core(ks, ks[-1] + rng.randrange(1, 4)), []))
    inputs += [(f"axis{k}", core_stack_core([k]), []) for k in (5, 6, 7)]
    for name, x, flags in inputs:
        f = ops.gluing(name, x)
        ops.op(f"model:{name}", f, ["model", *flags])
        ops.op(f"model-obj:{name}", f, ["model", *flags, "--format", "obj"])
    # JSON only: the OBJ export would run the same hanging build_skeleton
    # and charge the time limit a second time
    f = ops.gluing("deep30", core_stack_core([30]))
    ops.op("model:deep30", f, ["model"])


def generate(workload: str, seed: int, out: pathlib.Path) -> dict:
    out.mkdir(parents=True, exist_ok=True)
    ops = OpList(out)
    build = {"torus-certify": torus_certify, "graph-lab": graph_lab, "skeleton": skeleton}[workload]
    build(ops, random.Random(f"{workload}/{seed}"))
    manifest = {"workload": workload, "seed": seed, "inputs": ops.inputs, "ops": ops.ops}
    (out / "ops.json").write_text(json.dumps(manifest, indent=1) + "\n", encoding="utf-8")
    return manifest


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=pathlib.Path, required=True)
    args = parser.parse_args(argv)
    generate(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
