"""Measure the calibration constants that the test suite freezes.

Four experiments, each printing a small table:

  axis        sup-projection between golden-axis markings at several gaps
  projection  max annular projection seen from geodesics kept at distance
              one from the annulus
  comparison  fitted constant c for the marking-distance vs Teichmueller
              -distance comparison on bounded-twist pairs
  thickness   min sampled tube systole as a function of the relative
              continued-fraction coefficient of a boundary marking

Run all of them with defaults (a few seconds), or pick one with
--only and turn the knobs.
"""

from __future__ import annotations

import argparse
import math
import random

from glueforge.farey import AnnulusLabel, annular_projection_distance, farey_geodesic
from glueforge.gluing import (
    GENERIC,
    BoundarySpec,
    DecoratedManifoldSpec,
    GluingGraph,
    Identification,
    SlotMap,
)
from glueforge.halfplane import shortest_marking, sigma_of_marking, teich_distance
from glueforge.model import build_skeleton
from glueforge.surface import AbstractMarking, BackendHandle, marking_distance, sup_projection
from glueforge.torus import (
    REFLECTION,
    FareyMarking,
    Slope,
    SurfaceMap,
    is_adjacent,
    parse_slope,
)

T = BackendHandle.torus()
A = SurfaceMap(2, 1, 1, 1)
T_MAP = SurfaceMap(1, 1, 0, 1)
L_MAP = SurfaceMap(1, 0, 1, 1)
MU = FareyMarking(parse_slope("0/1"), parse_slope("1/0"))


def axis_marking(k: int) -> FareyMarking:
    return A.power(k).on_marking(MU)


def measure_axis(args: argparse.Namespace) -> None:
    print("axis calibration: sup projection between A^i and A^(i+gap) markings")
    for gap in range(1, args.max_gap + 1):
        worst = 0
        for i in range(0, args.max_power - gap):
            m1 = AbstractMarking(T, axis_marking(i))
            m2 = AbstractMarking(T, axis_marking(i + gap))
            worst = max(worst, sup_projection(m1, m2).value)
        print(f"  gap {gap:2d}  max sup {worst}")


def unit_interval_slopes(max_denom: int) -> list[Slope]:
    out = [Slope(1, 0)]
    for q in range(1, max_denom + 1):
        for p in range(0, q + 1):
            if math.gcd(p, q) == 1:
                out.append(Slope(p, q))
    return sorted(set(out), key=str)


def measure_projection(args: argparse.Namespace) -> None:
    ends = unit_interval_slopes(args.endpoint_denom)
    annuli = unit_interval_slopes(args.annulus_denom)
    worst = 0
    checked = 0
    for i in range(len(ends)):
        for j in range(i + 1, len(ends)):
            geo = farey_geodesic(ends[i], ends[j])
            for w in annuli:
                if any(w == v or is_adjacent(w, v) for v in geo):
                    continue
                d = annular_projection_distance(AnnulusLabel(w), ends[i], ends[j])
                worst = max(worst, d)
                checked += 1
    print(
        f"projection: endpoints denom<={args.endpoint_denom}, annuli denom<="
        f"{args.annulus_denom}: {checked} projections, max {worst}"
    )


def measure_comparison(args: argparse.Namespace) -> None:
    rng = random.Random(args.seed)
    rows = []
    for _ in range(args.pairs):
        m = SurfaceMap(1, 0, 0, 1)
        for _ in range(rng.randrange(0, 26)):
            m = m @ (T_MAP if rng.random() < 0.5 else L_MAP)
        mu, nu = MU, m.on_marking(MU)
        s, t = sigma_of_marking(mu), sigma_of_marking(nu)
        rows.append(
            (
                marking_distance(AbstractMarking(T, mu), AbstractMarking(T, nu)),
                teich_distance(s, t),
                marking_distance(
                    AbstractMarking(T, shortest_marking(s)), AbstractMarking(T, shortest_marking(t))
                ),
            )
        )

    def fits(c: float) -> bool:
        return all(
            dc / c - c <= dt <= c * dc + c and dt / c - c <= dc2 <= c * dt + c
            for dc, dt, dc2 in rows
        )

    c = 1.0
    while not fits(c):
        c += 0.25
    ratios = sorted(dt / dc for dc, dt, _ in rows if dc > 2)
    print(
        f"comparison: {args.pairs} bounded-twist pairs, fitted c = {c}, "
        f"dT/dC range [{ratios[0]:.3f}, {ratios[-1]:.3f}]"
    )


def thin_gluing(coeff: int) -> GluingGraph:
    left = DecoratedManifoldSpec(
        "c0",
        GENERIC,
        (
            BoundarySpec("E0", handle=T, decoration=AbstractMarking(T, MU)),
            BoundarySpec("E1", handle=T, decoration=AbstractMarking(T, MU)),
        ),
    )
    right = DecoratedManifoldSpec(
        "c1",
        GENERIC,
        (BoundarySpec("E0", handle=T, decoration=AbstractMarking(T, MU)),),
    )
    lam = AbstractMarking(T, FareyMarking(Slope(coeff, 1), Slope(1, 0)))
    return GluingGraph(
        manifolds=(left, right),
        pieces=(("p0", "c0"), ("p1", "c1")),
        identifications=(
            Identification("p0", "E0", "p1", "E0", SlotMap(T, matrix=REFLECTION)),
        ),
        boundary_markings=((("p0", "E1"), lam),),
    ).validate()


def measure_thickness(args: argparse.Namespace) -> None:
    print("thickness: boundary-tube min sampled systole vs CF coefficient")
    print("  coeff   measured   sqrt(2/coeff)")
    for coeff in args.coeffs:
        s = build_skeleton(thin_gluing(coeff))
        assert s.min_sampled_systole is not None
        print(
            f"  {coeff:5d}   {s.min_sampled_systole:.4f}     "
            f"{math.sqrt(2.0 / coeff):.4f}"
        )


EXPERIMENTS = {
    "axis": measure_axis,
    "projection": measure_projection,
    "comparison": measure_comparison,
    "thickness": measure_thickness,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", choices=sorted(EXPERIMENTS), help="run one experiment")
    parser.add_argument("--max-gap", type=int, default=5)
    parser.add_argument("--max-power", type=int, default=30)
    parser.add_argument("--endpoint-denom", type=int, default=8)
    parser.add_argument("--annulus-denom", type=int, default=64)
    parser.add_argument("--pairs", type=int, default=500)
    parser.add_argument("--seed", type=int, default=2710)
    parser.add_argument(
        "--coeffs", type=int, nargs="+", default=[50, 120, 300, 800]
    )
    args = parser.parse_args(argv)
    for name, fn in sorted(EXPERIMENTS.items()):
        if args.only and name != args.only:
            continue
        fn(args)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
