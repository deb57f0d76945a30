"""Model-skeleton assembly.

A decorated gluing determines a piecewise metric model: every piece keeps
an opaque interior whose boundary restrictions are the balanced points of
its decorations, and every identification contributes a tube swept along
the half-plane geodesic between the two induced balanced points.  On the
torus backend the fiber geometry is computed exactly from the modulus;
finite-graph slots have no geometry and their tubes stay combinatorial,
so a gluing on graph backends alone loads no torus code: the half-plane
geometry (`halfplane`) is imported where a geometric tube or anchor is
built.  Each geometric tube keeps the sigma matrices of its ends, and their
precision demand picks its arithmetic: within `halfplane.PRECISION_BITS`
it is measured and sampled in doubles, beyond it on the decimal path,
whose every number is correctly rounded.

A skeleton has two serializations: `ModelSkeleton.to_json` is the skeleton
JSON that `glueforge model` prints inside its report envelope, and
`export_skeleton` writes the OBJ surface sweep of `model --format obj`.
"""

from __future__ import annotations

import math
import warnings
from typing import TYPE_CHECKING

from .errors import ValidationError, clip
from .gluing import GluingGraph, Slot, SlotMap, _slot_name
from .record import Record, replace
from .surface import AbstractMarking, as_torus_marking

if TYPE_CHECKING:  # geometric tubes and anchors import the half-plane layer
    from .halfplane import TeichPoint
    from .torus import Slope, SurfaceMap

# the stabilizer of i: sigma(mu) and sigma(nu) balance at the same point
# iff sigma(mu)^-1 sigma(nu) has one of these entries
_FIXERS_OF_I = (
    ((1, 0), (0, 1)),
    ((-1, 0), (0, -1)),
    ((0, -1), (1, 0)),
    ((0, 1), (-1, 0)),
)

# the horizontal complement is a convention, not data: on the torus the
# flat product split is used and recorded so exports stay comparable
HORIZONTAL_SPLIT = "zero-connection-product"

SCHEMA = "skeleton/1"

DEFAULT_SAMPLES = 9

# vertices per fiber ring of the OBJ sweep
FIBER_RESOLUTION = 16


def _point_json(z: TeichPoint | None) -> list[float] | None:
    return None if z is None else [z.x, z.y]


class TubeSample(Record):
    """One fiber of a tube: parameter, modulus, and its shortest geometry."""

    t: float
    point: TeichPoint
    systole: float
    shortest: Slope

    def to_json(self) -> dict:
        return {
            "t": self.t,
            "point": _point_json(self.point),
            "systole": self.systole,
            "shortest": [self.shortest.p, self.shortest.q],
        }

class TubeBlock(Record):
    """Geodesic tube between two induced balanced points.

    kind is "internal" for a two-slot identification, "quotient" for a
    self-identification (the involution is kept for the record), and
    "boundary" for a free slot joined to its share of the free marking.
    Equal endpoints force the degenerate flag: the block is then the
    product of the fiber with a unit interval.  Combinatorial tubes come
    from finite-graph slots and carry no geometry at all.  A tube built
    from markings keeps ends, the sigma matrices of its two sides, which
    pick and feed its arithmetic.
    """

    slot_a: Slot
    slot_b: Slot
    kind: str
    combinatorial: bool = False
    sigma_a: TeichPoint | None = None
    sigma_b: TeichPoint | None = None
    length: float = 0.0
    degenerate: bool = False
    involution: SlotMap | None = None
    samples: tuple[TubeSample, ...] = ()
    ends: tuple[SurfaceMap, SurfaceMap] | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("internal", "quotient", "boundary"):
            raise ValidationError(f"unknown tube kind {clip(self.kind)}")
        if self.combinatorial:
            return
        if self.sigma_a is None or self.sigma_b is None:
            raise ValidationError(f"tube {self.name} lacks endpoint geometry")
        if self.degenerate:
            if self.length != 0.0:
                raise ValidationError(f"degenerate tube {self.name} with length")
        elif not self.length > 0.0:
            raise ValidationError(f"tube {self.name} needs positive length")

    @property
    def name(self) -> str:
        if self.kind == "boundary":
            return f"{_slot_name(self.slot_a)}--free"
        return f"{_slot_name(self.slot_a)}--{_slot_name(self.slot_b)}"

    def to_json(self) -> dict:
        out: dict = {
            "slot_a": list(self.slot_a),
            "slot_b": list(self.slot_b),
            "kind": self.kind,
            "combinatorial": self.combinatorial,
            "sigma_a": _point_json(self.sigma_a),
            "sigma_b": _point_json(self.sigma_b),
            "length": self.length,
            "degenerate": self.degenerate,
            "samples": [s.to_json() for s in self.samples],
        }
        if self.involution is not None:
            out["involution"] = {
                "backend": self.involution.handle.to_json(),
                "map": self.involution.to_json(),
            }
        return out

class PieceBlock(Record):
    """Opaque interior of one piece, known only by its boundary anchors."""

    piece: str
    anchors: tuple[tuple[str, TeichPoint | None], ...]
    volume_tag: str = "opaque"

    def to_json(self) -> dict:
        return {
            "piece": self.piece,
            "anchors": {bid: _point_json(z) for bid, z in self.anchors},
            "volume_tag": self.volume_tag,
        }

class ModelSkeleton(Record):
    """Piece blocks plus one tube per identification, with free-marking
    boundary tubes appended; incidence lists the tubes' slot pairs in the
    same order the tubes are stored."""

    pieces: tuple[PieceBlock, ...]
    tubes: tuple[TubeBlock, ...]
    incidence: tuple[tuple[str, str], ...]
    total_tube_length: float
    min_sampled_systole: float | None

    def to_json(self) -> dict:
        return {
            "schema": SCHEMA,
            "horizontal_split": HORIZONTAL_SPLIT,
            "pieces": [p.to_json() for p in self.pieces],
            "tubes": [t.to_json() for t in self.tubes],
            "incidence": [list(pair) for pair in self.incidence],
            "stats": {
                "total_tube_length": self.total_tube_length,
                "min_sampled_systole": self.min_sampled_systole,
            },
        }

def _sigma(m: AbstractMarking) -> TeichPoint:
    from .halfplane import sigma_of_marking

    return sigma_of_marking(as_torus_marking(m))


def _decimal(ends: tuple[SurfaceMap, SurfaceMap] | None) -> bool:
    """Whether a tube with these ends needs more bits than a double holds,
    and so runs on the decimal path."""
    from .halfplane import PRECISION_BITS, precision_demand

    return ends is not None and max(map(precision_demand, ends)) > PRECISION_BITS


def sample_tube(tube: TubeBlock, n: int) -> tuple[TubeSample, ...]:
    """Equally spaced fibers along the tube geodesic, on the decimal path
    when the tube's ends need more bits than a double holds.

    A degenerate tube is the product of one fiber with an interval, so it
    always yields exactly two identical samples regardless of n.
    """
    if tube.combinatorial:
        raise ValidationError(f"combinatorial tube {tube.name} carries no geometry")
    if n < 2:
        raise ValidationError("tube sampling needs at least 2 samples")
    if _decimal(tube.ends):
        from .halfplane import exact_tube_samples

        assert tube.ends is not None
        # the two ends of a degenerate tube are the same exact point
        samples = exact_tube_samples(*tube.ends, 2 if tube.degenerate else n)
        return tuple(TubeSample(*s) for s in samples)
    from .halfplane import teich_geodesic

    assert tube.sigma_a is not None and tube.sigma_b is not None
    if tube.degenerate:
        fixed = _sample(0.0, tube.sigma_a)
        return (fixed, replace(fixed, t=1.0))
    out = []
    for k in range(n):
        t = k / (n - 1)
        out.append(_sample(t, teich_geodesic(tube.sigma_a, tube.sigma_b, t)))
    return tuple(out)


def _sample(t: float, z: TeichPoint) -> TubeSample:
    from .halfplane import curve_length, shortest_slope

    # curve_length of the shortest slope is exactly what systole returns
    shortest = shortest_slope(z)
    return TubeSample(t, z, curve_length(z, shortest), shortest)


def _geometry(
    slot_a: Slot,
    slot_b: Slot,
    kind: str,
    mu: AbstractMarking,
    nu: AbstractMarking,
    samples: int,
    involution: SlotMap | None = None,
) -> TubeBlock:
    from .halfplane import sigma_matrix

    ends = (sigma_matrix(as_torus_marking(mu)), sigma_matrix(as_torus_marking(nu)))
    degenerate = (ends[0].inverse() @ ends[1]).entries in _FIXERS_OF_I
    if _decimal(ends):
        from .halfplane import balanced_point, exact_tube_length

        sigma_a, sigma_b = balanced_point(ends[0]), balanced_point(ends[1])
        length = 0.0 if degenerate else exact_tube_length(*ends)
    else:
        from .halfplane import teich_distance

        sigma_a, sigma_b = _sigma(mu), _sigma(nu)
        length = 0.0 if degenerate else teich_distance(sigma_a, sigma_b)
    tube = TubeBlock(
        slot_a,
        slot_b,
        kind,
        sigma_a=sigma_a,
        sigma_b=sigma_b,
        length=length,
        degenerate=degenerate,
        involution=involution,
        ends=ends,
    )
    return replace(tube, samples=sample_tube(tube, samples))


def build_skeleton(
    x: GluingGraph,
    samples: int = DEFAULT_SAMPLES,
) -> ModelSkeleton:
    """Assemble the skeleton of a valid gluing.

    Every identification produces exactly one tube between the induced
    balanced points of its two sides (a self-identification produces the
    quotient tube with the involution recorded).  Unburied slots holding a
    free marking get a boundary tube; without one the tube is omitted with
    a warning.
    """
    x.validate()
    blocks = []
    for pid, _ in x.pieces:
        spec = x.spec_of(pid)
        anchors = tuple(
            (b.id, _sigma(b.decoration) if b.handle is not None and b.handle.is_torus else None)
            for b in spec.nontoroidal()
            if b.decoration is not None
        )
        blocks.append(PieceBlock(pid, anchors))

    tubes: list[TubeBlock] = []
    for ident in x.identifications:
        slot = ident.slot_a
        # a self-identification pairs the slot with itself through its map
        partner, push = x.psi(slot)
        kind, involution = ("quotient", push) if partner == slot else ("internal", None)
        if not push.handle.is_torus:
            tubes.append(TubeBlock(slot, partner, kind, combinatorial=True, involution=involution))
            continue
        nu = push.apply(x.decoration(partner))
        tubes.append(
            _geometry(slot, partner, kind, x.decoration(slot), nu, samples, involution=involution)
        )

    for slot in x.slots():
        if x.is_buried(slot):
            continue
        free = x.lam(slot)
        if free is None:
            warnings.warn(
                f"unburied slot {_slot_name(slot)} has no free marking;"
                " boundary tube omitted",
                RuntimeWarning,
                stacklevel=2,
            )
            continue
        handle = x.boundary_of(slot).handle
        assert handle is not None
        if not handle.is_torus:
            tubes.append(TubeBlock(slot, slot, "boundary", combinatorial=True))
            continue
        tubes.append(_geometry(slot, slot, "boundary", x.decoration(slot), free, samples))

    sampled = [s.systole for t in tubes for s in t.samples]
    return ModelSkeleton(
        pieces=tuple(blocks),
        tubes=tuple(tubes),
        incidence=tuple(
            (_slot_name(t.slot_a), _slot_name(t.slot_b)) for t in tubes
        ),
        total_tube_length=math.fsum(t.length for t in tubes),
        min_sampled_systole=min(sampled) if sampled else None,
    )


class ThicknessRow(Record):
    """Per-tube verdict with the combinatorial thinness indicator."""

    tube: str
    min_systole: float
    thick: bool
    cf_coefficient: int

    def to_json(self) -> dict:
        return {
            "tube": self.tube,
            "min_systole": self.min_systole,
            "thick": self.thick,
            "cf_coefficient": self.cf_coefficient,
        }


class ThicknessReport(Record):
    """Sampled thickness of every geometric tube of a skeleton.

    The correlation list pairs each tube's relative continued-fraction
    coefficient with its sampled minimum, largest coefficient first: a
    long coefficient forces a deep modulus excursion, so thin fibers
    should cluster at the top.
    """

    eps0: float
    rows: tuple[ThicknessRow, ...]
    ok: bool
    correlation: tuple[tuple[str, int, float], ...]

    def to_json(self) -> dict:
        return {
            "eps0": self.eps0,
            "rows": [r.to_json() for r in self.rows],
            "ok": self.ok,
            "correlation": [list(entry) for entry in self.correlation],
        }


def verify_thickness(s: ModelSkeleton, eps0: float) -> ThicknessReport:
    """Compare every sampled tube systole against the thickness floor."""
    if not eps0 > 0:
        raise ValidationError("thickness floor must be positive")
    rows = []
    for tube in s.tubes:
        if tube.combinatorial or not tube.samples:
            continue
        low = min(smp.systole for smp in tube.samples)
        rows.append(ThicknessRow(tube.name, low, low >= eps0, _cf_coefficient(tube)))
    return ThicknessReport(
        eps0=eps0,
        rows=tuple(rows),
        ok=all(r.thick for r in rows),
        correlation=tuple(
            (r.tube, r.cf_coefficient, r.min_systole)
            for r in sorted(rows, key=lambda r: (-r.cf_coefficient, r.tube))
        ),
    )


def _cf_coefficient(tube: TubeBlock) -> int:
    """The relative continued-fraction coefficient between the shortest
    markings at the two ends of a geometric tube."""
    from .halfplane import relative_cf_max_coeff, shortest_marking

    if _decimal(tube.ends):
        from .halfplane import balanced_marking

        assert tube.ends is not None
        return relative_cf_max_coeff(*map(balanced_marking, tube.ends))
    assert tube.sigma_a is not None and tube.sigma_b is not None
    return relative_cf_max_coeff(shortest_marking(tube.sigma_a), shortest_marking(tube.sigma_b))


def export_skeleton(s: ModelSkeleton) -> bytes:
    """The OBJ surface sweep of a skeleton: each geometric tube becomes a
    ring of FIBER_RESOLUTION vertices per sample, of radius systole / 2 pi,
    joined to the next ring by triangles."""
    lines = [f"# {SCHEMA} sweep, horizontal split {HORIZONTAL_SPLIT}"]
    base = 0
    for index, tube in enumerate(s.tubes):
        if tube.combinatorial or not tube.samples:
            continue
        lines.append(f"o {tube.name}")
        span = tube.length if not tube.degenerate else 1.0
        offset = 3.0 * index
        rings = len(tube.samples)
        for smp in tube.samples:
            radius = smp.systole / (2.0 * math.pi)
            cx = smp.t * span
            for j in range(FIBER_RESOLUTION):
                angle = 2.0 * math.pi * j / FIBER_RESOLUTION
                y = radius * math.cos(angle)
                z = offset + radius * math.sin(angle)
                lines.append(f"v {cx:.9f} {y:.9f} {z:.9f}")
        for k in range(rings - 1):
            for j in range(FIBER_RESOLUTION):
                a = base + k * FIBER_RESOLUTION + j + 1
                b = base + k * FIBER_RESOLUTION + (j + 1) % FIBER_RESOLUTION + 1
                c = a + FIBER_RESOLUTION
                d = b + FIBER_RESOLUTION
                lines.append(f"f {a} {b} {d}")
                lines.append(f"f {a} {d} {c}")
        base += rings * FIBER_RESOLUTION
    lines.append("")
    return "\n".join(lines).encode()
