"""Model-skeleton assembly.

A decorated gluing determines a piecewise metric model: every piece keeps
an opaque interior whose boundary restrictions are the balanced points of
its decorations, and every identification contributes a tube swept along
the half-plane geodesic between the two induced balanced points.  Each
slot's backend supplies its balanced points and its tube, a
`halfplane.Tube` that holds the whole tube's geometry and its thickness
facts, or None: finite-graph slots have no geometry and their tubes stay
combinatorial.  This module reads those records and knows no torus
geometry, so a gluing on graph backends alone loads no torus code.

A skeleton has two serializations: `ModelSkeleton.to_json` is the skeleton
JSON that `glueforge model` prints inside its report envelope, and
`export_skeleton` writes the OBJ surface sweep of `model --format obj`.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .errors import ValidationError, clip
from .gluing import GluingGraph, Slot, SlotMap, _slot_name
from .record import Record

if TYPE_CHECKING:  # the torus backend builds the half-plane records
    from .halfplane import TeichPoint, Tube

# the horizontal complement is a convention, not data: on the torus the
# flat product split is used and recorded so exports stay comparable
HORIZONTAL_SPLIT = "zero-connection-product"

SCHEMA = "skeleton/1"

DEFAULT_SAMPLES = 9

# vertices per fiber ring of the OBJ sweep
FIBER_RESOLUTION = 16

# the JSON geometry fields of a combinatorial tube
_NO_GEOMETRY = {"sigma_a": None, "sigma_b": None, "length": 0.0, "degenerate": False, "samples": []}


class TubeBlock(Record):
    """Tube between two induced balanced points.

    kind is "internal" for a two-slot identification, "quotient" for a
    self-identification (the involution is kept for the record), and
    "boundary" for a free slot joined to its share of the free marking.
    geometry is the backend's tube, None for a combinatorial tube of
    finite-graph slots.  A degenerate tube, of equal endpoints, is the
    product of the fiber with a unit interval.
    """

    slot_a: Slot
    slot_b: Slot
    kind: str
    geometry: Tube | None
    involution: SlotMap | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("internal", "quotient", "boundary"):
            raise ValidationError(f"unknown tube kind {clip(self.kind)}")
        g = self.geometry
        if g is None:
            return
        if g.degenerate:
            if g.length != 0.0:
                raise ValidationError(f"degenerate tube {self.name} with length")
        elif not g.length > 0.0:
            raise ValidationError(f"tube {self.name} needs positive length")

    @property
    def combinatorial(self) -> bool:
        return self.geometry is None

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
            **(_NO_GEOMETRY if self.geometry is None else self.geometry.to_json()),
        }
        if self.involution is not None:
            out["involution"] = {
                "backend": self.involution.handle.to_json(),
                "map": self.involution.to_json(),
            }
        return out

class PieceBlock(Record):
    """Opaque interior of one piece, known only by its boundary anchors;
    its JSON tags every volume "opaque"."""

    piece: str
    anchors: tuple[tuple[str, TeichPoint | None], ...]

    def to_json(self) -> dict:
        return {
            "piece": self.piece,
            "anchors": {bid: None if z is None else z.to_json() for bid, z in self.anchors},
            "volume_tag": "opaque",
        }

class ModelSkeleton(Record):
    """Piece blocks plus one tube per identification, with free-marking
    boundary tubes appended; incidence lists the tubes' slot pairs in the
    same order the tubes are stored.  omitted lists the unburied slots
    without a free marking, whose boundary tubes are left out; the JSON
    does not carry it."""

    pieces: tuple[PieceBlock, ...]
    tubes: tuple[TubeBlock, ...]
    incidence: tuple[tuple[str, str], ...]
    total_tube_length: float
    min_sampled_systole: float | None
    omitted: tuple[Slot, ...] = ()

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

def build_skeleton(
    x: GluingGraph,
    samples: int = DEFAULT_SAMPLES,
) -> ModelSkeleton:
    """Assemble the skeleton of a valid gluing.

    Every identification produces exactly one tube between the induced
    balanced points of its two sides (a self-identification produces the
    quotient tube with the involution recorded).  Unburied slots holding a
    free marking get a boundary tube; without one the tube is omitted and
    the slot listed in `omitted`.
    """
    blocks = []
    for pid, _ in x.pieces:
        spec = x.spec_of(pid)
        anchors = tuple((b.id, b.handle.sigma(b.decoration.payload)) for b in spec.nontoroidal())
        blocks.append(PieceBlock(pid, anchors))

    tubes: list[TubeBlock] = []
    omitted: list[Slot] = []
    for ident in x.identifications:
        slot = ident.slot_a
        # a self-identification pairs the slot with itself through its map
        partner, push = x.psi(slot)
        kind, involution = ("quotient", push) if partner == slot else ("internal", None)
        mu, nu = x.decoration(slot), push.apply(x.decoration(partner))
        geometry = mu.handle.tube(mu.payload, nu.payload, samples)
        tubes.append(TubeBlock(slot, partner, kind, geometry, involution))

    for slot in x.slots():
        if x.is_buried(slot):
            continue
        free = x.lam(slot)
        if free is None:
            omitted.append(slot)
            continue
        mu = x.decoration(slot)
        geometry = mu.handle.tube(mu.payload, free.payload, samples)
        tubes.append(TubeBlock(slot, slot, "boundary", geometry))

    geometric = [t.geometry for t in tubes if t.geometry is not None]
    sampled = [s.systole for g in geometric for s in g.samples]
    return ModelSkeleton(
        pieces=tuple(blocks),
        tubes=tuple(tubes),
        incidence=tuple(
            (_slot_name(t.slot_a), _slot_name(t.slot_b)) for t in tubes
        ),
        total_tube_length=math.fsum(g.length for g in geometric),
        min_sampled_systole=min(sampled) if sampled else None,
        omitted=tuple(omitted),
    )


class ThicknessRow(Record):
    """Per-tube verdict with the combinatorial thinness indicator."""

    tube: str
    min_systole: float
    thick: bool
    cf_coefficient: int


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


def verify_thickness(s: ModelSkeleton, eps0: float) -> ThicknessReport:
    """Compare every sampled tube systole against the thickness floor."""
    if not eps0 > 0:
        raise ValidationError("thickness floor must be positive")
    rows = [
        ThicknessRow(t.name, g.min_systole, g.min_systole >= eps0, g.cf_coefficient)
        for t in s.tubes
        if (g := t.geometry) is not None
    ]
    return ThicknessReport(
        eps0=eps0,
        rows=tuple(rows),
        ok=all(r.thick for r in rows),
        correlation=tuple(
            (r.tube, r.cf_coefficient, r.min_systole)
            for r in sorted(rows, key=lambda r: (-r.cf_coefficient, r.tube))
        ),
    )


def export_skeleton(s: ModelSkeleton) -> str:
    """The OBJ surface sweep of a skeleton: each geometric tube becomes a
    ring of FIBER_RESOLUTION vertices per sample, of radius systole / 2 pi,
    joined to the next ring by triangles."""
    lines = [f"# {SCHEMA} sweep, horizontal split {HORIZONTAL_SPLIT}"]
    base = 0
    for index, tube in enumerate(s.tubes):
        g = tube.geometry
        if g is None:
            continue
        lines.append(f"o {tube.name}")
        span = g.length if not g.degenerate else 1.0
        offset = 3.0 * index
        rings = len(g.samples)
        for smp in g.samples:
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
    return "\n".join(lines)
