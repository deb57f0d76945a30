"""The bounded-combinatorics certificate of a gluing.

Per slot with a non-empty induced marking nu, the certificate compares
the slot's measure (`measures.slot_measures`) with R and D: the
subsurface-projection maximum between the decoration and nu (Masur and
Minsky's annular projections on the torus, declared tables on a graph)
in clause a, the meridian inequality on compressible slots in clause b,
and the height floor.  `collapse`'s `r_prime` is the least R at which
the same measures pass clauses a and b.  Per piece it checks the bundle
geodesic clause, its double-cover analogue for twisted bundles, and
coverage of the declared disk and annulus records.  Failures are
certificate entries, not exceptions.
"""

from __future__ import annotations

from .errors import ValidationError
from .gluing import (
    TRIVIAL_IBUNDLE,
    TWISTED_IBUNDLE,
    DecoratedManifoldSpec,
    GluingGraph,
    Slot,
    induced_markings,
)
from .measures import slot_measures
from .record import Record
from .surface import (
    AbstractMarking,
    ProjectionResult,
    geodesic_between,
    marking_to_path_distance,
)


class MeridianClause(Record):
    """Clause b on a compressible slot: height - disk_distance <= R."""

    height: int
    disk_distance: int
    ok: bool


class SlotReport(Record):
    """Per-slot certificate entry: height, projection maximum, and the
    pairwise and meridian clauses; the five measured fields are None on a
    slot without nu."""

    piece: str
    boundary: str
    buried: bool
    nu_source: str
    height: int | None = None
    projection: ProjectionResult | None = None
    clause_a: bool | None = None
    clause_b: MeridianClause | None = None
    height_ok: bool | None = None


class BundleClauseReport(Record):
    """Geodesic clause for an interval bundle: distances of the two
    decorations from a curve-graph geodesic between the induced ends."""

    ok: bool
    distance_0: int | None = None
    distance_1: int | None = None
    detail: str = ""


class RecordsClause(Record):
    """Clause e: each declared disk and annulus record holds a boundary
    with an induced marking; detail names the records that do not."""

    ok: bool
    detail: str = ""


class PieceReport(Record):
    """Per-piece certificate entry for the bundle, cover and record
    coverage clauses."""

    piece: str
    kind: str
    clause_c: BundleClauseReport | None
    clause_d: BundleClauseReport | None
    clause_e: RecordsClause


class CombinatoricsCertificate(Record):
    r_bound: int
    d_bound: int
    denom_bound: int | None
    input_sha256: str
    slots: tuple[SlotReport, ...]
    pieces: tuple[PieceReport, ...]
    caveats: tuple[str, ...]
    verdict: str

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_json(self) -> dict:
        return {
            "schema": "certificate/1",
            "input_sha256": self.input_sha256,
            "params": {
                "R": self.r_bound,
                "D": self.d_bound,
                "denom_bound": self.denom_bound,
            },
            "verdict": self.verdict,
            "caveats": list(self.caveats),
            "slots": [s.to_json() for s in self.slots],
            "pieces": [p.to_json() for p in self.pieces],
        }


def _bundle_clause(
    mu0: AbstractMarking,
    mu1_adjusted: AbstractMarking,
    nu0: AbstractMarking,
    nu1_adjusted: AbstractMarking,
    r_bound: int,
    detail: str = "",
) -> BundleClauseReport:
    path = geodesic_between(nu0, nu1_adjusted)
    d0 = marking_to_path_distance(mu0, path)
    d1 = marking_to_path_distance(mu1_adjusted, path)
    return BundleClauseReport(d0 <= r_bound and d1 <= r_bound, d0, d1, detail)


def _clause_c(
    pid: str,
    spec: DecoratedManifoldSpec,
    induced: dict[Slot, AbstractMarking | None],
    r_bound: int,
) -> BundleClauseReport:
    e0, e1 = spec.nontoroidal()
    nu0 = induced[(pid, e0.id)]
    nu1 = induced[(pid, e1.id)]
    if nu0 is None or nu1 is None:
        empty = e0.id if nu0 is None else e1.id
        return BundleClauseReport(False, detail=f"missing induced marking on {empty}")
    phi = spec.bundle_map
    assert phi is not None and e0.decoration is not None and e1.decoration is not None
    return _bundle_clause(
        e0.decoration, phi.apply(e1.decoration), nu0, phi.apply(nu1), r_bound
    )


def _clause_d(
    pid: str,
    spec: DecoratedManifoldSpec,
    induced: dict[Slot, AbstractMarking | None],
    r_bound: int,
) -> BundleClauseReport:
    (e0,) = spec.nontoroidal()
    if spec.cover is None:
        return BundleClauseReport(False, detail="cover data missing")
    nu = induced[(pid, e0.id)]
    if nu is None:
        return BundleClauseReport(False, detail=f"missing induced marking on {e0.id}")
    cover = spec.cover
    return _bundle_clause(
        cover.mu0,
        cover.phi.apply(cover.mu1),
        cover.lift0.apply(nu),
        cover.phi.apply(cover.lift1.apply(nu)),
        r_bound,
        detail="checked in the declared double cover",
    )


def _clause_e(
    pid: str,
    spec: DecoratedManifoldSpec,
    induced: dict[Slot, AbstractMarking | None],
) -> RecordsClause:
    failing = []
    for kind, records in (("disk", spec.disk_records), ("annulus", spec.annulus_records)):
        for record in records:
            covered = any(
                not spec.boundary(bid).toroidal and induced[(pid, bid)] is not None
                for bid in record
            )
            if not covered:
                failing.append(f"{kind}({','.join(record)})")
    if failing:
        return RecordsClause(False, "records without an induced marking: " + "; ".join(failing))
    return RecordsClause(True)


def check_bounded_combinatorics(
    x: GluingGraph,
    r_bound: int,
    d_bound: int,
    denom_bound: int | None = None,
) -> CombinatoricsCertificate:
    """Verify every clause of bounded combinatorics against (R, D).

    Per slot with non-empty nu, its measure (`measures.slot_measures`) is
    compared: the subsurface maximum with R, on compressible slots the
    meridian inequality as excess = height - d(disks, nu) <= R (the
    excess that `r_prime` reads), and the height with D.
    Per piece: the bundle geodesic clause, its double-cover analogue for
    twisted bundles, and coverage of the declared disk/annulus records.
    Failures become certificate entries; nothing raises.  The verdict is
    the conjunction of the printed outcomes.
    """
    if not isinstance(r_bound, int) or r_bound <= 0:
        raise ValidationError("R must be a positive integer")
    if not isinstance(d_bound, int) or d_bound < 0:
        raise ValidationError("D must be a non-negative integer")
    induced = induced_markings(x)
    measures = slot_measures(x, induced, denom_bound)
    slot_reports: list[SlotReport] = []
    for slot in x.slots():
        buried = x.is_buried(slot)
        source = "psi" if buried else "empty" if induced[slot] is None else "lambda"
        measure = measures.get(slot)
        if measure is None:
            slot_reports.append(SlotReport(*slot, buried, source))
            continue
        height, projection, dd = measure.height, measure.projection, measure.disk_distance
        clause_a, height_ok = projection.value <= r_bound, height >= d_bound
        clause_b = None if dd is None else MeridianClause(height, dd, measure.excess <= r_bound)
        slot_reports.append(
            SlotReport(*slot, buried, source, height, projection, clause_a, clause_b, height_ok)
        )
    piece_reports: list[PieceReport] = []
    for pid, _ in x.pieces:
        spec = x.spec_of(pid)
        clause_c = _clause_c(pid, spec, induced, r_bound) if spec.kind == TRIVIAL_IBUNDLE else None
        clause_d = _clause_d(pid, spec, induced, r_bound) if spec.kind == TWISTED_IBUNDLE else None
        clause_e = _clause_e(pid, spec, induced)
        piece_reports.append(PieceReport(pid, spec.kind, clause_c, clause_d, clause_e))
    # the verdict and the caveats read only what the entries print
    measured = [s for s in slot_reports if s.projection is not None]
    passed = all(
        s.clause_a and s.height_ok and (s.clause_b is None or s.clause_b.ok) for s in measured
    ) and all(
        c is None or c.ok for p in piece_reports for c in (p.clause_c, p.clause_d, p.clause_e)
    )
    caveats = ["meridian inequalities are relative to the declared finite disk sets"]
    if not all(s.projection.certified for s in measured):
        caveats.append("subsurface maxima are best-effort (no certifying sweep bound)")
    if any(s.projection.unmodeled for s in measured):
        caveats.append("some graph slots carry no declared projection table")
    return CombinatoricsCertificate(
        r_bound,
        d_bound,
        denom_bound,
        x.content_hash(),
        tuple(slot_reports),
        tuple(piece_reports),
        tuple(caveats),
        "pass" if passed else "fail",
    )
