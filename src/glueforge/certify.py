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


class SlotReport(Record):
    """Per-slot certificate entry: height, projection maximum, and the
    pairwise and meridian clauses."""

    piece: str
    boundary: str
    buried: bool
    nu_source: str
    height: int | None
    projection: ProjectionResult | None
    clause_a_ok: bool | None
    clause_b: tuple[int, int, bool] | None  # (height, disk distance, ok)
    height_ok: bool | None

    def to_json(self) -> dict:
        out: dict = {
            "piece": self.piece,
            "boundary": self.boundary,
            "buried": self.buried,
            "nu_source": self.nu_source,
            "height": self.height,
            "projection": None if self.projection is None else self.projection.to_json(),
            "clause_a": self.clause_a_ok,
        }
        if self.clause_b is None:
            out["clause_b"] = None
        else:
            h, dd, ok = self.clause_b
            out["clause_b"] = {"height": h, "disk_distance": dd, "ok": ok}
        out["height_ok"] = self.height_ok
        return out


class BundleClauseReport(Record):
    """Geodesic clause for an interval bundle: distances of the two
    decorations from a curve-graph geodesic between the induced ends."""

    ok: bool
    distance_0: int | None = None
    distance_1: int | None = None
    detail: str = ""


class PieceReport(Record):
    """Per-piece certificate entry for the bundle, cover and record
    coverage clauses."""

    piece: str
    kind: str
    clause_c: BundleClauseReport | None
    clause_d: BundleClauseReport | None
    clause_e_ok: bool
    clause_e_detail: str = ""

    def to_json(self) -> dict:
        return {
            "piece": self.piece,
            "kind": self.kind,
            "clause_c": None if self.clause_c is None else self.clause_c.to_json(),
            "clause_d": None if self.clause_d is None else self.clause_d.to_json(),
            "clause_e": {"ok": self.clause_e_ok, "detail": self.clause_e_detail},
        }


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
) -> tuple[bool, str]:
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
        return False, "records without an induced marking: " + "; ".join(failing)
    return True, ""


def check_bounded_combinatorics(
    x: GluingGraph,
    r_bound: int,
    d_bound: int,
    denom_bound: int | None = None,
) -> CombinatoricsCertificate:
    """Verify every clause of bounded combinatorics against (R, D).

    Per slot with non-empty nu, its measure (`measures.slot_measures`) is
    compared: the subsurface maximum with R, the meridian inequality
    height <= d(disks, nu) + R on compressible slots, and the height
    with D.
    Per piece: the bundle geodesic clause, its double-cover analogue for
    twisted bundles, and coverage of the declared disk/annulus records.
    Failures become certificate entries; nothing raises.
    """
    if not isinstance(r_bound, int) or r_bound <= 0:
        raise ValidationError("R must be a positive integer")
    if not isinstance(d_bound, int) or d_bound < 0:
        raise ValidationError("D must be a non-negative integer")
    induced = induced_markings(x)
    measures = slot_measures(x, induced, denom_bound)
    slot_reports: list[SlotReport] = []
    failures = 0
    uncertified = False
    unmodeled = False
    for slot in x.slots():
        buried = x.is_buried(slot)
        source = "psi" if buried else "empty" if induced[slot] is None else "lambda"
        measure = measures.get(slot)
        if measure is None:
            slot_reports.append(SlotReport(*slot, buried, source, None, None, None, None, None))
            continue
        height, projection, dd = measure.height, measure.projection, measure.disk_distance
        uncertified |= not projection.certified
        unmodeled |= projection.unmodeled
        clause_a_ok = projection.value <= r_bound
        clause_b = None if dd is None else (height, dd, height <= dd + r_bound)
        height_ok = height >= d_bound
        failures += (not clause_a_ok) + (clause_b is not None and not clause_b[2])
        failures += not height_ok
        slot_reports.append(
            SlotReport(*slot, buried, source, height, projection, clause_a_ok, clause_b, height_ok)
        )
    piece_reports: list[PieceReport] = []
    for pid, _ in x.pieces:
        spec = x.spec_of(pid)
        clause_c = clause_d = None
        if spec.kind == TRIVIAL_IBUNDLE:
            clause_c = _clause_c(pid, spec, induced, r_bound)
            failures += not clause_c.ok
        elif spec.kind == TWISTED_IBUNDLE:
            clause_d = _clause_d(pid, spec, induced, r_bound)
            failures += not clause_d.ok
        e_ok, e_detail = _clause_e(pid, spec, induced)
        failures += not e_ok
        piece_reports.append(PieceReport(pid, spec.kind, clause_c, clause_d, e_ok, e_detail))
    caveats = ["meridian inequalities are relative to the declared finite disk sets"]
    if uncertified:
        caveats.append("subsurface maxima are best-effort (no certifying sweep bound)")
    if unmodeled:
        caveats.append("some graph slots carry no declared projection table")
    return CombinatoricsCertificate(
        r_bound,
        d_bound,
        denom_bound,
        x.content_hash(),
        tuple(slot_reports),
        tuple(piece_reports),
        tuple(caveats),
        "pass" if failures == 0 else "fail",
    )
