"""Full and maximal decompositions of a gluing.

The full decomposition replaces every piece by its declared splitting into
a core and compression bodies.  The maximal one keeps exactly the
identifications that meet a compression body's exterior boundary; the
connected groups under them are its components, and the other
identifications are cut.  Both are pure: they return new values and never
mutate the input graph.
"""

from __future__ import annotations

import json

from .errors import ValidationError
from .gluing import (
    COMPRESSION_BODY,
    GluingGraph,
    Identification,
    Slot,
    SlotMap,
)
from .record import Record


class Component(Record):
    pieces: tuple[str, ...]
    kind: str
    identifications: tuple[Identification, ...]

    def to_json(self) -> dict:
        return {
            "pieces": list(self.pieces),
            "kind": self.kind,
            "identifications": [i.to_json() for i in self.identifications],
        }


class DecompositionResult(Record):
    full: GluingGraph
    components: tuple[Component, ...]
    cut: tuple[Identification, ...]

    def cut_slots(self) -> tuple[tuple[Slot, Slot], ...]:
        return tuple((i.slot_a, i.slot_b) for i in self.cut)

    def reglue(self) -> GluingGraph:
        """Reassemble the full decomposition from the partition; the kept
        and cut identifications must tile the original list exactly."""
        kept = {id(i) for c in self.components for i in c.identifications}
        kept |= {id(i) for i in self.cut}
        if len(kept) != len(self.full.identifications):
            raise ValidationError("decomposition does not partition the identifications")
        return GluingGraph(
            manifolds=self.full.manifolds,
            pieces=self.full.pieces,
            identifications=self.full.identifications,
            boundary_markings=self.full.boundary_markings,
        ).validate()

    def to_json(self) -> dict:
        return {
            "full": self.full.to_json(),
            "components": [c.to_json() for c in self.components],
            "cut": [i.to_json() for i in self.cut],
        }


def _expand_splittings(x: GluingGraph) -> GluingGraph:
    """Replace each piece by its declared core/compression-body splitting;
    pieces without metadata stand for themselves."""
    spec_by_id = {m.id: m for m in x.manifolds}
    pieces: list[tuple[str, str]] = []
    idents: list[Identification] = []
    # per original piece: boundary id -> (new piece, new boundary)
    slot_map: dict[Slot, Slot] = {}
    for pid, mid in x.pieces:
        spec = x.spec_of(pid)
        split = spec.splitting
        if split is None:
            pieces.append((pid, mid))
            for b in spec.boundaries:
                slot_map[(pid, b.id)] = (pid, b.id)
            continue
        covered: dict[str, Slot] = {}
        for sub in split.pieces:
            sub_spec = spec_by_id.get(sub.manifold)
            if sub_spec is None:
                raise ValidationError(
                    f"piece {pid}: splitting references unknown manifold {sub.manifold}"
                )
            sub_pid = f"{pid}/{sub.id}"
            pieces.append((sub_pid, sub.manifold))
            for parent_bdry, sub_bdry in sub.boundaries:
                if not spec.has_boundary(parent_bdry):
                    raise ValidationError(
                        f"piece {pid}: splitting maps unknown boundary {parent_bdry}"
                    )
                if not sub_spec.has_boundary(sub_bdry):
                    raise ValidationError(
                        f"piece {pid}: splitting targets unknown boundary "
                        f"{sub.manifold}:{sub_bdry}"
                    )
                if parent_bdry in covered:
                    raise ValidationError(
                        f"piece {pid}: boundary {parent_bdry} split twice"
                    )
                covered[parent_bdry] = (sub_pid, sub_bdry)
        for b in spec.nontoroidal():
            if b.id not in covered:
                raise ValidationError(
                    f"piece {pid}: splitting leaves boundary {b.id} unplaced"
                )
            slot_map[(pid, b.id)] = covered[b.id]
        for sub_a, bdry_a, sub_b, bdry_b, map_json in split.identifications:
            owners = [s.manifold for s in split.pieces if s.id == sub_a]
            if not owners:
                raise ValidationError(
                    f"piece {pid}: splitting identification names unknown part {sub_a}"
                )
            spec_a = spec_by_id[owners[0]]
            handle = spec_a.boundary(bdry_a).handle
            if handle is None:
                raise ValidationError(
                    f"piece {pid}: splitting identification on toroidal boundary "
                    f"{sub_a}:{bdry_a}"
                )
            idents.append(
                Identification(
                    f"{pid}/{sub_a}",
                    bdry_a,
                    f"{pid}/{sub_b}",
                    bdry_b,
                    SlotMap.from_json(handle, json.loads(map_json)),
                )
            )
    for ident in x.identifications:
        a = slot_map[ident.slot_a]
        b = slot_map[ident.slot_b]
        idents.append(Identification(a[0], a[1], b[0], b[1], ident.map))
    lam = tuple((slot_map[slot], m) for slot, m in x.boundary_markings)
    return GluingGraph(
        manifolds=x.manifolds,
        pieces=tuple(pieces),
        identifications=tuple(idents),
        boundary_markings=lam,
    ).validate()


def _is_exterior_side(x: GluingGraph, slot: Slot) -> bool:
    spec = x.spec_of(slot[0])
    return (
        spec.kind == COMPRESSION_BODY and spec.exterior_boundary().id == slot[1]
    )


def full_and_maximal_decomposition(x: GluingGraph) -> DecompositionResult:
    """Expand every declared splitting, then keep exactly the
    identifications meeting a compression body's exterior boundary; the
    connected groups under the kept identifications are the components."""
    full = _expand_splittings(x)
    kept: list[Identification] = []
    cut: list[Identification] = []
    for ident in full.identifications:
        if _is_exterior_side(full, ident.slot_a) or _is_exterior_side(full, ident.slot_b):
            kept.append(ident)
        else:
            cut.append(ident)

    parent: dict[str, str] = {pid: pid for pid, _ in full.pieces}

    def find(p: str) -> str:
        while parent[p] != p:
            parent[p] = parent[parent[p]]
            p = parent[p]
        return p

    for ident in kept:
        ra, rb = find(ident.piece_a), find(ident.piece_b)
        if ra != rb:
            parent[ra] = rb

    groups: dict[str, list[str]] = {}
    for pid, _ in full.pieces:
        groups.setdefault(find(pid), []).append(pid)
    by_ident: dict[str, list[Identification]] = {root: [] for root in groups}
    for ident in kept:
        by_ident[find(ident.piece_a)].append(ident)

    components = []
    for root in sorted(groups, key=lambda r: min(groups[r])):
        members = tuple(sorted(groups[root]))
        cores = [p for p in members if full.spec_of(p).kind != COMPRESSION_BODY]
        assert len(cores) <= 1, "kept identifications cannot join two cores"
        kind = "compression-of-core" if cores else "compression-body-chain"
        components.append(Component(members, kind, tuple(by_ident[root])))
    return DecompositionResult(full=full, components=tuple(components), cut=tuple(cut))

