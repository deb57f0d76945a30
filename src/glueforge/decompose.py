"""Full and maximal decompositions of a gluing.

The full decomposition replaces every piece by its declared splitting into
a core and compression bodies, none of which splits again.  The maximal
one keeps exactly the identifications that meet a compression body's
exterior boundary; the connected groups under them are its components,
and the other identifications are cut.  Both are pure: they return new
values and never mutate the input graph.  The splitting records live
here with their rules, so a gluing without a splitting compiles neither.
"""

from __future__ import annotations

import json
from typing import Mapping

from .errors import ParseError, ValidationError, clip, json_str
from .gluing import (
    COMPRESSION_BODY,
    DecoratedManifoldSpec,
    GluingGraph,
    Identification,
    Slot,
    SlotMap,
    _glued_chart,
    _json_list,
    _json_slot,
    components,
)
from .record import Record


class SubPiece(Record):
    """Declared sub-piece of a core/compression-body splitting.

    boundaries maps parent boundary ids to the sub-piece's own boundary
    ids; the referenced manifold id resolves within the same manifest.
    """

    id: str
    manifold: str
    boundaries: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        # its part of a split piece p is the piece p/<id>, and a piece id
        # holds no ':'
        if ":" in self.id:
            raise ValidationError(f"sub-piece id {clip(self.id)} contains ':'")

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "manifold": self.manifold,
            "boundaries": {parent: sub for parent, sub in self.boundaries},
        }

    @staticmethod
    def from_json(obj: object) -> "SubPiece":
        if not isinstance(obj, Mapping):
            raise ParseError("sub-piece must be an object")
        try:
            bmap = obj.get("boundaries", {})
            if not isinstance(bmap, Mapping):
                raise ParseError("sub-piece boundaries must be an object")
            return SubPiece(
                json_str(obj["id"], "sub-piece id"),
                json_str(obj["manifold"], "sub-piece manifold"),
                tuple(
                    (json_str(k, "sub-piece boundary"), json_str(v, "sub-piece boundary"))
                    for k, v in bmap.items()
                ),
            )
        except KeyError as exc:
            raise ParseError(f"sub-piece missing field {exc}") from exc


class Splitting(Record):
    """Core/compression-body splitting of one spec: sub-pieces plus the
    internal identifications along the splitting surfaces."""

    pieces: tuple[SubPiece, ...]
    identifications: tuple[tuple[str, str, str, str, str], ...] = ()
    # identification tuples (sub_a, bdry_a, sub_b, bdry_b, map JSON text);
    # `expand_splittings` parses a map against its sub-spec handle once
    # the manifest is known

    def to_json(self) -> dict:
        return {
            "pieces": [p.to_json() for p in self.pieces],
            "identifications": [
                {"a": [pa, ba], "b": [pb, bb], "map": json.loads(m)}
                for pa, ba, pb, bb, m in self.identifications
            ],
        }

    @staticmethod
    def from_json(obj: object) -> "Splitting":
        if not isinstance(obj, Mapping):
            raise ParseError("splitting must be an object")
        pieces = tuple(SubPiece.from_json(p) for p in _json_list(obj, "pieces"))
        idents = []
        for rec in _json_list(obj, "identifications"):
            if not isinstance(rec, Mapping) or "a" not in rec or "b" not in rec:
                raise ParseError("splitting identification needs slots a and b")
            (pa, ba), (pb, bb) = _json_slot(rec, "a"), _json_slot(rec, "b")
            idents.append((pa, ba, pb, bb, json.dumps(rec.get("map"))))
        return Splitting(pieces, tuple(idents))


class Component(Record):
    pieces: tuple[str, ...]
    kind: str
    identifications: tuple[Identification, ...]


class DecompositionResult(Record):
    full: GluingGraph
    components: tuple[Component, ...]
    cut: tuple[Identification, ...]


def expand_splittings(x: GluingGraph) -> GluingGraph:
    """Replace each piece by its declared core/compression-body splitting;
    pieces without metadata stand for themselves.  The home of the
    splitting rules: a `GluingGraph` runs it when it is built (its `full`),
    and the expanded graph passes the check of its own build."""
    spec_by_id = {m.id: m for m in x.manifolds}
    pieces: list[tuple[str, str]] = []
    idents: list[Identification] = []
    # per original piece: boundary id -> (new piece, new boundary)
    slot_map: dict[Slot, Slot] = {}
    # (piece, part, slot) of each part boundary that no parent boundary is on
    unplaced: list[tuple[str, str, Slot]] = []
    for pid, mid in x.pieces:
        spec = x.spec_of(pid)
        split = spec.splitting
        if split is None:
            pieces.append((pid, mid))
            slot_map.update(((pid, b.id), (pid, b.id)) for b in spec.boundaries)
            continue
        parts: dict[str, DecoratedManifoldSpec] = {}
        covered: dict[str, Slot] = {}
        for sub in split.pieces:
            sub_spec = spec_by_id.get(sub.manifold)
            if sub_spec is None:
                raise ValidationError(
                    f"piece {pid}: splitting references unknown manifold {sub.manifold}"
                )
            parts.setdefault(sub.id, sub_spec)
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
                    raise ValidationError(f"piece {pid}: boundary {parent_bdry} split twice")
                if sub_spec.boundary(sub_bdry).toroidal and not spec.boundary(parent_bdry).toroidal:
                    raise ValidationError(
                        f"piece {pid}: splitting places boundary {parent_bdry} on toroidal"
                        f" boundary {sub.id}:{sub_bdry}"
                    )
                if (sub_pid, sub_bdry) in covered.values():
                    raise ValidationError(
                        f"piece {pid}: splitting places two boundaries on {sub.id}:{sub_bdry}"
                    )
                covered[parent_bdry] = (sub_pid, sub_bdry)
            ends = [(sub_pid, b.id) for b in sub_spec.nontoroidal()]
            unplaced += [(pid, sub.id, end) for end in ends if end not in covered.values()]
            # so a full decomposition is full, and the check never recurses
            if sub_spec.splitting is not None:
                raise ValidationError(
                    f"piece {pid}: splitting part {sub.id} is manifold {sub.manifold},"
                    " which declares a splitting of its own"
                )
        for b in spec.nontoroidal():
            if b.id not in covered:
                raise ValidationError(f"piece {pid}: splitting leaves boundary {b.id} unplaced")
            slot_map[(pid, b.id)] = covered[b.id]
        for sub_a, bdry_a, sub_b, bdry_b, map_json in split.identifications:
            referrer = f"piece {pid}: splitting identification"
            chart = _glued_chart(parts, (sub_a, bdry_a), (sub_b, bdry_b), referrer)
            glue = SlotMap.from_json(chart, json.loads(map_json))
            idents.append(Identification(f"{pid}/{sub_a}", bdry_a, f"{pid}/{sub_b}", bdry_b, glue))
    for ident in x.identifications:
        a = slot_map[ident.slot_a]
        b = slot_map[ident.slot_b]
        idents.append(Identification(a[0], a[1], b[0], b[1], ident.map))
    lam = tuple((slot_map[slot], m) for slot, m in x.boundary_markings)
    full = GluingGraph(
        manifolds=x.manifolds,
        pieces=tuple(pieces),
        identifications=tuple(idents),
        boundary_markings=lam,
    )
    # a part boundary glued nowhere inside its splitting would be a free
    # boundary that the split piece does not have
    for pid, part, slot in unplaced:
        if not full.is_buried(slot):
            raise ValidationError(
                f"piece {pid}: splitting leaves part boundary {part}:{slot[1]} unplaced and unglued"
            )
    return full


def _is_exterior_side(x: GluingGraph, slot: Slot) -> bool:
    spec = x.spec_of(slot[0])
    return spec.kind == COMPRESSION_BODY and spec.exterior_boundary().id == slot[1]


def full_and_maximal_decomposition(x: GluingGraph) -> DecompositionResult:
    """Expand every declared splitting, then keep exactly the
    identifications meeting a compression body's exterior boundary; the
    connected groups under the kept identifications are the components."""
    full = x.full
    kept: list[Identification] = []
    cut: list[Identification] = []
    for ident in full.identifications:
        if _is_exterior_side(full, ident.slot_a) or _is_exterior_side(full, ident.slot_b):
            kept.append(ident)
        else:
            cut.append(ident)

    groups = components([pid for pid, _ in full.pieces], ((i.piece_a, i.piece_b) for i in kept))
    group_of = {pid: k for k, group in enumerate(groups) for pid in group}
    by_group: list[list[Identification]] = [[] for _ in groups]
    for ident in kept:
        by_group[group_of[ident.piece_a]].append(ident)

    out = []
    for group, idents in sorted(zip(groups, by_group), key=lambda g: min(g[0])):
        members = tuple(sorted(group))
        cores = [p for p in members if full.spec_of(p).kind != COMPRESSION_BODY]
        assert len(cores) <= 1, "kept identifications cannot join two cores"
        kind = "compression-of-core" if cores else "compression-body-chain"
        out.append(Component(members, kind, tuple(idents)))
    return DecompositionResult(full=full, components=tuple(out), cut=tuple(cut))
