"""Decorated manifolds, gluing graphs, induced markings and heights.

A decorated manifold is described purely through its boundary data: each
non-toroidal boundary component carries a backend handle, a decoration
marking, an optional meridian disk set, and flags.  Pieces of a gluing are
copies of such specs, and identifications pair boundary slots through
orientation-reversing chart maps.  The induced markings are nu = Psi(mu)
on buried slots (or the supplied boundary marking on unburied ones), and
a slot's height is the marking distance d(mu, nu).  `slot_measures` takes
each slot's numbers once: its height, the subsurface-projection maximum
between mu and nu, and on a compressible slot the meridian distance
d(nu, disks).  `certify` compares them with R in clauses a and b, and
`transforms` reads them for `r_prime`, the least R passing both.
`components` is the package's one connected-component search: validation,
collapse's bundle chains and the maximal decomposition group pieces by it.
"""

from __future__ import annotations

from functools import cached_property
import json
from typing import TYPE_CHECKING, Iterable, Mapping, NoReturn, Sequence

from .errors import BackendMismatchError, ParseError, ValidationError, clip, json_int, json_str
from .ioutil import canonical_dumps, sha256_of_text
from .record import Record
from .surface import (
    AbstractMarking,
    BackendHandle,
    DiskSet,
    ProjectionResult,
    disk_distance,
    marking_distance,
    sup_projection,
)

if TYPE_CHECKING:  # only the torus branches of SlotMap load the torus layer
    from .torus import SurfaceMap

GENERIC = "generic"
TRIVIAL_IBUNDLE = "trivial-I-bundle"
TWISTED_IBUNDLE = "twisted-I-bundle"
COMPRESSION_BODY = "compression-body"
KINDS = (GENERIC, TRIVIAL_IBUNDLE, TWISTED_IBUNDLE, COMPRESSION_BODY)

Slot = tuple[str, str]


def _slot_name(slot: Slot) -> str:
    return f"{slot[0]}:{slot[1]}"


def components(nodes: Sequence[str], pairs: Iterable[tuple[str, str]]) -> list[list[str]]:
    """The connected components of the graph on nodes whose edges are
    pairs, in node order: each lists its nodes in node order, and they
    come in the order of their first nodes."""
    adjacency: dict[str, list[str]] = {n: [] for n in nodes}
    for a, b in pairs:
        adjacency[a].append(b)
        adjacency[b].append(a)
    root: dict[str, str] = {}
    for start in nodes:
        if start in root:
            continue
        root[start] = start
        frontier = [start]
        while frontier:
            for nxt in adjacency[frontier.pop()]:
                if nxt not in root:
                    root[nxt] = start
                    frontier.append(nxt)
    out: dict[str, list[str]] = {}
    for n in nodes:
        out.setdefault(root[n], []).append(n)
    return list(out.values())


def _json_list(obj: Mapping, key: str) -> Sequence:
    """The array under key, empty when absent; any other value is malformed."""
    value = obj.get(key, [])
    if not isinstance(value, (list, tuple)):
        raise ParseError(f"{key} must be a list, not {type(value).__name__}")
    return value


def _json_slot(rec: Mapping, key: str) -> Slot:
    """The [piece, boundary] pair of strings under key; any other value is
    malformed."""
    value = rec[key]
    if not (isinstance(value, (list, tuple)) and len(value) == 2):
        raise ParseError(f"slot {key} must be a [piece, boundary] pair, not {clip(value)}")
    return json_str(value[0], f"slot {key} piece"), json_str(value[1], f"slot {key} boundary")


def _json_bool(obj: Mapping, key: str, default: bool) -> bool:
    """The JSON true or false under key, default when absent; any other
    value, such as the string "false", is malformed."""
    value = obj.get(key, default)
    if not isinstance(value, bool):
        raise ParseError(f"{key} must be true or false, not {clip(value)}")
    return value


class SlotMap(Record):
    """Chart translation between boundary slots.

    Exact backend: an integer mapping class acting on slopes.  Graph
    backend: a distance-preserving vertex bijection with a declared
    orientation flag (graphs carry no orientation of their own, so the
    flag is bookkeeping supplied by the input data).
    """

    handle: BackendHandle
    matrix: SurfaceMap | None = None
    perm: tuple[int, ...] | None = None
    graph_reversing: bool = True

    def __post_init__(self) -> None:
        if self.handle.is_torus:
            if self.matrix is None or self.perm is not None:
                raise ValidationError("torus slot map needs a matrix and no permutation")
        else:
            if self.perm is None or self.matrix is not None:
                raise ValidationError("graph slot map needs a permutation and no matrix")
            perm = tuple(map(int, self.perm))
            self.handle.graph.check_automorphism(perm)
            object.__setattr__(self, "perm", perm)

    @staticmethod
    def identity(handle: BackendHandle) -> "SlotMap":
        if handle.is_torus:
            from .torus import SurfaceMap

            return SlotMap(handle, matrix=SurfaceMap(1, 0, 0, 1))
        assert handle.graph is not None
        return SlotMap(handle, perm=tuple(range(handle.graph.vertex_count)), graph_reversing=False)

    @property
    def reversing(self) -> bool:
        """Orientation-reversing: exact on the torus, declared on graphs."""
        if self.matrix is not None:
            return self.matrix.det == -1
        return self.graph_reversing

    def apply(self, m: AbstractMarking) -> AbstractMarking:
        if m.handle != self.handle:
            raise BackendMismatchError("marking does not live on this map's backend")
        if self.matrix is not None:
            return AbstractMarking(m.handle, self.matrix.on_marking(m.payload))
        # the constructor checked the permutation
        assert self.perm is not None
        return AbstractMarking(m.handle, tuple(self.perm[v] for v in m.payload))

    def inverse(self) -> "SlotMap":
        if self.matrix is not None:
            return SlotMap(self.handle, matrix=self.matrix.inverse())
        assert self.perm is not None
        inv = [0] * len(self.perm)
        for i, v in enumerate(self.perm):
            inv[v] = i
        return SlotMap(self.handle, perm=tuple(inv), graph_reversing=self.graph_reversing)

    def compose(self, other: "SlotMap") -> "SlotMap":
        """self after other."""
        if self.handle != other.handle:
            raise BackendMismatchError("composing slot maps across backends")
        if self.matrix is not None and other.matrix is not None:
            return SlotMap(self.handle, matrix=self.matrix @ other.matrix)
        assert self.perm is not None and other.perm is not None
        return SlotMap(
            self.handle,
            perm=tuple(self.perm[v] for v in other.perm),
            graph_reversing=self.graph_reversing != other.graph_reversing,
        )

    def is_involution(self) -> bool:
        if self.matrix is not None:
            return self.matrix.is_involution()
        assert self.perm is not None
        return all(self.perm[v] == i for i, v in enumerate(self.perm))

    def to_json(self) -> object:
        if self.matrix is not None:
            return self.matrix.to_json()
        return {"perm": list(self.perm or ()), "reverses_orientation": self.graph_reversing}

    @staticmethod
    def from_json(handle: BackendHandle, obj: object) -> "SlotMap":
        if handle.is_torus:
            from .torus import SurfaceMap

            return SlotMap(handle, matrix=SurfaceMap.from_json(obj))
        if not isinstance(obj, Mapping) or "perm" not in obj:
            raise ParseError(f"graph slot map must declare a perm, got {clip(obj)}")
        try:
            perm = tuple(json_int(v) for v in obj["perm"])  # type: ignore[index]
        except TypeError as exc:
            raise ParseError(f"bad permutation in slot map: {exc}") from exc
        reversing = _json_bool(obj, "reverses_orientation", True)
        try:
            return SlotMap(handle, perm=perm, graph_reversing=reversing)
        except ValidationError as exc:
            raise ParseError(str(exc)) from exc


class BoundarySpec(Record):
    """One boundary component: identity, chart backend, decoration, flags.

    Toroidal components carry no marking data and can never be glued.  The
    disk set is non-empty exactly when the component is flagged
    compressible.
    """

    id: str
    handle: BackendHandle | None = None
    decoration: AbstractMarking | None = None
    compressible: bool = False
    disks: DiskSet | None = None
    toroidal: bool = False

    def __post_init__(self) -> None:
        if self.toroidal:
            if self.handle is not None or self.decoration is not None:
                raise ValidationError(f"toroidal boundary {self.id} cannot carry a chart")
            if self.compressible or (self.disks is not None and not self.disks.is_empty):
                raise ValidationError(f"toroidal boundary {self.id} cannot be compressible")
            return
        if self.handle is None or self.decoration is None:
            raise ValidationError(f"boundary {self.id} needs a backend and a decoration")
        if self.decoration.handle != self.handle:
            raise ValidationError(f"decoration on {self.id} lives on the wrong backend")
        disks = self.disks
        if disks is None:
            disks = DiskSet(self.handle, (), owner=self.id)
            object.__setattr__(self, "disks", disks)
        elif disks.handle != self.handle:
            raise ValidationError(f"disk set on {self.id} lives on the wrong backend")
        if self.compressible != (not disks.is_empty):
            raise ValidationError(
                f"boundary {self.id}: disk set must be non-empty iff compressible"
            )

    def to_json(self) -> dict:
        if self.toroidal:
            return {"id": self.id, "toroidal": True}
        assert self.handle is not None and self.decoration is not None
        out: dict = {
            "id": self.id,
            "backend": self.handle.to_json(),
            "decoration": self.decoration.to_json(),
        }
        if self.compressible:
            out["compressible"] = True
        assert self.disks is not None
        if not self.disks.is_empty:
            out["disks"] = self.disks.to_json()
        return out

    @staticmethod
    def from_json(obj: object, graphs: dict | None = None) -> "BoundarySpec":
        if not isinstance(obj, Mapping) or "id" not in obj:
            raise ParseError("boundary spec must be an object with an id")
        bid = json_str(obj["id"], "boundary id")
        if _json_bool(obj, "toroidal", False):
            return BoundarySpec(bid, toroidal=True)
        if "backend" not in obj or "decoration" not in obj:
            raise ParseError(f"boundary {bid} needs backend and decoration")
        handle = BackendHandle.from_json(obj["backend"], graphs)
        decoration = AbstractMarking.from_json(handle, obj["decoration"])
        disks = DiskSet.from_json(handle, obj.get("disks", []), owner=bid)
        # semantic rules (such as the compressible/disk-set pairing) keep
        # their own error type so callers can tell them from parse noise
        return BoundarySpec(
            bid,
            handle=handle,
            decoration=decoration,
            compressible=_json_bool(obj, "compressible", False),
            disks=disks,
        )


class SubPiece(Record):
    """Declared sub-piece of a core/compression-body splitting.

    boundaries maps parent boundary ids to the sub-piece's own boundary
    ids; the referenced manifold id resolves within the same manifest.
    """

    id: str
    manifold: str
    boundaries: tuple[tuple[str, str], ...] = ()

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


class CoverData(Record):
    """Declared double cover of a twisted bundle: the product bundle's two
    decorations, the two boundary lifts, and the endpoint exchange."""

    mu0: AbstractMarking
    mu1: AbstractMarking
    lift0: SlotMap
    lift1: SlotMap
    phi: SlotMap

    @staticmethod
    def from_json(handle: BackendHandle, obj: object) -> "CoverData":
        if not isinstance(obj, Mapping):
            raise ParseError("cover data must be an object")
        try:
            return CoverData(
                AbstractMarking.from_json(handle, obj["mu0"]),
                AbstractMarking.from_json(handle, obj["mu1"]),
                SlotMap.from_json(handle, obj["lift0"]),
                SlotMap.from_json(handle, obj["lift1"]),
                SlotMap.from_json(handle, obj["phi"]),
            )
        except KeyError as exc:
            raise ParseError(f"cover data missing field {exc}") from exc


class Identification(Record):
    """One boundary identification; the map pushes a-side data into the
    b-side chart.  Listed once; the inverse direction is synthesized."""

    piece_a: str
    bdry_a: str
    piece_b: str
    bdry_b: str
    map: SlotMap

    @property
    def slot_a(self) -> Slot:
        return (self.piece_a, self.bdry_a)

    @property
    def slot_b(self) -> Slot:
        return (self.piece_b, self.bdry_b)

    def to_json(self) -> dict:
        return {
            "a": [self.piece_a, self.bdry_a],
            "b": [self.piece_b, self.bdry_b],
            "map": self.map.to_json(),
        }


class Splitting(Record):
    """Core/compression-body splitting of one spec: sub-pieces plus the
    internal identifications along the splitting surfaces."""

    pieces: tuple[SubPiece, ...]
    identifications: tuple[tuple[str, str, str, str, str], ...] = ()
    # identification tuples (sub_a, bdry_a, sub_b, bdry_b, map JSON text);
    # `decompose` parses a map against its sub-spec handle once the
    # manifest is known

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


class DecoratedManifoldSpec(Record):
    """A decorated manifold, as the boundary data the engine consumes.

    kind constrains the boundary pattern: a trivial interval bundle has
    exactly two non-toroidal boundaries over one backend plus the endpoint
    exchange map; a twisted bundle has one, with the exchange acting as an
    orientation-reversing involution of that single chart; a compression
    body has exactly one compressible (exterior) boundary.  Essential disk
    and annulus footprints are declared records, not derived topology.
    """

    id: str
    kind: str
    boundaries: tuple[BoundarySpec, ...]
    disk_records: tuple[tuple[str, ...], ...] = ()
    annulus_records: tuple[tuple[str, ...], ...] = ()
    bundle_map: SlotMap | None = None
    cover: CoverData | None = None
    splitting: Splitting | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValidationError(f"unknown manifold kind {clip(self.kind)}")
        ids = [b.id for b in self.boundaries]
        if len(set(ids)) != len(ids):
            raise ValidationError(f"manifold {self.id} repeats a boundary id")
        nontoroidal = self.nontoroidal()
        if not nontoroidal:
            raise ValidationError(f"manifold {self.id} needs a non-toroidal boundary")
        for record in self.disk_records + self.annulus_records:
            for bid in record:
                if bid not in ids:
                    raise ValidationError(
                        f"manifold {self.id}: record references unknown boundary {bid}"
                    )
        if self.kind == TRIVIAL_IBUNDLE:
            self._check_trivial_bundle(nontoroidal)
        elif self.kind == TWISTED_IBUNDLE:
            self._check_twisted_bundle(nontoroidal)
        elif self.kind == COMPRESSION_BODY:
            self._check_compression_body(nontoroidal)
        elif self.bundle_map is not None:
            raise ValidationError(f"manifold {self.id}: only bundles carry an exchange map")

    def _check_trivial_bundle(self, nontoroidal: tuple[BoundarySpec, ...]) -> None:
        if len(nontoroidal) != 2:
            raise ValidationError(
                f"trivial bundle {self.id} needs exactly two non-toroidal boundaries"
            )
        e0, e1 = nontoroidal
        if e0.handle != e1.handle:
            raise ValidationError(f"trivial bundle {self.id} spans two backends")
        if any(b.compressible for b in nontoroidal):
            raise ValidationError(f"bundle {self.id} boundaries are incompressible")
        if self.bundle_map is None or self.bundle_map.handle != e0.handle:
            raise ValidationError(f"trivial bundle {self.id} needs an exchange map")
        if not self.bundle_map.reversing:
            raise ValidationError(f"bundle {self.id}: exchange map must reverse orientation")

    def _check_twisted_bundle(self, nontoroidal: tuple[BoundarySpec, ...]) -> None:
        if len(nontoroidal) != 1:
            raise ValidationError(
                f"twisted bundle {self.id} needs exactly one non-toroidal boundary"
            )
        e0 = nontoroidal[0]
        if e0.compressible:
            raise ValidationError(f"bundle {self.id} boundaries are incompressible")
        if self.bundle_map is None or self.bundle_map.handle != e0.handle:
            raise ValidationError(f"twisted bundle {self.id} needs an exchange map")
        if not self.bundle_map.reversing or not self.bundle_map.is_involution():
            raise ValidationError(
                f"twisted bundle {self.id}: exchange map must be an"
                " orientation-reversing involution"
            )

    def _check_compression_body(self, nontoroidal: tuple[BoundarySpec, ...]) -> None:
        exteriors = [b for b in nontoroidal if b.compressible]
        if len(exteriors) != 1:
            raise ValidationError(
                f"compression body {self.id} needs exactly one compressible"
                " exterior boundary"
            )

    def nontoroidal(self) -> tuple[BoundarySpec, ...]:
        return tuple(b for b in self.boundaries if not b.toroidal)

    def boundary(self, bid: str) -> BoundarySpec:
        for b in self.boundaries:
            if b.id == bid:
                return b
        raise ValidationError(f"manifold {self.id} has no boundary {bid}")

    def has_boundary(self, bid: str) -> bool:
        return any(b.id == bid for b in self.boundaries)

    def exterior_boundary(self) -> BoundarySpec:
        """The unique compressible boundary of a compression body."""
        if self.kind != COMPRESSION_BODY:
            raise ValidationError(f"manifold {self.id} is not a compression body")
        return next(b for b in self.nontoroidal() if b.compressible)

    @property
    def is_bundle(self) -> bool:
        return self.kind in (TRIVIAL_IBUNDLE, TWISTED_IBUNDLE)

    def to_json(self) -> dict:
        out: dict = {
            "id": self.id,
            "kind": self.kind,
            "boundaries": [b.to_json() for b in self.boundaries],
        }
        if self.disk_records:
            out["disk_records"] = [list(r) for r in self.disk_records]
        if self.annulus_records:
            out["annulus_records"] = [list(r) for r in self.annulus_records]
        if self.bundle_map is not None:
            out["bundle_map"] = self.bundle_map.to_json()
        if self.cover is not None:
            out["cover"] = self.cover.to_json()
        if self.splitting is not None:
            out["splitting"] = self.splitting.to_json()
        return out

    @staticmethod
    def from_json(obj: object, graphs: dict | None = None) -> "DecoratedManifoldSpec":
        if not isinstance(obj, Mapping) or "id" not in obj or "kind" not in obj:
            raise ParseError("manifold spec must declare an id and a kind")
        boundaries = tuple(
            BoundarySpec.from_json(b, graphs) for b in _json_list(obj, "boundaries")
        )
        bundle_map = None
        cover = None
        chart = next((b.handle for b in boundaries if b.handle is not None), None)
        if "bundle_map" in obj:
            if chart is None:
                raise ParseError("bundle map without a charted boundary")
            bundle_map = SlotMap.from_json(chart, obj["bundle_map"])
        if "cover" in obj:
            if chart is None:
                raise ParseError("cover data without a charted boundary")
            cover = CoverData.from_json(chart, obj["cover"])
        splitting = None
        if "splitting" in obj:
            splitting = Splitting.from_json(obj["splitting"])

        def records(key: str) -> tuple[tuple[str, ...], ...]:
            entries = _json_list(obj, key)
            if not all(isinstance(r, (list, tuple)) for r in entries):
                raise ParseError(f"{key} must be lists of boundary ids")
            return tuple(tuple(json_str(b, f"{key} boundary") for b in r) for r in entries)

        try:
            return DecoratedManifoldSpec(
                json_str(obj["id"], "manifold id"),
                json_str(obj["kind"], "manifold kind"),
                boundaries,
                records("disk_records"),
                records("annulus_records"),
                bundle_map,
                cover,
                splitting,
            )
        except ValidationError as exc:
            raise ParseError(str(exc)) from exc


class GluingGraph(Record):
    """Pieces (copies of specs) plus boundary identifications and the
    optional marking on unburied slots.

    The identification list holds each pairing once; the slot involution
    treats the synthesized inverse as the other direction.  A slot
    identified with itself encodes a twisted quotient and is legal exactly
    when its map is an orientation-reversing involution.
    """

    manifolds: tuple[DecoratedManifoldSpec, ...]
    pieces: tuple[tuple[str, str], ...]
    identifications: tuple[Identification, ...]
    boundary_markings: tuple[tuple[Slot, AbstractMarking], ...] = ()

    @cached_property
    def _specs(self) -> dict[str, DecoratedManifoldSpec]:
        return {m.id: m for m in self.manifolds}

    @cached_property
    def _piece_spec(self) -> dict[str, DecoratedManifoldSpec]:
        out = {}
        for pid, mid in self.pieces:
            spec = self._specs.get(mid)
            if spec is None:
                raise ValidationError(f"piece {pid} references unknown manifold {mid}")
            out[pid] = spec
        return out

    @cached_property
    def _psi(self) -> dict[Slot, tuple[Slot, SlotMap]]:
        """slot -> (paired slot, map pushing the paired slot's data here)."""
        out: dict[Slot, tuple[Slot, SlotMap]] = {}
        for ident in self.identifications:
            a, b = ident.slot_a, ident.slot_b
            if a == b:
                out[a] = (a, ident.map)
            else:
                out[b] = (a, ident.map)
                out[a] = (b, ident.map.inverse())
        return out

    @cached_property
    def _lambda(self) -> dict[Slot, AbstractMarking]:
        return {slot: m for slot, m in self.boundary_markings}

    def spec_of(self, piece: str) -> DecoratedManifoldSpec:
        spec = self._piece_spec.get(piece)
        if spec is None:
            raise ValidationError(f"unknown piece {piece}")
        return spec

    def slots(self) -> tuple[Slot, ...]:
        """All non-toroidal boundary slots in piece-then-boundary order."""
        out = []
        for pid, _ in self.pieces:
            for b in self.spec_of(pid).nontoroidal():
                out.append((pid, b.id))
        return tuple(out)

    def boundary_of(self, slot: Slot) -> BoundarySpec:
        return self.spec_of(slot[0]).boundary(slot[1])

    def decoration(self, slot: Slot) -> AbstractMarking:
        dec = self.boundary_of(slot).decoration
        if dec is None:
            raise ValidationError(f"slot {_slot_name(slot)} carries no decoration")
        return dec

    def is_buried(self, slot: Slot) -> bool:
        return slot in self._psi

    def psi(self, slot: Slot) -> tuple[Slot, SlotMap]:
        """The paired slot and the chart map pushing its data onto slot."""
        try:
            return self._psi[slot]
        except KeyError:
            raise ValidationError(f"slot {_slot_name(slot)} is unburied") from None

    def lam(self, slot: Slot) -> AbstractMarking | None:
        return self._lambda.get(slot)

    # -- validation ------------------------------------------------------

    def __post_init__(self) -> None:
        """Check every structural invariant, the splitting that each
        piece's spec declares included: a graph is sound once it exists."""
        mids = [m.id for m in self.manifolds]
        if len(set(mids)) != len(mids):
            raise ValidationError("duplicate manifold id")
        pids = [pid for pid, _ in self.pieces]
        if len(set(pids)) != len(pids):
            raise ValidationError("duplicate piece id")
        if not self.pieces:
            raise ValidationError("gluing needs at least one piece")
        valid = set(self.slots())  # raises on dangling manifold references
        seen: set[Slot] = set()
        for ident in self.identifications:
            for slot in (ident.slot_a, ident.slot_b):
                if slot not in valid:
                    piece = slot[0]
                    if piece in self._piece_spec and self.spec_of(piece).has_boundary(slot[1]):
                        raise ValidationError(
                            f"identification on toroidal boundary {_slot_name(slot)}"
                        )
                    raise ValidationError(
                        f"identification references unknown slot {_slot_name(slot)}"
                    )
            a, b = ident.slot_a, ident.slot_b
            if a == b:
                if not (ident.map.reversing and ident.map.is_involution()):
                    raise ValidationError(
                        f"fixed point: self-identification on {_slot_name(a)} needs an"
                        " orientation-reversing involution"
                    )
                if a in seen:
                    raise ValidationError(
                        f"non-involutive identifications: slot {_slot_name(a)} used twice"
                    )
                seen.add(a)
            else:
                for slot in (a, b):
                    if slot in seen:
                        raise ValidationError(
                            f"non-involutive identifications: slot {_slot_name(slot)}"
                            " used twice"
                        )
                    seen.add(slot)
            ha = self.boundary_of(a).handle
            hb = self.boundary_of(b).handle
            if ha != hb:
                raise BackendMismatchError(
                    f"identified slots {_slot_name(a)} and {_slot_name(b)} live on"
                    " different backends"
                )
            if ident.map.handle != ha:
                raise ValidationError(
                    f"identification map on {_slot_name(a)} lives on the wrong backend"
                )
            if not ident.map.reversing:
                raise ValidationError(
                    f"gluing map {_slot_name(a)} -> {_slot_name(b)} must reverse"
                    " orientation"
                )
        for slot, marking in self.boundary_markings:
            if slot not in valid:
                raise ValidationError(
                    f"boundary marking on unknown slot {_slot_name(slot)}"
                )
            if slot in self._psi:
                raise ValidationError(
                    f"boundary marking on buried slot {_slot_name(slot)}"
                )
            if marking.handle != self.boundary_of(slot).handle:
                raise ValidationError(
                    f"boundary marking on {_slot_name(slot)} lives on the wrong backend"
                )
        lam_slots = [slot for slot, _ in self.boundary_markings]
        if len(set(lam_slots)) != len(lam_slots):
            raise ValidationError("duplicate boundary marking")
        groups = components(pids, ((i.piece_a, i.piece_b) for i in self.identifications))
        if len(groups) > 1:
            raise ValidationError(f"disconnected: piece {groups[1][0]} unreachable")
        self.full  # checks each declared splitting

    def validate(self) -> "GluingGraph":
        """Self: a graph was checked when it was built."""
        return self

    @cached_property
    def full(self) -> "GluingGraph":
        """Each split piece replaced by its parts (`decompose.expand_splittings`)."""
        if all(spec.splitting is None for spec in self._piece_spec.values()):
            return self
        from .decompose import expand_splittings  # only a split gluing loads it

        return expand_splittings(self)

    # -- serialization ---------------------------------------------------

    def to_json(self) -> dict:
        out: dict = {
            "manifolds": [m.to_json() for m in self.manifolds],
            "pieces": [{"id": pid, "manifold": mid} for pid, mid in self.pieces],
            "identifications": [i.to_json() for i in self.identifications],
        }
        if self.boundary_markings:
            out["lambda"] = {
                _slot_name(slot): m.to_json() for slot, m in self.boundary_markings
            }
        return out

    @staticmethod
    def from_json(obj: object) -> "GluingGraph":
        if not isinstance(obj, Mapping):
            raise ParseError("gluing spec must be a JSON object")
        # each distinct graph backend declaration is parsed once per file
        graphs: dict = {}
        manifolds = tuple(
            DecoratedManifoldSpec.from_json(m, graphs) for m in _json_list(obj, "manifolds")
        )
        specs = {m.id: m for m in manifolds}
        pieces = []
        for p in _json_list(obj, "pieces"):
            if not isinstance(p, Mapping) or "id" not in p or "manifold" not in p:
                raise ParseError("piece entry needs an id and a manifold")
            pieces.append((json_str(p["id"], "piece id"), json_str(p["manifold"], "piece manifold")))
        piece_spec = {pid: specs.get(mid) for pid, mid in pieces}

        def slot_handle(pid: str, bid: str, field: str) -> BackendHandle:
            spec = piece_spec.get(pid)
            if spec is None:
                raise ParseError(f"{field} references unknown piece {pid}")
            for b in spec.boundaries:
                if b.id == bid and b.handle is not None:
                    return b.handle
            raise ParseError(f"{field} references unknown slot {pid}:{bid}")

        idents = []
        for rec in _json_list(obj, "identifications"):
            if not isinstance(rec, Mapping) or not {"a", "b", "map"} <= rec.keys():
                raise ParseError("identification needs slots a and b and a map")
            (pa, ba), (pb, bb) = _json_slot(rec, "a"), _json_slot(rec, "b")
            handle = slot_handle(pa, ba, "identification")
            idents.append(Identification(pa, ba, pb, bb, SlotMap.from_json(handle, rec["map"])))
        lam = []
        lam_obj = obj.get("lambda", {})
        if not isinstance(lam_obj, Mapping):
            raise ParseError("lambda must be an object")
        for key, mjson in lam_obj.items():
            if ":" not in key:
                raise ParseError(f"lambda key {clip(key)} is not piece:boundary")
            pid, bid = key.split(":", 1)
            handle = slot_handle(pid, bid, "lambda")
            lam.append(((pid, bid), AbstractMarking.from_json(handle, mjson)))
        return GluingGraph(manifolds, tuple(pieces), tuple(idents), tuple(lam))

    def canonical_json(self) -> str:
        return canonical_dumps(self.to_json())

    def content_hash(self) -> str:
        return sha256_of_text(self.canonical_json())


# No field of the schema is a float: a number with a fraction or an
# exponent is refused while the text is decoded, so no parser truncates it
# or meets an infinity.
def _no_float(text: str) -> NoReturn:
    raise ParseError(f"malformed gluing spec: number {clip(text)} is not an integer")


def _no_constant(text: str) -> NoReturn:
    raise ParseError(f"malformed gluing spec: {text} is not a number")


def validate_gluing(source: str | Mapping) -> GluingGraph:
    """Parse a gluing spec, given as JSON text or as its decoded mapping,
    and check every structural invariant; returns the canonical in-memory
    graph."""
    if isinstance(source, Mapping):
        return GluingGraph.from_json(source)
    if not isinstance(source, str):
        raise ParseError(f"cannot read a gluing spec from {type(source).__name__}")
    try:
        obj = json.loads(source, parse_float=_no_float, parse_constant=_no_constant)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed gluing spec: {exc}") from exc
    except RecursionError as exc:
        raise ParseError("malformed gluing spec: arrays or objects nest too deeply") from exc
    return GluingGraph.from_json(obj)


# -- induced markings, heights and slot measures ------------------------


def induced_markings(x: GluingGraph) -> dict[Slot, AbstractMarking | None]:
    """nu per slot: the pushed decoration of the paired slot on buried
    slots, the supplied boundary marking on unburied ones, else None."""
    nu: dict[Slot, AbstractMarking | None] = {}
    for slot in x.slots():
        if x.is_buried(slot):
            other, chart = x.psi(slot)
            nu[slot] = chart.apply(x.decoration(other))
        else:
            nu[slot] = x.lam(slot)
    return nu


def heights(
    x: GluingGraph, nu: dict[Slot, AbstractMarking | None] | None = None
) -> dict[Slot, int | None]:
    """Per-slot height d(mu, nu), None where nu is; both directions of each
    identification are reported through its two slots."""
    if nu is None:
        nu = induced_markings(x)
    return {
        slot: None if m is None else marking_distance(x.decoration(slot), m)
        for slot, m in nu.items()
    }


class SlotMeasure(Record):
    """What bounded combinatorics compares with R on a slot with a marking
    nu: its height d(mu, nu), the subsurface-projection maximum between mu
    and nu (clause a), and on a compressible slot the meridian distance
    d(nu, disks) (clause b: height <= disk_distance + R), else None."""

    height: int
    projection: ProjectionResult
    disk_distance: int | None

    @property
    def excess(self) -> int | None:
        """height - d(nu, disks): clause b holds exactly when R >= excess."""
        return None if self.disk_distance is None else self.height - self.disk_distance

    @property
    def least_r(self) -> int:
        """The least R at which clauses a and b hold on this slot."""
        value, excess = self.projection.value, self.excess
        return value if excess is None else max(value, excess)


def slot_measures(
    x: GluingGraph,
    nu: dict[Slot, AbstractMarking | None] | None = None,
    denom_bound: int | None = None,
) -> dict[Slot, SlotMeasure]:
    """The measure of every slot whose nu is not None, in slot order; the
    projection search takes denom_bound as `surface.sup_projection` does."""
    if nu is None:
        nu = induced_markings(x)
    out: dict[Slot, SlotMeasure] = {}
    for slot, height in heights(x, nu).items():
        if height is None:
            continue
        m, boundary = nu[slot], x.boundary_of(slot)
        assert m is not None and boundary.disks is not None
        dd = disk_distance(m, boundary.disks) if boundary.compressible else None
        out[slot] = SlotMeasure(height, sup_projection(x.decoration(slot), m, denom_bound), dd)
    return out
