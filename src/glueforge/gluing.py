"""Decorated manifolds, gluing graphs and induced markings.

A decorated manifold is described purely through its boundary data: each
non-toroidal boundary component carries a backend handle, a decoration
marking, an optional meridian disk set, and flags.  Pieces of a gluing are
copies of such specs, and identifications pair boundary slots through
orientation-reversing chart maps.  The induced markings are nu = Psi(mu)
on buried slots (or the supplied boundary marking on unburied ones), and
a slot's height is the marking distance d(mu, nu) (`measures`).
`components` is the package's one connected-component search: validation,
collapse's bundle chains and the maximal decomposition group pieces by it.
"""

from __future__ import annotations

from functools import cached_property
import json
from typing import TYPE_CHECKING, Iterable, Mapping, NoReturn, Sequence

from .errors import BackendMismatchError, ParseError, ValidationError, clip, json_bool, json_str
from .record import Record
from .surface import AbstractMarking, BackendHandle, DiskSet

if TYPE_CHECKING:
    from .decompose import Splitting  # only a declared splitting loads it
    from .torus import SurfaceMap  # only a torus backend loads the torus layer

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


class SlotMap(Record):
    """Chart translation between boundary slots, checked and run by its
    backend: an integer mapping class acting on slopes on the torus (the
    matrix), a distance-preserving vertex bijection on a graph (the perm)
    with a declared orientation flag, since graphs carry no orientation of
    their own."""

    handle: BackendHandle
    matrix: SurfaceMap | None = None
    perm: tuple[int, ...] | None = None
    graph_reversing: bool = True

    def __post_init__(self) -> None:
        self.handle.check_map(self)

    @property
    def reversing(self) -> bool:
        """Orientation-reversing: exact on the torus, declared on graphs."""
        return self.handle.map_reverses(self)

    def apply(self, m: AbstractMarking) -> AbstractMarking:
        if m.handle != self.handle:
            raise BackendMismatchError("marking does not live on this map's backend")
        return AbstractMarking(m.handle, self.handle.apply_map(self, m.payload))

    def inverse(self) -> "SlotMap":
        return self.handle.invert_map(self)

    def compose(self, other: "SlotMap") -> "SlotMap":
        """self after other."""
        if self.handle != other.handle:
            raise BackendMismatchError("composing slot maps across backends")
        return self.handle.compose_maps(self, other)

    def is_involution(self) -> bool:
        return self.handle.map_is_involution(self)

    def to_json(self) -> object:
        return self.handle.map_to_json(self)

    @staticmethod
    def from_json(handle: BackendHandle, obj: object) -> "SlotMap":
        return handle.map_from_json(obj)


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
            disks = DiskSet(self.handle, ())
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
    def from_json(obj: object, graphs: dict) -> "BoundarySpec":
        if not isinstance(obj, Mapping) or "id" not in obj:
            raise ParseError("boundary spec must be an object with an id")
        bid = json_str(obj["id"], "boundary id")
        toroidal = json_bool(obj, "toroidal", False)
        if not toroidal and ("backend" not in obj or "decoration" not in obj):
            raise ParseError(f"boundary {bid} needs backend and decoration")
        compressible = json_bool(obj, "compressible", False)
        if "backend" not in obj:
            # a toroidal boundary has no chart to read a decoration or
            # meridians in: the constructor refuses a declared decoration
            # unread, and declared meridians as compressibility
            declared = compressible or obj.get("disks", []) != []
            decoration = obj.get("decoration")
            return BoundarySpec(bid, decoration=decoration, compressible=declared, toroidal=True)
        handle = BackendHandle.from_json(obj["backend"], graphs)
        decoration = None
        if "decoration" in obj:  # absent only on a toroidal boundary
            decoration = AbstractMarking.from_json(handle, obj["decoration"])
        return BoundarySpec(
            bid,
            handle=handle,
            decoration=decoration,
            compressible=compressible,
            disks=DiskSet.from_json(handle, obj.get("disks", [])),
            toroidal=toroidal,
        )


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


def _exchange_chart(
    mid: str, kind: str, nontoroidal: Sequence[BoundarySpec]
) -> BackendHandle | None:
    """The chart that a bundle's `bundle_map` and a twisted bundle's `cover`
    are read in: the one backend of a trivial bundle's two boundaries or of
    a twisted bundle's one.  None for every other kind, and for a bundle
    with another count of boundaries."""
    if (kind, len(nontoroidal)) not in ((TRIVIAL_IBUNDLE, 2), (TWISTED_IBUNDLE, 1)):
        return None
    if nontoroidal[-1].handle != nontoroidal[0].handle:
        raise ValidationError(f"trivial bundle {mid} spans two backends")
    return nontoroidal[0].handle


class DecoratedManifoldSpec(Record):
    """A decorated manifold, as the boundary data the engine consumes.

    kind constrains the boundary pattern: a trivial interval bundle has
    exactly two non-toroidal boundaries over one backend plus the endpoint
    exchange map; a twisted bundle has one, with the exchange acting as an
    orientation-reversing involution of that single chart; a compression
    body has exactly one compressible (exterior) boundary.  Only bundles
    carry an exchange map, and only twisted bundles a cover.  Essential
    disk and annulus footprints are declared records, not derived topology.
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
        if self.is_bundle:
            self._check_bundle(nontoroidal)
        elif self.bundle_map is not None:
            raise ValidationError(f"manifold {self.id}: only bundles carry an exchange map")
        elif self.kind == COMPRESSION_BODY and sum(b.compressible for b in nontoroidal) != 1:
            raise ValidationError(
                f"compression body {self.id} needs exactly one compressible exterior boundary"
            )
        if self.cover is not None and self.kind != TWISTED_IBUNDLE:
            raise ValidationError(f"manifold {self.id}: only twisted bundles carry a cover")

    def _check_bundle(self, nontoroidal: tuple[BoundarySpec, ...]) -> None:
        twisted = self.kind == TWISTED_IBUNDLE
        name = f"{'twisted' if twisted else 'trivial'} bundle {self.id}"
        chart = _exchange_chart(self.id, self.kind, nontoroidal)
        if chart is None:
            ends = "one non-toroidal boundary" if twisted else "two non-toroidal boundaries"
            raise ValidationError(f"{name} needs exactly {ends}")
        if any(b.compressible for b in nontoroidal):
            raise ValidationError(f"bundle {self.id} boundaries are incompressible")
        exchange = self.bundle_map
        if exchange is None or exchange.handle != chart:
            raise ValidationError(f"{name} needs an exchange map")
        if twisted and not (exchange.reversing and exchange.is_involution()):
            raise ValidationError(
                f"{name}: exchange map must be an orientation-reversing involution"
            )
        if not exchange.reversing:
            raise ValidationError(f"bundle {self.id}: exchange map must reverse orientation")

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
    def from_json(obj: object, graphs: dict) -> "DecoratedManifoldSpec":
        if not isinstance(obj, Mapping) or "id" not in obj or "kind" not in obj:
            raise ParseError("manifold spec must declare an id and a kind")
        mid = json_str(obj["id"], "manifold id")
        kind = json_str(obj["kind"], "manifold kind")
        boundaries = tuple(
            BoundarySpec.from_json(b, graphs) for b in _json_list(obj, "boundaries")
        )
        # a map is read in the chart of a kind that carries it; a field that
        # the kind does not carry, even null, reaches the constructor unread
        # as its key, and is refused there
        chart = _exchange_chart(mid, kind, [b for b in boundaries if not b.toroidal])

        def declared(key: str, read, carriers: tuple[str, ...]):
            if key not in obj:
                return None
            return read(chart, obj[key]) if chart is not None and kind in carriers else key

        bundle_map = declared("bundle_map", SlotMap.from_json, (TRIVIAL_IBUNDLE, TWISTED_IBUNDLE))
        cover = declared("cover", CoverData.from_json, (TWISTED_IBUNDLE,))
        splitting = None
        if "splitting" in obj:
            from .decompose import Splitting

            splitting = Splitting.from_json(obj["splitting"])

        def records(key: str) -> tuple[tuple[str, ...], ...]:
            entries = _json_list(obj, key)
            if not all(isinstance(r, (list, tuple)) for r in entries):
                raise ParseError(f"{key} must be lists of boundary ids")
            return tuple(tuple(json_str(b, f"{key} boundary") for b in r) for r in entries)

        return DecoratedManifoldSpec(
            mid,
            kind,
            boundaries,
            records("disk_records"),
            records("annulus_records"),
            bundle_map,
            cover,
            splitting,
        )


def _piece_specs(
    manifolds: Sequence[DecoratedManifoldSpec], pieces: Sequence[tuple[str, str]]
) -> dict[str, DecoratedManifoldSpec]:
    """Each piece's spec, once the manifold ids and the piece ids are each
    unique, no piece id holds the `:` that ends the piece part of a slot
    name, and every piece names a manifold."""
    specs = {m.id: m for m in manifolds}
    if len(specs) != len(manifolds):
        raise ValidationError("duplicate manifold id")
    if len({pid for pid, _ in pieces}) != len(pieces):
        raise ValidationError("duplicate piece id")
    out = {}
    for pid, mid in pieces:
        if ":" in pid:
            raise ValidationError(f"piece id {clip(pid)} contains ':'")
        spec = specs.get(mid)
        if spec is None:
            raise ValidationError(f"piece {pid} references unknown manifold {mid}")
        out[pid] = spec
    return out


def resolve_slot(
    specs: Mapping[str, DecoratedManifoldSpec], slot: Slot, referrer: str
) -> BoundarySpec:
    """The non-toroidal boundary that slot names, given each piece's spec;
    the error of each way it names none starts with referrer, what names
    the slot."""
    spec = specs.get(slot[0])
    if spec is None:
        raise ValidationError(f"{referrer} references unknown piece {slot[0]}")
    for b in spec.boundaries:
        if b.id == slot[1]:
            if b.toroidal:
                raise ValidationError(f"{referrer} on toroidal boundary {_slot_name(slot)}")
            return b
    raise ValidationError(f"{referrer} references unknown slot {_slot_name(slot)}")


def _glued_chart(
    specs: Mapping[str, DecoratedManifoldSpec], a: Slot, b: Slot, referrer: str = "identification"
) -> BackendHandle:
    """The backend of two identified slots: the chart that their map is
    read in, once both slots are resolved as `resolve_slot` does."""
    ha = resolve_slot(specs, a, referrer).handle
    hb = resolve_slot(specs, b, referrer).handle
    if ha != hb:
        raise BackendMismatchError(
            f"identified slots {_slot_name(a)} and {_slot_name(b)} live on different backends"
        )
    return ha


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
    def _piece_spec(self) -> dict[str, DecoratedManifoldSpec]:
        return _piece_specs(self.manifolds, self.pieces)

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
        specs = self._piece_spec
        if not self.pieces:
            raise ValidationError("gluing needs at least one piece")
        seen: set[Slot] = set()
        for ident in self.identifications:
            a, b = ident.slot_a, ident.slot_b
            chart = _glued_chart(specs, a, b)
            if a == b and not (ident.map.reversing and ident.map.is_involution()):
                raise ValidationError(
                    f"fixed point: self-identification on {_slot_name(a)} needs an"
                    " orientation-reversing involution"
                )
            for slot in (a,) if a == b else (a, b):
                if slot in seen:
                    raise ValidationError(
                        f"non-involutive identifications: slot {_slot_name(slot)} used twice"
                    )
                seen.add(slot)
            if ident.map.handle != chart:
                raise ValidationError(
                    f"identification map on {_slot_name(a)} lives on the wrong backend"
                )
            if not ident.map.reversing:
                raise ValidationError(
                    f"gluing map {_slot_name(a)} -> {_slot_name(b)} must reverse"
                    " orientation"
                )
        for slot, marking in self.boundary_markings:
            handle = resolve_slot(specs, slot, "boundary marking").handle
            if slot in self._psi:
                raise ValidationError(
                    f"boundary marking on buried slot {_slot_name(slot)}"
                )
            if marking.handle != handle:
                raise ValidationError(
                    f"boundary marking on {_slot_name(slot)} lives on the wrong backend"
                )
        lam_slots = [slot for slot, _ in self.boundary_markings]
        if len(set(lam_slots)) != len(lam_slots):
            raise ValidationError("duplicate boundary marking")
        groups = components(list(specs), ((i.piece_a, i.piece_b) for i in self.identifications))
        if len(groups) > 1:
            raise ValidationError(f"disconnected: piece {groups[1][0]} unreachable")
        self.full  # checks each declared splitting

    def validate(self) -> "GluingGraph":
        """Self: a graph was checked when it was built.  The benchmark's
        input writer, `perfbench/inputs.py`, calls it."""
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
        pieces = []
        for p in _json_list(obj, "pieces"):
            if not isinstance(p, Mapping) or "id" not in p or "manifold" not in p:
                raise ParseError("piece entry needs an id and a manifold")
            pieces.append((json_str(p["id"], "piece id"), json_str(p["manifold"], "piece manifold")))
        # a map is read in the chart that its two slots share, a marking in
        # the chart of its slot
        specs = _piece_specs(manifolds, pieces)
        idents = []
        for rec in _json_list(obj, "identifications"):
            if not isinstance(rec, Mapping) or not {"a", "b", "map"} <= rec.keys():
                raise ParseError("identification needs slots a and b and a map")
            (pa, ba), (pb, bb) = _json_slot(rec, "a"), _json_slot(rec, "b")
            chart = _glued_chart(specs, (pa, ba), (pb, bb))
            idents.append(Identification(pa, ba, pb, bb, SlotMap.from_json(chart, rec["map"])))
        lam = []
        lam_obj = obj.get("lambda", {})
        if not isinstance(lam_obj, Mapping):
            raise ParseError("lambda must be an object")
        for key, mjson in lam_obj.items():
            if ":" not in key:
                raise ParseError(f"lambda key {clip(key)} is not piece:boundary")
            pid, bid = key.split(":", 1)
            handle = resolve_slot(specs, (pid, bid), "lambda").handle
            lam.append(((pid, bid), AbstractMarking.from_json(handle, mjson)))
        return GluingGraph(manifolds, tuple(pieces), tuple(idents), tuple(lam))

    def canonical_json(self) -> str:
        from .ioutil import canonical_dumps  # an OBJ export loads no JSON writer

        return canonical_dumps(self.to_json())

    def content_hash(self) -> str:
        from .ioutil import sha256_of_text

        return sha256_of_text(self.canonical_json())


# No field of the schema is a float: a number with a fraction or an
# exponent is refused while the text is decoded, so no parser truncates it
# or meets an infinity.
def _no_float(text: str) -> NoReturn:
    raise ParseError(f"malformed gluing spec: number {clip(text)} is not an integer")


def _no_constant(text: str) -> NoReturn:
    raise ParseError(f"malformed gluing spec: {text} is not a number")


def validate_gluing(source: str) -> GluingGraph:
    """Parse a gluing spec from JSON text and check every structural
    invariant; returns the canonical in-memory graph.  A decoded mapping
    goes to `GluingGraph.from_json`."""
    if not isinstance(source, str):
        raise ParseError(f"cannot read a gluing spec from {type(source).__name__}")
    try:
        obj = json.loads(source, parse_float=_no_float, parse_constant=_no_constant)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed gluing spec: {exc}") from exc
    except RecursionError as exc:
        raise ParseError("malformed gluing spec: arrays or objects nest too deeply") from exc
    return GluingGraph.from_json(obj)


# -- induced markings ----------------------------------------------------


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
