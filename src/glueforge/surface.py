"""Marked-surface backend contract: exact torus or declared finite graph.

`BackendHandle` is the curve-graph contract of a boundary component, with
two implementations: `torus.TorusBackend`, the exact Farey graph, and
`hypgraph.GraphBackend`, a declared finite graph with its BFS metric,
named markings and table of subsurface-projection values.  Markings, disk
sets and slot maps hold a handle and their backend's payload, and every
curve-graph answer about them comes from the handle, so no other module
tests which backend it holds.  A graph has no Teichmuller structure: its
handle answers the model's geometry questions with None.
`BackendHandle.from_json`, the one reader of a backend's JSON kind,
imports the implementation it parses, so a gluing on graph backends loads
no torus code and a torus gluing no graph code.

Operations never mix backends: every binary operation insists the handles
are equal and raises BackendMismatchError otherwise.  Markings move between
charts only through `gluing.SlotMap.apply`, by a mapping class on the torus
or by a vertex bijection that `FiniteGraph.check_automorphism` has checked.
Nothing is kept between calls: each FiniteGraph holds its own distance
rows and checked maps, so a new parse of a file computes and checks them
anew.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable, Mapping, Protocol, Sequence

from .errors import BackendMismatchError, ParseError, ValidationError, clip
from .record import Record

if TYPE_CHECKING:  # each implementation is imported where it is built
    from .gluing import SlotMap
    from .halfplane import TeichPoint, Tube
    from .hypgraph import FiniteGraph, GraphProjection

__all__ = [
    "BackendHandle",
    "AbstractMarking",
    "DiskSet",
    "ProjectionResult",
    "marking_distance",
    "sup_projection",
    "disk_distance",
    "geodesic_between",
    "marking_to_path_distance",
]


class BackendHandle(Protocol):
    """The curve-graph contract.  A payload is a backend's own value: a
    marking's, a disk set's, or a curve vertex.  Handles are values, equal
    iff they model the same curve graph."""

    kind: str  # the JSON kind, also named in mismatch errors

    def to_json(self) -> dict: ...

    # distance row from a curve vertex, and min distance from a marking;
    # geodesic between two curve vertices, and between two markings
    def distances_from(self, a: Any, targets: Sequence) -> list[int]: ...
    def marking_distance(self, payload: Any, targets: Sequence) -> int: ...
    def curve_geodesic(self, a: Any, b: Any) -> list: ...
    def geodesic(self, x: Any, y: Any) -> list: ...
    def sup_projection(self, x: Any, y: Any, denom_bound: int | None) -> ProjectionResult: ...

    # payload checks (the canonical marking) and JSON
    def check_marking(self, payload: object) -> Any: ...
    def marking_elements(self, payload: Any) -> tuple: ...
    def marking_to_json(self, payload: Any) -> dict: ...
    def marking_from_json(self, obj: dict) -> Any: ...
    def check_disks(self, elements: tuple) -> None: ...
    def disks_to_json(self, elements: tuple) -> list: ...
    def disks_from_json(self, obj: list) -> tuple: ...

    # slot maps
    def check_map(self, f: SlotMap) -> None: ...
    def identity_map(self) -> SlotMap: ...
    def apply_map(self, f: SlotMap, payload: Any) -> Any: ...
    def invert_map(self, f: SlotMap) -> SlotMap: ...
    def compose_maps(self, f: SlotMap, g: SlotMap) -> SlotMap: ...
    def map_reverses(self, f: SlotMap) -> bool: ...
    def map_is_involution(self, f: SlotMap) -> bool: ...
    def map_to_json(self, f: SlotMap) -> object: ...
    def map_from_json(self, obj: object) -> SlotMap: ...

    # model geometry: a marking's balanced point and a `halfplane.Tube`,
    # None without Teichmuller structure
    def sigma(self, payload: Any) -> TeichPoint | None: ...
    def tube(self, mu: Any, nu: Any, samples: int) -> Tube | None: ...

    @staticmethod
    def torus() -> BackendHandle:
        from .torus import TorusBackend

        return TorusBackend()

    @staticmethod
    def finite_graph(
        graph: FiniteGraph,
        markings: Mapping[str, Iterable[int]] | None = None,
        projections: Iterable[GraphProjection] = (),
    ) -> BackendHandle:
        from .hypgraph import GraphBackend

        named = tuple(sorted((name, tuple(vs)) for name, vs in (markings or {}).items()))
        return GraphBackend(graph, named, tuple(projections))

    @staticmethod
    def from_json(obj: object, graphs: dict) -> BackendHandle:
        """Parse a backend declaration.  graphs, shared across the
        declarations of one file, maps (n, edges) to the graph parsed for
        it, so that equal declarations share one FiniteGraph and its
        distance rows."""
        if not isinstance(obj, dict) or "kind" not in obj:
            raise ParseError("backend declaration must be an object with a kind")
        kind = obj["kind"]
        if kind == "torus":
            return BackendHandle.torus()
        if kind != "graph":
            raise ParseError(f"unknown backend kind {clip(kind)}")
        from .hypgraph import GraphBackend

        return GraphBackend.from_json(obj, graphs)


def _require_same(a: BackendHandle, b: BackendHandle) -> None:
    if a != b:
        raise BackendMismatchError(f"operands live on different backends ({a.kind} vs {b.kind})")


class AbstractMarking(Record):
    """Marking on a backend: a FareyMarking, or a small vertex set of
    curve-graph diameter at most 2, kept as the backend's canonical
    payload."""

    handle: BackendHandle
    payload: Any

    def __post_init__(self) -> None:
        self.__dict__["payload"] = self.handle.check_marking(self.payload)

    def elements(self) -> tuple:
        return self.handle.marking_elements(self.payload)

    def to_json(self) -> dict:
        return self.handle.marking_to_json(self.payload)

    @staticmethod
    def from_json(handle: BackendHandle, obj: object) -> AbstractMarking:
        if not isinstance(obj, dict):
            raise ParseError("marking must be an object")
        return AbstractMarking(handle, handle.marking_from_json(obj))


class DiskSet(Record):
    """Declared meridian list for a compressible boundary; possibly empty."""

    handle: BackendHandle
    elements: tuple

    def __post_init__(self) -> None:
        self.handle.check_disks(self.elements)

    @property
    def is_empty(self) -> bool:
        return not self.elements

    def to_json(self) -> list:
        return self.handle.disks_to_json(self.elements)

    @staticmethod
    def from_json(handle: BackendHandle, obj: object) -> DiskSet:
        if not isinstance(obj, list):
            raise ParseError("disk set must be a list")
        return DiskSet(handle, handle.disks_from_json(obj))


class ProjectionResult(Record):
    """Certified or best-effort subsurface-projection maximum."""

    label: object
    value: int
    certified: bool
    unmodeled: bool = False


def marking_distance(m1: AbstractMarking, m2: AbstractMarking) -> int:
    """Min over element pairs of the curve-graph distance."""
    _require_same(m1.handle, m2.handle)
    return m1.handle.marking_distance(m1.payload, m2.elements())


def sup_projection(
    m1: AbstractMarking,
    m2: AbstractMarking,
    denom_bound: int | None = None,
) -> ProjectionResult:
    """Maximal subsurface projection between two markings: exact on the
    torus, certified by a sweep when a denominator bound is passed, and
    read from the declared table on a graph, unmodeled without an entry."""
    _require_same(m1.handle, m2.handle)
    return m1.handle.sup_projection(m1.payload, m2.payload, denom_bound)


def disk_distance(m: AbstractMarking, disks: DiskSet) -> int:
    """Min curve-graph distance from the marking to the declared disk set."""
    _require_same(m.handle, disks.handle)
    if disks.is_empty:
        raise ValidationError("empty disk set")
    return m.handle.marking_distance(m.payload, disks.elements)


def geodesic_between(m1: AbstractMarking, m2: AbstractMarking) -> list:
    """Deterministic curve-graph geodesic between representatives of the
    two markings: base-to-base on the torus, closest-pair on a graph."""
    _require_same(m1.handle, m2.handle)
    return m1.handle.geodesic(m1.payload, m2.payload)


def marking_to_path_distance(m: AbstractMarking, path: Sequence) -> int:
    """Min curve-graph distance from any marking element to any path vertex."""
    if not path:
        raise ValidationError("empty path")
    return m.handle.marking_distance(m.payload, path)
