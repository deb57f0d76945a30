"""Marked-surface backend contract: exact torus or declared finite graph.

A BackendHandle names the curve-graph model a boundary component lives on.
The torus backend delegates to the exact Farey machinery (`farey`); the
finite-graph backend runs on BFS tables plus declared data (named markings
and, when supplied, a table of subsurface-projection values).  Graph backends carry
no Teichmuller structure, so geometric consumers must check the kind and
degrade honestly.

Each backend branch imports its layer (`torus` and `farey`, or `hypgraph`)
where it runs, so a gluing on graph backends loads no torus code and a
torus gluing no graph code.

Operations never mix backends: every binary operation insists the handles
are equal and raises BackendMismatchError otherwise.  Markings move between
charts only through `gluing.SlotMap.apply`, by a mapping class on the torus
or by a vertex bijection of a graph that `_check_permutation` has checked.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from .errors import BackendMismatchError, ParseError, ValidationError, clip, json_int
from .record import Record

if TYPE_CHECKING:  # each backend branch imports the layer it runs
    from .hypgraph import DistanceTable, FiniteGraph
    from .torus import FareyMarking, Slope

__all__ = [
    "BackendHandle",
    "AbstractMarking",
    "DiskSet",
    "GraphProjection",
    "ProjectionResult",
    "marking_distance",
    "sup_projection",
    "disk_distance",
    "curve_distances_from",
    "geodesic_between",
    "marking_to_path_distance",
    "as_torus_marking",
]

TORUS = "torus"
GRAPH = "graph"


class GraphProjection(Record):
    """Declared subsurface-projection value for one unordered marking pair."""

    a: tuple[int, ...]
    b: tuple[int, ...]
    label: str
    value: int

    def matches(self, x: tuple[int, ...], y: tuple[int, ...]) -> bool:
        return {self.a, self.b} == {x, y}


@lru_cache(maxsize=None)
def _graph_table(graph: FiniteGraph) -> DistanceTable:
    # rows are computed as they are read: gluing commands read few of them
    from .hypgraph import DistanceTable

    return DistanceTable(graph)


@lru_cache(maxsize=None)
def _check_permutation(graph: FiniteGraph, perm: tuple[int, ...]) -> None:
    """Raise unless perm is a distance-preserving vertex bijection of
    graph; each distinct pair is checked once."""
    n = graph.vertex_count
    if len(perm) != n or sorted(perm) != list(range(n)):
        raise ValidationError("graph map descriptor is not a vertex bijection")
    if not graph.preserved_by(perm):
        raise ValidationError("graph map descriptor is not distance preserving")


class BackendHandle(Record):
    """Curve-graph model for one boundary component."""

    kind: str
    graph: FiniteGraph | None = None
    markings: tuple[tuple[str, tuple[int, ...]], ...] = ()
    projections: tuple[GraphProjection, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in (TORUS, GRAPH):
            raise ValidationError(f"unknown backend kind {clip(self.kind)}")
        if self.kind == TORUS:
            if self.graph is not None or self.markings or self.projections:
                raise ValidationError("torus backend takes no graph data")
        elif self.graph is None:
            raise ValidationError("graph backend needs a FiniteGraph")

    @staticmethod
    def torus() -> "BackendHandle":
        return BackendHandle(TORUS)

    @staticmethod
    def finite_graph(
        graph: FiniteGraph,
        markings: Mapping[str, Iterable[int]] | None = None,
        projections: Iterable[GraphProjection] = (),
    ) -> "BackendHandle":
        named = tuple(
            sorted((name, tuple(vs)) for name, vs in (markings or {}).items())
        )
        return BackendHandle(GRAPH, graph, named, tuple(projections))

    @property
    def is_torus(self) -> bool:
        return self.kind == TORUS

    def table(self) -> DistanceTable:
        if self.graph is None:
            raise BackendMismatchError("torus backend has no distance table")
        return _graph_table(self.graph)

    def named_marking(self, name: str) -> "AbstractMarking":
        for key, payload in self.markings:
            if key == name:
                return AbstractMarking(self, payload)
        raise ValidationError(f"backend declares no marking named {clip(name)}")

    def to_json(self) -> dict:
        if self.is_torus:
            return {"kind": TORUS}
        assert self.graph is not None
        out: dict = {
            "kind": GRAPH,
            "n": self.graph.vertex_count,
            "edges": sorted([u, v] for u, v in self.graph.edges),
        }
        if self.markings:
            out["markings"] = {name: list(vs) for name, vs in self.markings}
        if self.projections:
            out["projections"] = [
                {"a": list(e.a), "b": list(e.b), "label": e.label, "value": e.value}
                for e in self.projections
            ]
        return out

    @staticmethod
    def from_json(obj: object, graphs: dict | None = None) -> "BackendHandle":
        """Parse a backend declaration.  graphs, shared across the
        declarations of one file, maps (n, edges) to the graph parsed for
        it, so that equal declarations share one FiniteGraph and its
        distance table."""
        if not isinstance(obj, dict) or "kind" not in obj:
            raise ParseError("backend declaration must be an object with a kind")
        kind = obj["kind"]
        if kind == TORUS:
            return BackendHandle.torus()
        if kind != GRAPH:
            raise ParseError(f"unknown backend kind {clip(kind)}")
        if not isinstance(obj.get("markings", {}), dict):
            raise ParseError("graph backend markings must be an object")
        try:
            key = (
                json_int(obj["n"]),
                tuple((json_int(u), json_int(v)) for u, v in obj.get("edges", [])),
            )
            if graphs is None:
                graphs = {}
            if key not in graphs:
                from .hypgraph import FiniteGraph

                graphs[key] = FiniteGraph.from_edges(*key)
            graph = graphs[key]
            markings = {
                str(name): [json_int(v) for v in vs]
                for name, vs in obj.get("markings", {}).items()
            }
            projections = [
                GraphProjection(
                    tuple(json_int(v) for v in e["a"]),
                    tuple(json_int(v) for v in e["b"]),
                    str(e["label"]),
                    json_int(e["value"]),
                )
                for e in obj.get("projections", [])
            ]
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad graph backend declaration: {exc}") from exc
        return BackendHandle.finite_graph(graph, markings, projections)


def _require_same(a: BackendHandle, b: BackendHandle) -> None:
    if a != b:
        raise BackendMismatchError(
            f"operands live on different backends ({a.kind} vs {b.kind})"
        )


class AbstractMarking(Record):
    """Marking on a backend: a FareyMarking, or a small vertex set of
    curve-graph diameter at most 2."""

    handle: BackendHandle
    payload: FareyMarking | tuple[int, ...]

    def __post_init__(self) -> None:
        if self.handle.is_torus:
            from .torus import FareyMarking

            if not isinstance(self.payload, FareyMarking):
                raise ValidationError("torus marking payload must be a FareyMarking")
            return
        if not isinstance(self.payload, tuple):
            raise ValidationError("graph marking payload must be a vertex tuple")
        verts = self.payload
        if not verts:
            raise ValidationError("graph marking needs at least one vertex")
        assert self.handle.graph is not None
        n = self.handle.graph.vertex_count
        for v in verts:
            if not isinstance(v, int) or not 0 <= v < n:
                raise ValidationError(f"marking vertex {v} outside the graph")
        if len(set(verts)) != len(verts):
            raise ValidationError("graph marking repeats a vertex")
        object.__setattr__(self, "payload", tuple(sorted(verts)))
        d = self.handle.table().d
        diam = max((d(u, v) for i, u in enumerate(verts) for v in verts[i + 1 :]), default=0)
        if diam > 2:
            raise ValidationError(f"marking diameter {diam} exceeds 2")

    def elements(self) -> tuple:
        if self.handle.is_torus:
            return self.payload.slopes()
        return self.payload

    def __str__(self) -> str:
        if self.handle.is_torus:
            return str(self.payload)
        return "{" + ",".join(str(v) for v in self.payload) + "}"

    def to_json(self) -> dict:
        if self.handle.is_torus:
            return {
                "base": str(self.payload.base),
                "transversal": str(self.payload.transversal),
            }
        return {"vertices": list(self.payload)}

    @staticmethod
    def from_json(handle: BackendHandle, obj: object) -> "AbstractMarking":
        if not isinstance(obj, dict):
            raise ParseError("marking must be an object")
        if handle.is_torus:
            from .torus import FareyMarking

            if "base" not in obj or "transversal" not in obj:
                raise ParseError("torus marking needs base and transversal")
            try:
                payload = FareyMarking(_json_slope(obj["base"]), _json_slope(obj["transversal"]))
            except ValidationError as exc:
                raise ParseError(f"bad torus marking: {exc}") from exc
            return AbstractMarking(handle, payload)
        if "name" in obj:
            return handle.named_marking(str(obj["name"]))
        if "vertices" not in obj:
            raise ParseError("graph marking needs vertices or a declared name")
        try:
            verts = tuple(json_int(v) for v in obj["vertices"])
        except TypeError as exc:
            raise ParseError(f"bad graph marking: {exc}") from exc
        return AbstractMarking(handle, verts)


def _json_slope(value: object) -> Slope:
    """A torus slope, which JSON writes as a string ('p/q', an integer or
    'inf'); a number or any other type is a parse error."""
    from .torus import parse_slope

    if not isinstance(value, str):
        raise ParseError(f"slope {clip(value)} is not a string")
    return parse_slope(value)


class DiskSet(Record):
    """Declared meridian list for a compressible boundary; possibly empty.
    The owner string names the boundary in diagnostics."""

    handle: BackendHandle
    elements: tuple
    owner: str = ""

    def __post_init__(self) -> None:
        if self.handle.is_torus:
            from .torus import Slope

            for e in self.elements:
                if not isinstance(e, Slope):
                    raise ValidationError("torus disk set elements must be slopes")
        else:
            assert self.handle.graph is not None
            n = self.handle.graph.vertex_count
            for e in self.elements:
                if not isinstance(e, int) or not 0 <= e < n:
                    raise ValidationError(f"disk vertex {e} outside the graph")

    @property
    def is_empty(self) -> bool:
        return not self.elements

    def to_json(self) -> list:
        if self.handle.is_torus:
            return [str(s) for s in self.elements]
        return list(self.elements)

    @staticmethod
    def from_json(handle: BackendHandle, obj: object, owner: str = "") -> "DiskSet":
        if not isinstance(obj, list):
            raise ParseError("disk set must be a list")
        if handle.is_torus:
            return DiskSet(handle, tuple(_json_slope(s) for s in obj), owner)
        try:
            return DiskSet(handle, tuple(json_int(v) for v in obj), owner)
        except TypeError as exc:
            raise ParseError(f"bad disk set: {exc}") from exc


class ProjectionResult(Record):
    """Certified or best-effort subsurface-projection maximum."""

    label: object
    value: int
    certified: bool
    unmodeled: bool = False

    def to_dict(self) -> dict:
        return {
            "label": str(self.label),
            "value": self.value,
            "certified": self.certified,
            "unmodeled": self.unmodeled,
        }


def curve_distances_from(handle: BackendHandle, a: object, targets: Sequence) -> list[int]:
    """Curve-graph distances from a to each target: one chart on the torus,
    where consecutive targets that are adjacent or equal cost O(1) each,
    and one table row on a graph."""
    if handle.is_torus:
        from .farey import distances_from
        from .torus import Slope

        if not isinstance(a, Slope) or not all(isinstance(t, Slope) for t in targets):
            raise ValidationError("torus curve vertices are slopes")
        return distances_from(a, targets)
    row = handle.table().row(a)
    return [row[t] for t in targets]


def _min_distance(m: AbstractMarking, targets: Sequence) -> int:
    """Min curve-graph distance from any marking element to any target.  On
    the torus the other slope of the marking is a Farey neighbour of each,
    which spares each row's chart its modular inverse."""
    if not m.handle.is_torus:
        return min(min(curve_distances_from(m.handle, x, targets)) for x in m.elements())
    from .farey import distances_from
    from .torus import Slope

    if not all(isinstance(t, Slope) for t in targets):
        raise ValidationError("torus curve vertices are slopes")
    base, transversal = m.elements()
    return min(
        min(distances_from(base, targets, transversal)),
        min(distances_from(transversal, targets, base)),
    )


def marking_distance(m1: AbstractMarking, m2: AbstractMarking) -> int:
    """Min over element pairs of the curve-graph distance."""
    _require_same(m1.handle, m2.handle)
    return _min_distance(m1, m2.elements())


def sup_projection(
    m1: AbstractMarking,
    m2: AbstractMarking,
    denom_bound: int | None = None,
) -> ProjectionResult:
    """Maximal subsurface projection between two markings.

    Torus: exact pivot search, plus a denominator-bounded certifying sweep
    when a bound is passed.  Graph: declared lookup table; without an entry
    the value is 0 and the result is flagged unmodeled.
    """
    _require_same(m1.handle, m2.handle)
    if m1.handle.is_torus:
        from .farey import max_subsurface_projection

        label, value = max_subsurface_projection(m1.payload, m2.payload, denom_bound=denom_bound)
        return ProjectionResult(label, value, certified=denom_bound is not None)
    a, b = m1.payload, m2.payload
    hits = [e for e in m1.handle.projections if e.matches(a, b)]  # type: ignore[arg-type]
    if not hits:
        return ProjectionResult("", 0, certified=False, unmodeled=True)
    best = max(hits, key=lambda e: (e.value, e.label))
    return ProjectionResult(best.label, best.value, certified=True)


def disk_distance(m: AbstractMarking, disks: DiskSet) -> int:
    """Min curve-graph distance from the marking to the declared disk set."""
    _require_same(m.handle, disks.handle)
    if disks.is_empty:
        name = disks.owner or "<unnamed>"
        raise ValidationError(f"empty disk set on boundary {name}")
    return _min_distance(m, disks.elements)


def _graph_geodesic(table: DistanceTable, a: int, b: int) -> list[int]:
    # deterministic: at every step pick the smallest-index neighbour
    # that moves closer to the target
    adj = table.adjacency
    rb = table.row(b)
    path = [a]
    cur = a
    while cur != b:
        cur = min(w for w in adj[cur] if rb[w] == rb[cur] - 1)
        path.append(cur)
    return path


def geodesic_between(m1: AbstractMarking, m2: AbstractMarking) -> list:
    """Deterministic curve-graph geodesic between representatives of the
    two markings: base-to-base on the torus, closest-pair on a graph."""
    _require_same(m1.handle, m2.handle)
    if m1.handle.is_torus:
        from .farey import farey_geodesic

        return farey_geodesic(m1.payload.base, m2.payload.base)
    table = m1.handle.table()
    best = min(
        ((table.d(x, y), x, y) for x in m1.payload for y in m2.payload),
    )
    _, x, y = best
    return _graph_geodesic(table, x, y)


def marking_to_path_distance(m: AbstractMarking, path: Sequence) -> int:
    """Min curve-graph distance from any marking element to any path vertex."""
    if not path:
        raise ValidationError("empty path")
    return _min_distance(m, path)


def as_torus_marking(m: AbstractMarking) -> FareyMarking:
    """Unwrap the exact payload; graph backends have none."""
    if not m.handle.is_torus:
        raise BackendMismatchError("operation needs the torus backend")
    return m.payload
