"""Finite graphs, their metric and intervals, and the graph backend.

Distances are BFS integers.  A FiniteGraph is its own metric: it holds
its distances as Python lists, one row per vertex, and nothing here
imports numpy.  The graph computes a row's BFS when the row is first
read: gluing commands on graph backends read a few rows of a large curve
graph, while `hyplab` reads them all.
A vertex v lies on a geodesic from x to y iff d(x,v)+d(v,y)=d(x,y), since
concatenating geodesics through such a v realizes the distance.

GraphBackend, the curve-graph contract on a declared graph, imports
`surface` and `gluing` where a method builds their records, so `hyplab`
loads neither.
"""

from __future__ import annotations

import marshal
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from .errors import ParseError, ValidationError, clip, json_bool, json_int, json_str
from .record import Record

if TYPE_CHECKING:  # loaded by whatever holds a backend
    from .gluing import SlotMap
    from .surface import ProjectionResult

__all__ = [
    "FiniteGraph",
    "GraphBackend",
    "GraphProjection",
    "geodesic_interval",
    "cycle_graph",
]


class FiniteGraph(Record):
    """Simple connected graph on vertices 0..n-1 and its metric, which
    remembers the automorphisms it has accepted.

    The graph runs the BFS of a row the first time `row(u)` or `d(u, v)`
    reads it; the metric is symmetric, so `d(u, v)` answers from row v
    when only that row is held."""

    vertex_count: int
    edges: frozenset[tuple[int, int]]

    @staticmethod
    def from_edges(n: int, pairs: Iterable[tuple[int, int]]) -> "FiniteGraph":
        if n <= 0:
            raise ValidationError("graph needs at least one vertex")
        norm = set()
        for u, v in pairs:
            if not (0 <= u < n and 0 <= v < n):
                raise ValidationError(f"edge ({u},{v}) out of range for {n} vertices")
            if u == v:
                raise ValidationError(f"self-loop at vertex {u}")
            e = (min(u, v), max(u, v))
            if e in norm:
                raise ValidationError(f"duplicate edge {e}")
            norm.add(e)
        # O(m) whatever n is: a huge vertex count with few edges must fail
        # fast, before anything of size n is allocated
        nbrs: dict[int, list[int]] = {}
        for u, v in norm:
            nbrs.setdefault(u, []).append(v)
            nbrs.setdefault(v, []).append(u)
        seen = {0}
        stack = [0]
        while stack:
            for w in nbrs.get(stack.pop(), ()):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) != n:
            missing = next(v for v in range(n) if v not in seen)
            raise ValidationError(f"graph disconnected: no path from 0 to {missing}")
        return FiniteGraph(n, frozenset(norm))

    def preserved_by(self, perm: Sequence[int]) -> bool:
        """True iff the vertex bijection perm keeps every distance: it does
        iff it maps edges onto edges, the pairs at distance 1."""
        image = {(min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in self.edges}
        return image == self.edges

    def check_automorphism(self, perm: tuple[int, ...]) -> None:
        """Raise unless perm is a distance-preserving vertex bijection; the
        graph remembers each perm it accepted and checks it only once."""
        accepted = self.__dict__.setdefault("_automorphisms", set())
        if perm not in accepted:
            if sorted(perm) != list(range(self.vertex_count)):
                raise ValidationError("graph map descriptor is not a vertex bijection")
            if not self.preserved_by(perm):
                raise ValidationError("graph map descriptor is not distance preserving")
            accepted.add(perm)

    @cached_property
    def sorted_edges(self) -> tuple[tuple[int, int], ...]:
        """The edges in order, one tuple per graph: the JSON of every
        backend on the graph holds this one object."""
        return tuple(sorted(self.edges))

    @cached_property
    def adjacency(self) -> list[list[int]]:
        """Sorted adjacency lists, whose paths are the geodesics; the
        caller must not mutate them."""
        adj: list[list[int]] = [[] for _ in range(self.vertex_count)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        for row in adj:
            row.sort()
        return adj

    @cached_property
    def _rows(self) -> list:
        return [None] * self.vertex_count

    @property
    def rows_held(self) -> int:
        """How many rows the graph has computed so far."""
        return sum(row is not None for row in self._rows)

    def d(self, u: int, v: int) -> int:
        row = self._rows[u]
        if row is None:
            other = self._rows[v]
            if other is not None:
                return other[u]
            row = self.row(u)
        return row[v]

    def row(self, u: int) -> list[int]:
        """Distances from u to every vertex; the caller must not mutate it."""
        row = self._rows[u]
        if row is None:
            row = self._rows[u] = _bfs_row(self.adjacency, u)
        return row

    def rows(self) -> list[list[int]]:
        """Every row, computing those not held yet; the caller must not
        mutate them."""
        rows = self._rows
        if None in rows:
            for u, row in enumerate(rows):
                if row is None:
                    rows[u] = _bfs_row(self.adjacency, u)
        return rows


def _bfs_row(adj: list[list[int]], s: int) -> list[int]:
    """Level-synchronous BFS from s."""
    row = [-1] * len(adj)
    row[s] = 0
    frontier = [s]
    level = 0
    while frontier:
        level += 1
        reached = []
        for u in frontier:
            for w in adj[u]:
                if row[w] < 0:
                    row[w] = level
                    reached.append(w)
        frontier = reached
    return row


def geodesic_interval(g: FiniteGraph, x: int, y: int) -> list[int]:
    """Vertices lying on some geodesic from x to y."""
    rx, ry = g.row(x), g.row(y)
    dxy = rx[y]
    return [v for v, (a, b) in enumerate(zip(rx, ry)) if a + b == dxy]


class GraphProjection(Record):
    """Declared subsurface-projection value for one unordered marking pair.
    Each side is a nonempty set of distinct vertices, stored sorted as a
    marking's payload is, and the value is non-negative."""

    a: tuple[int, ...]
    b: tuple[int, ...]
    label: str
    value: int

    def __post_init__(self) -> None:
        a, b = tuple(sorted(self.a)), tuple(sorted(self.b))
        for side in (a, b):
            if not side:
                raise ValidationError(f"projection {clip(self.label)} has an empty side")
            if len(set(side)) != len(side):
                raise ValidationError(f"projection {clip(self.label)} repeats a vertex")
        if self.value < 0:
            raise ValidationError(f"projection {clip(self.label)} has negative value {self.value}")
        self.__dict__.update(a=a, b=b)

    def matches(self, x: tuple[int, ...], y: tuple[int, ...]) -> bool:
        return {self.a, self.b} == {x, y}


class GraphBackend(Record):
    """A finite graph, its named markings and its table of projection
    values as a `surface.BackendHandle`.  Curve vertices are ints, a
    marking is a sorted vertex tuple of diameter at most 2, and a slot map
    a vertex bijection the graph preserves (its perm) with a declared
    orientation flag: graphs carry no orientation of their own."""

    kind = "graph"
    graph: FiniteGraph
    markings: tuple[tuple[str, tuple[int, ...]], ...] = ()
    projections: tuple[GraphProjection, ...] = ()

    def __post_init__(self) -> None:
        for e in self.projections:
            self._check_vertices(e.a + e.b, "projection")
        for _, vertices in self.markings:
            self.check_marking(vertices)

    def _check_vertices(self, vertices: Iterable, what: str) -> None:
        n = self.graph.vertex_count
        for v in vertices:
            if not isinstance(v, int) or not 0 <= v < n:
                raise ValidationError(f"{what} vertex {v} outside the graph")

    def to_json(self) -> dict:
        out: dict = {
            "kind": self.kind,
            "n": self.graph.vertex_count,
            "edges": self.graph.sorted_edges,
        }
        if self.markings:
            out["markings"] = {name: list(vs) for name, vs in self.markings}
        if self.projections:
            out["projections"] = [e.to_json() for e in self.projections]
        return out

    @staticmethod
    def from_json(obj: dict, graphs: dict) -> "GraphBackend":
        """The declaration obj; graphs maps n and the marshal bytes of the
        decoded edge list to the graph parsed for it, so that equal
        declarations share one FiniteGraph and a repeated one converts no
        edge.  The bytes tell a true, 1.0 or "1" vertex from 1, so such a
        vertex misses the cache and fails its check as in a first
        declaration.  Marshal version 2 writes no back-references, so
        equal lists give equal bytes; on a 400-edge list it is three times
        faster than the per-edge conversion and seven times faster than
        repr."""
        if not isinstance(obj.get("markings", {}), dict):
            raise ParseError("graph backend markings must be an object")
        try:
            n, edges = json_int(obj["n"]), obj.get("edges", [])
            key = (n, marshal.dumps(edges, 2))
            if key not in graphs:
                graphs[key] = FiniteGraph.from_edges(
                    n, tuple((json_int(u), json_int(v)) for u, v in edges)
                )
            markings = sorted(
                (str(name), tuple(json_int(v) for v in vs))
                for name, vs in obj.get("markings", {}).items()
            )
            projections = [
                GraphProjection(
                    tuple(json_int(v) for v in e["a"]),
                    tuple(json_int(v) for v in e["b"]),
                    json_str(e["label"], "projection label"),
                    json_int(e["value"]),
                )
                for e in obj.get("projections", [])
            ]
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad graph backend declaration: {exc}") from exc
        return GraphBackend(graphs[key], tuple(markings), tuple(projections))

    def named_marking(self, name: str) -> tuple[int, ...]:
        for key, payload in self.markings:
            if key == name:
                return payload
        raise ValidationError(f"backend declares no marking named {clip(name)}")

    def distances_from(self, a: int, targets: Sequence[int]) -> list[int]:
        row = self.graph.row(a)
        return [row[t] for t in targets]

    def marking_distance(self, payload: tuple[int, ...], targets: Sequence[int]) -> int:
        return min(min(self.distances_from(x, targets)) for x in payload)

    def curve_geodesic(self, a: int, b: int) -> list[int]:
        # each step to the smallest neighbour closer to the target
        adj, to_end = self.graph.adjacency, self.graph.row(b)
        path = [a]
        while a != b:
            a = min(w for w in adj[a] if to_end[w] == to_end[a] - 1)
            path.append(a)
        return path

    def geodesic(self, x: tuple[int, ...], y: tuple[int, ...]) -> list[int]:
        # the walk from the first closest pair
        g = self.graph
        _, a, b = min((g.d(u, v), u, v) for u in x for v in y)
        return self.curve_geodesic(a, b)

    def sup_projection(
        self, x: tuple[int, ...], y: tuple[int, ...], denom_bound: int | None
    ) -> ProjectionResult:
        # the largest declared value; a pair the table lacks is unmodeled
        from .surface import ProjectionResult

        hits = [e for e in self.projections if e.matches(x, y)]
        if not hits:
            return ProjectionResult("", 0, certified=False, unmodeled=True)
        best = max(hits, key=lambda e: (e.value, e.label))
        return ProjectionResult(best.label, best.value, certified=True)

    def check_marking(self, payload: object) -> tuple[int, ...]:
        if not isinstance(payload, tuple):
            raise ValidationError("graph marking payload must be a vertex tuple")
        if not payload:
            raise ValidationError("graph marking needs at least one vertex")
        self._check_vertices(payload, "marking")
        if len(set(payload)) != len(payload):
            raise ValidationError("graph marking repeats a vertex")
        d = self.graph.d
        diam = max((d(u, v) for i, u in enumerate(payload) for v in payload[i + 1 :]), default=0)
        if diam > 2:
            raise ValidationError(f"marking diameter {diam} exceeds 2")
        return tuple(sorted(payload))

    def marking_elements(self, payload: tuple[int, ...]) -> tuple[int, ...]:
        return payload

    def marking_to_json(self, payload: tuple[int, ...]) -> dict:
        return {"vertices": list(payload)}

    def marking_from_json(self, obj: dict) -> tuple[int, ...]:
        if "name" in obj:
            return self.named_marking(json_str(obj["name"], "marking name"))
        if "vertices" not in obj:
            raise ParseError("graph marking needs vertices or a declared name")
        try:
            return tuple(json_int(v) for v in obj["vertices"])
        except TypeError as exc:
            raise ParseError(f"bad graph marking: {exc}") from exc

    def check_disks(self, elements: tuple) -> None:
        self._check_vertices(elements, "disk")

    def disks_to_json(self, elements: tuple[int, ...]) -> list[int]:
        return list(elements)

    def disks_from_json(self, obj: list) -> tuple[int, ...]:
        try:
            return tuple(json_int(v) for v in obj)
        except TypeError as exc:
            raise ParseError(f"bad disk set: {exc}") from exc

    def check_map(self, f: SlotMap) -> None:
        # f keeps the permutation it was given as a tuple
        if f.perm is None or f.matrix is not None:
            raise ValidationError("graph slot map needs a permutation and no matrix")
        if not isinstance(f.perm, (list, tuple)) or any(type(v) is not int for v in f.perm):
            raise ValidationError(f"graph permutation {clip(f.perm)} is not a list of integers")
        perm = tuple(f.perm)
        self.graph.check_automorphism(perm)
        object.__setattr__(f, "perm", perm)

    def identity_map(self) -> SlotMap:
        from .gluing import SlotMap

        return SlotMap(self, perm=tuple(range(self.graph.vertex_count)), graph_reversing=False)

    def apply_map(self, f: SlotMap, payload: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(f.perm[v] for v in payload)

    def invert_map(self, f: SlotMap) -> SlotMap:
        inv = [0] * len(f.perm)
        for i, v in enumerate(f.perm):
            inv[v] = i
        return type(f)(self, perm=tuple(inv), graph_reversing=f.graph_reversing)

    def compose_maps(self, f: SlotMap, g: SlotMap) -> SlotMap:
        perm = tuple(f.perm[v] for v in g.perm)
        return type(f)(self, perm=perm, graph_reversing=f.graph_reversing != g.graph_reversing)

    def map_reverses(self, f: SlotMap) -> bool:
        return f.graph_reversing

    def map_is_involution(self, f: SlotMap) -> bool:
        return all(f.perm[v] == i for i, v in enumerate(f.perm))

    def map_to_json(self, f: SlotMap) -> dict:
        return {"perm": list(f.perm), "reverses_orientation": f.graph_reversing}

    def map_from_json(self, obj: object) -> SlotMap:
        from .gluing import SlotMap

        if not isinstance(obj, Mapping) or "perm" not in obj:
            raise ParseError(f"graph slot map must declare a perm, got {clip(obj)}")
        try:
            perm = tuple(json_int(v) for v in obj["perm"])
        except TypeError as exc:
            raise ParseError(f"bad permutation in slot map: {exc}") from exc
        reversing = json_bool(obj, "reverses_orientation", True)
        return SlotMap(self, perm=perm, graph_reversing=reversing)

    def sigma(self, *payloads: object) -> None:
        """No balanced point, and no tube geometry."""
        return None

    tube = sigma


def cycle_graph(n: int) -> FiniteGraph:
    return FiniteGraph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])
