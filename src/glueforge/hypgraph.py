"""Finite graphs as curve-graph backends: distance tables and intervals.

Distances are BFS integers.  A distance table is the metric of a finite
graph, held as Python lists, one row per vertex, and nothing here imports
numpy.  A table computes a row's BFS when the row is first read: gluing
commands on graph backends read a few rows of a large curve graph, while
`hyplab` reads them all.
A vertex v lies on a geodesic from x to y iff d(x,v)+d(v,y)=d(x,y), since
concatenating geodesics through such a v realizes the distance.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Sequence

from .errors import ValidationError
from .record import Record

__all__ = [
    "FiniteGraph",
    "DistanceTable",
    "all_pairs_distances",
    "geodesic_interval",
    "path_graph",
    "cycle_graph",
    "complete_graph",
]


class FiniteGraph(Record):
    """Simple connected graph on vertices 0..n-1, which owns its distance
    table and remembers the automorphisms it has accepted."""

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
    def table(self) -> "DistanceTable":
        """The metric of this graph; rows are computed as they are read."""
        return DistanceTable(self)

    def adjacency(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.vertex_count)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        for row in adj:
            row.sort()
        return adj


class DistanceTable:
    """The metric of a FiniteGraph, one Python list per row.

    The table runs the BFS of a row the first time `row(u)` or `d(u, v)`
    reads it; the metric is symmetric, so `d(u, v)` answers from row v
    when only that row is held.  `adjacency` holds the graph's sorted
    adjacency lists, whose paths are the geodesics."""

    def __init__(self, g: FiniteGraph):
        self.adjacency = g.adjacency()
        self._rows: list = [None] * g.vertex_count

    @property
    def n(self) -> int:
        return len(self._rows)

    @property
    def rows_held(self) -> int:
        """How many rows the table has computed so far."""
        return sum(row is not None for row in self._rows)

    def d(self, u: int, v: int) -> int:
        row = self._rows[u]
        if row is None:
            other = self._rows[v]
            if other is not None:
                return other[u]
            row = self.row(u)
        return row[v]

    __call__ = d

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


def all_pairs_distances(g: FiniteGraph) -> DistanceTable:
    """The metric of g with every row computed: a BFS from every vertex."""
    g.table.rows()
    return g.table


def geodesic_interval(table: DistanceTable, x: int, y: int) -> list[int]:
    """Vertices lying on some geodesic from x to y."""
    rx, ry = table.row(x), table.row(y)
    dxy = rx[y]
    return [v for v, (a, b) in enumerate(zip(rx, ry)) if a + b == dxy]


def path_graph(n: int) -> FiniteGraph:
    return FiniteGraph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> FiniteGraph:
    return FiniteGraph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> FiniteGraph:
    return FiniteGraph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
