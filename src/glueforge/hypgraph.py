"""Finite metric-graph laboratory: hyperbolicity, quasiconvexity, stability.

Everything is exact: distances are BFS integers, the four-point constant is
a half-integer Fraction, and quasiconvexity constants come from the interval
characterization (v lies on a geodesic from x to y iff d(x,v)+d(v,y)=d(x,y),
since concatenating geodesics through such a v realizes the distance).

The four-point constant is not an exhaustive scan.  It follows N. Cohen,
D. Coudert and A. Lancin, "On computing the Gromov hyperbolicity" (ACM JEA
2015), and is exact for three reasons:

- a graph's constant is the largest over its biconnected blocks, each an
  isometric subgraph, and a block of at most three vertices, or a clique,
  has 0;
- moving an end of a pair to a neighbour farther from the other end raises
  the largest pairing sum by one and the other two by at most one, so some
  worst quadruple has both pairs of its largest sum far apart: no
  neighbour of either end lies farther from the other end, in the block;
- by the triangle inequality the gap of a quadruple is at most the shorter
  pair of its largest sum, so pairs visited by decreasing distance can stop
  at the first one no longer than the best gap found.

Quasigeodesic constants are plain ratios: K' is the max over sub-intervals
of (edge length)/(endpoint distance), so length <= K'*d holds exactly and
the additive-slack-1 form length <= K'*d + 1 holds a fortiori.

Distance tables are Python lists, one row per vertex, and nothing here
imports numpy.  A table over a graph computes a row's BFS when the row
is first read: gluing commands on graph backends read a few rows of a
large curve graph, while `hyplab` reads them all.  The quasiconvexity
constant and the stability scan walk the BFS DAG of each subset point
instead of testing every vertex pair, so they cost O(n + m) per point.
"""

from __future__ import annotations

from itertools import compress
from operator import and_, gt, itemgetter, le
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from .errors import ParseError, ValidationError, clip
from .record import Record

if TYPE_CHECKING:  # fractions loads decimal: each function that builds one imports it
    from fractions import Fraction

__all__ = [
    "FiniteGraph",
    "DistanceTable",
    "PathWitness",
    "StabilityReport",
    "QuasigeodesicReport",
    "all_pairs_distances",
    "four_point_delta",
    "geodesic_interval",
    "quasiconvexity_constant",
    "check_qconvex_stability",
    "local_to_global_report",
    "read_graph",
    "path_graph",
    "cycle_graph",
    "complete_graph",
]


class FiniteGraph(Record):
    """Simple connected graph on vertices 0..n-1."""

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

    def adjacency(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.vertex_count)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        for row in adj:
            row.sort()
        return adj


class DistanceTable:
    """Distances of a finite metric, one Python list per row.

    A table over a FiniteGraph (`of_graph`) runs the BFS of a row the first
    time `row(u)` or `d(u, v)` reads it; a graph metric is symmetric, so
    `d(u, v)` answers from row v when only that row is held.  A table
    built from explicit rows holds them all, and `d(u, v)` reads row u."""

    def __init__(self, matrix: Sequence[Sequence[int]]):
        self._rows: list = [list(map(int, row)) for row in matrix]
        self._adj: list[list[int]] | None = None

    @classmethod
    def of_graph(cls, g: FiniteGraph) -> "DistanceTable":
        """The metric of g, with no row computed yet."""
        table = cls.__new__(cls)
        table._adj = g.adjacency()
        table._rows = [None] * g.vertex_count
        return table

    @property
    def n(self) -> int:
        return len(self._rows)

    @property
    def rows_held(self) -> int:
        """How many rows the table holds: given, or computed so far."""
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
            row = self._rows[u] = _bfs_row(self._adj, u)  # type: ignore[arg-type]
        return row

    def rows(self) -> list[list[int]]:
        """Every row, computing those not held yet; the caller must not
        mutate them."""
        rows = self._rows
        if None in rows:
            for u, row in enumerate(rows):
                if row is None:
                    rows[u] = _bfs_row(self._adj, u)  # type: ignore[arg-type]
        return rows

    def submatrix(self, vertices: Sequence[int]) -> "DistanceTable":
        idx = list(vertices)
        return DistanceTable([[ru[v] for v in idx] for ru in map(self.row, idx)])

    def check(self) -> None:
        rows = self.rows()
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise ValidationError("distance table not square")
        if any(list(col) != row for row, col in zip(rows, zip(*rows))):
            raise ValidationError("distance table not symmetric")
        if any(row[u] for u, row in enumerate(rows)):
            raise ValidationError("distance table has nonzero diagonal")
        if any(min(row) < 0 for row in rows):
            raise ValidationError("negative distance")
        for rk in rows:
            for row, via in zip(rows, rk):
                # row is u's, via = d(u, k) = d(k, u): d(u, v) <= d(u, k) + d(k, v)
                if any(map(gt, row, map(via.__add__, rk))):
                    raise ValidationError("triangle inequality violated")


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
    table = DistanceTable.of_graph(g)
    table.rows()
    return table


def _column_min(rows: Sequence[Sequence[int]]) -> list[int]:
    """Entrywise minimum of one or more equally long rows."""
    return list(map(min, *rows)) if len(rows) > 1 else list(rows[0])


def four_point_delta(table: DistanceTable) -> Fraction:
    """Least delta such that for every vertex quadruple the two largest of
    the three pairing sums d(i,j)+d(k,l), d(i,k)+d(j,l), d(i,l)+d(j,k)
    differ by at most 2*delta.

    When the table is the metric of a graph (its own, or the graph its
    distance-1 pairs span), the scan runs per biconnected block over the
    far-apart pairs only; otherwise the table must be a metric, and the
    scan runs over all pairs.  Both are exact: see the module docstring."""
    from fractions import Fraction

    rows = table.rows()
    adj = _graph_adjacency(table)
    if adj is None:
        table.check()
        n = table.n
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        return Fraction(_widest_gap(rows, pairs, 0), 2)
    best = 0
    for block in _blocks(adj):
        if len(block) >= 4:
            get = itemgetter(*block)
            mb = [get(rows[u]) for u in block]
            # a clique: every pairing sum is 2, so its gap is 0
            if max(map(max, mb)) > 1:
                best = _widest_gap(mb, _far_apart_pairs(mb), best)
    return Fraction(best, 2)


def _metric_graph(rows: list[list[int]]) -> list[list[int]] | None:
    """Adjacency lists of the graph of distance-1 pairs when the square
    table is exactly its metric: symmetric adjacency, zero diagonal, and
    every other entry 1 + the least entry over the row vertex's
    neighbours.  None otherwise."""
    n = len(rows)
    if any(len(row) != n or row[u] for u, row in enumerate(rows)):
        return None
    adj = [list(compress(range(n), map((1).__eq__, row))) for row in rows]
    for u, nb in enumerate(adj):
        if any(rows[v][u] != 1 for v in nb):
            return None
        if nb:
            via = list(map((1).__add__, _column_min([rows[w] for w in nb])))
            via[u] = 0
            if via != rows[u]:
                return None
        elif n > 1:
            return None
    return adj


def _graph_adjacency(table: DistanceTable) -> list[list[int]] | None:
    """Adjacency lists of the graph whose metric the table is: the graph
    it was built over, else the graph of its distance-1 pairs if the table
    is exactly that graph's metric.  None when it is no graph's metric."""
    return table._adj if table._adj is not None else _metric_graph(table.rows())


def _graph_metric(table: DistanceTable) -> tuple[list[list[int]], list[list[int]]]:
    """Rows and adjacency lists of a table that is the metric of a graph:
    geodesics are paths of that graph."""
    adj = _graph_adjacency(table)
    if adj is None:
        raise ValidationError("distance table is not the metric of a graph")
    return table.rows(), adj


def _blocks(adj: list[list[int]]) -> list[list[int]]:
    """Vertex lists of the biconnected blocks of a connected graph, by an
    iterative Hopcroft-Tarjan depth-first search from vertex 0."""
    if not adj:
        return []
    disc = [-1] * len(adj)
    low = [0] * len(adj)
    disc[0] = 0
    clock = 1
    path = [0]
    work = [(0, iter(adj[0]))]
    blocks = []
    while work:
        u, todo = work[-1]
        for w in todo:
            if disc[w] < 0:
                disc[w] = low[w] = clock
                clock += 1
                path.append(w)
                work.append((w, iter(adj[w])))
                break
            low[u] = min(low[u], disc[w])
        else:
            work.pop()
            if work:
                p = work[-1][0]
                low[p] = min(low[p], low[u])
                if low[u] >= disc[p]:
                    # p separates u's subtree, the top of the path: together
                    # they form a block
                    block = [p]
                    while block[-1] != u:
                        block.append(path.pop())
                    blocks.append(block)
    return blocks


def _far_apart_pairs(mb: Sequence[Sequence[int]]) -> list[tuple[int, int]]:
    """Pairs (u, v), u < v, of a block's metric such that no neighbour of
    u is farther from v and no neighbour of v is farther from u."""
    k = len(mb)
    # far[u][v]: no neighbour of u is farther from v than u is
    far = []
    for row in mb:
        nb = [mb[w] for w in compress(range(k), map((1).__eq__, row))]
        reach = map(max, *nb) if len(nb) > 1 else nb[0]
        far.append(list(map(le, reach, row)))
    pairs = []
    for u, (fu, fu_t) in enumerate(zip(far, zip(*far))):
        both = map(and_, fu[u + 1 :], fu_t[u + 1 :])
        pairs.extend((u, v) for v in compress(range(u + 1, k), both))
    return pairs


def _widest_gap(m: Sequence[Sequence[int]], pairs: Iterable[tuple[int, int]], best: int) -> int:
    """The larger of best and the widest gap, largest pairing sum minus the
    next, over quadruples of the metric m whose largest sum pairs two of
    the given pairs.  Pairs are visited by decreasing distance and each is
    matched against those visited before it; a pair no longer than the
    best gap so far bounds every remaining gap, so the scan stops there."""
    by_length: dict[int, list[tuple[int, int]]] = {}
    for a, b in pairs:
        by_length.setdefault(m[a][b], []).append((a, b))
    # visited pairs (c, e) as c -> [(e, d(c, e))], so that each row entry
    # of c is read once per group
    seen: dict[int, list[tuple[int, int]]] = {}
    for dab in sorted(by_length, reverse=True):
        if dab <= best:
            break
        for a, b in by_length[dab]:
            ra, rb = m[a], m[b]
            # gap = dab + d(c,e) - max(d(a,c) + d(b,e), d(a,e) + d(b,c)),
            # and it beats best iff d(c,e) - max(...) beats lim
            lim = best - dab
            for c, group in seen.items():
                rac = ra[c]
                rbc = rb[c]
                # d(c,e) - max(...) <= -|d(a,c) - d(b,c)| for every e, by
                # the triangle inequality
                if rac - rbc <= lim or rbc - rac <= lim:
                    continue
                for e, dce in group:
                    s = rac + rb[e]
                    t = ra[e] + rbc
                    if t > s:
                        s = t
                    if dce - s > lim:
                        lim = dce - s
            best = dab + lim
            if best >= dab:
                return best
            seen.setdefault(a, []).append((b, dab))
    return best


def geodesic_interval(table: DistanceTable, x: int, y: int) -> list[int]:
    """Vertices lying on some geodesic from x to y."""
    rx, ry = table.row(x), table.row(y)
    dxy = rx[y]
    return [v for v, (a, b) in enumerate(zip(rx, ry)) if a + b == dxy]


def _levels(row: list[int]) -> list[list[int]]:
    """The vertices by their distance from the row's source."""
    levels: list[list[int]] = [[] for _ in range(max(row) + 1)]
    for v, t in enumerate(row):
        levels[t].append(v)
    return levels


def _on_geodesics_to(adj: list[list[int]], row: list[int], targets: Iterable[int]) -> bytearray:
    """Flags of the vertices on some geodesic from the row's source to a
    target: the targets' ancestors in the source's BFS DAG, walked down
    level by level."""
    on = bytearray(len(row))
    for z in targets:
        on[z] = 1
    for level in reversed(_levels(row)):
        for v in level:
            if on[v]:
                up = row[v] - 1
                for p in adj[v]:
                    if row[p] == up:
                        on[p] = 1
    return on


def quasiconvexity_constant(table: DistanceTable, subset: Sequence[int]) -> int:
    """Exact minimal a such that every geodesic between subset points stays
    in the a-neighbourhood of the subset.  Uses the interval
    characterization, which covers the union of all geodesics without
    enumerating them: the geodesics from x to later subset points cover
    the ancestors of those points in the BFS DAG of x.  The table must be
    the metric of a graph."""
    sub = sorted(set(subset))
    if not sub:
        raise ValidationError("quasiconvexity needs a nonempty subset")
    rows, adj = _graph_metric(table)
    to_sub = _column_min([rows[s] for s in sub])
    return max(
        max(compress(to_sub, _on_geodesics_to(adj, rows[x], sub[i:]))) for i, x in enumerate(sub)
    )


class StabilityReport(Record):
    """Witnessed (h0 -> r') table for the geodesic-stability scan.

    Row (h0, r') means: over all configurations (x, y, z) with y in the
    subset, d(x,y) <= d(x,subset) + r, and x on a geodesic [y,z], those
    with d(x,y) > h0 satisfy d(z,y) <= d(z,subset) + r'.
    """

    subset: tuple[int, ...]
    r: int
    table: tuple[tuple[int, int], ...]
    extremal: tuple[int, int, int] | None
    degenerate: bool

    def r_prime(self, h0: int) -> int:
        for h, rp in self.table:
            if h == h0:
                return rp
        return 0

    def to_dict(self) -> dict:
        return {
            "subset": list(self.subset),
            "r": self.r,
            "table": [[h, rp] for h, rp in self.table],
            "extremal": list(self.extremal) if self.extremal else None,
            "degenerate": self.degenerate,
        }


def check_qconvex_stability(table: DistanceTable, subset: Sequence[int], r: int) -> StabilityReport:
    """Exhaustive scan over all configurations satisfying the hypotheses;
    for every threshold h0 the least sufficient r' is witnessed.  The
    extremal field is the configuration of largest excess (ties broken by
    larger d(x,y), then lexicographically); None when every excess is 0.

    The table must be the metric of a graph.  For each y, x lies on a
    geodesic [y,z] iff x is an ancestor of z in the BFS DAG of y, so one
    walk down that DAG gives every z the set of levels d(x,y) of its
    admissible ancestors x, as a bitmask: O(n + m) per subset point."""
    sub = sorted(set(subset))
    if not sub:
        raise ValidationError("stability scan needs a nonempty subset")
    if r < 0:
        raise ValidationError("r must be non-negative")
    rows, adj = _graph_metric(table)
    hmax = max(map(max, rows))
    to_sub = _column_min([rows[s] for s in sub])
    # excess e -> union of the level masks of the z whose excess is e
    masks_at: dict[int, int] = {}
    # (excess, d(x,y), (x, y, z)) of the extremal configuration so far
    best: tuple = (0, 0, None)
    for y in sub:
        ry = rows[y]
        masks = _admissible_ancestor_levels(adj, ry, to_sub, r)
        key = (0, 0)
        for z, mask in enumerate(masks):
            e = ry[z] - to_sub[z]
            masks_at[e] = masks_at.get(e, 0) | mask
            # bit 0 is y itself, an admissible ancestor of every z; the
            # extremal configuration has d(x,y) >= 1
            if mask > 1:
                key = max(key, (e, mask.bit_length() - 1))
        emax, tmax = key
        if emax > 0 and key >= best[:2]:
            # the largest admissible x at level tmax above some z of excess
            # emax, then the largest such z below x
            ends = [
                z
                for z, mask in enumerate(masks)
                if ry[z] - to_sub[z] == emax and mask >> tmax & 1
            ]
            on = _on_geodesics_to(adj, ry, ends)
            x = max(v for v, t in enumerate(ry) if t == tmax and on[v] and t <= to_sub[v] + r)
            z = max(z for z in ends if rows[x][z] + tmax == ry[z])
            best = max(best, (emax, tmax, (x, y, z)))
    worst_at = [0] * (hmax + 2)
    for e, mask in masks_at.items():
        for t in range(mask.bit_length()):
            if mask >> t & 1 and e > worst_at[t]:
                worst_at[t] = e
    # r'(h0) covers configs with d(x,y) strictly above h0
    for t in range(hmax, -1, -1):
        worst_at[t] = max(worst_at[t], worst_at[t + 1])
    table_rows = tuple((h0, worst_at[h0 + 1]) for h0 in range(hmax + 1))
    return StabilityReport(
        tuple(sub), r, table_rows, best[2], all(rp == 0 for _, rp in table_rows)
    )


def _admissible_ancestor_levels(
    adj: list[list[int]], ry: list[int], to_sub: list[int], r: int
) -> list[int]:
    """For each z, the bitmask of the levels d(x,y) of the admissible x,
    d(x,y) <= d(x,subset) + r, that lie on a geodesic from y to z."""
    masks = [0] * len(ry)
    for level in _levels(ry):
        for v in level:
            t = ry[v]
            mask = 1 << t if t <= to_sub[v] + r else 0
            for p in adj[v]:
                if ry[p] < t:
                    mask |= masks[p]
            masks[v] = mask
    return masks


_CLAIMS = ("geodesic", "local-quasigeodesic", "quasigeodesic")


class PathWitness(Record):
    """Vertex path with a claimed quality, checkable against a distance
    oracle.  Quasigeodesic claims carry their constant k (and the window
    for local claims); a claimed k promises every sub-interval (within the
    window, for local claims) has edge length <= k * endpoint distance."""

    vertices: tuple
    claim: str = "geodesic"
    k: Fraction | None = None
    window: int | None = None

    def __post_init__(self) -> None:
        if not self.vertices:
            raise ValidationError("empty path")
        if self.claim not in _CLAIMS:
            raise ValidationError(f"unknown path claim {clip(self.claim)}")
        if self.claim == "geodesic":
            if self.k is not None or self.window is not None:
                raise ValidationError("geodesic claim takes no constants")
        else:
            if self.k is None or self.k < 1:
                raise ValidationError("quasigeodesic claim needs k >= 1")
            if self.claim == "local-quasigeodesic" and (self.window is None or self.window < 1):
                raise ValidationError("local claim needs a window >= 1")
            if self.claim == "quasigeodesic" and self.window is not None:
                raise ValidationError("global claim takes no window")

    def __len__(self) -> int:
        return len(self.vertices)

    def validate(self, dist: Callable[[object, object], int]) -> None:
        vs = self.vertices
        for u, v in zip(vs, vs[1:]):
            if dist(u, v) != 1:
                raise ValidationError(f"consecutive vertices not adjacent: {u}, {v}")
        if len(vs) < 2:
            return
        if self.claim == "geodesic":
            if dist(vs[0], vs[-1]) != len(vs) - 1:
                raise ValidationError("path is not a geodesic")
            return
        limit = self.window if self.claim == "local-quasigeodesic" else len(vs) - 1
        for i in range(len(vs)):
            for j in range(i + 1, min(i + limit, len(vs) - 1) + 1):
                d = dist(vs[i], vs[j])
                if d == 0:
                    raise ValidationError(f"revisited vertex over interval ({i}, {j})")
                if j - i > self.k * d:
                    raise ValidationError(
                        f"claimed constant {self.k} violated on interval ({i}, {j})"
                    )

    def to_dict(self) -> dict:
        out: dict = {"vertices": [str(v) for v in self.vertices], "claim": self.claim}
        if self.k is not None:
            out["k"] = [self.k.numerator, self.k.denominator]
        if self.window is not None:
            out["window"] = self.window
        return out


class QuasigeodesicReport(Record):
    """Measured local and global quasigeodesic quality of a path."""

    window: int
    local_k: Fraction | None
    global_k: Fraction | None
    ok: bool
    offending: tuple[int, int] | None

    def to_dict(self) -> dict:
        def enc(x: Fraction | None) -> list[int] | None:
            return None if x is None else [x.numerator, x.denominator]

        return {
            "window": self.window,
            "local_k": enc(self.local_k),
            "global_k": enc(self.global_k),
            "ok": self.ok,
            "offending": list(self.offending) if self.offending else None,
        }


def _as_dist(dist: object) -> Callable[[object, object], int]:
    if isinstance(dist, DistanceTable):
        return dist
    if callable(dist):
        return dist  # type: ignore[return-value]
    raise ValidationError("distance oracle must be a DistanceTable or callable")


def local_to_global_report(
    dist: object,
    path: object,
    window: int,
    rows: Callable[[object, Sequence], Sequence[int]] | None = None,
) -> QuasigeodesicReport:
    """Worst (edge length)/(endpoint distance) ratio over sub-intervals of
    length at most the window (local) and over all sub-intervals (global).
    A sub-interval of positive length with coinciding endpoints is not a
    quasigeodesic at any constant; the report flags the offending interval
    and carries no ratios.  rows(u, vs), when given, must return
    [dist(u, v) for v in vs]; it lets an oracle share work along a row."""
    from fractions import Fraction

    d = _as_dist(dist)
    if window < 1:
        raise ValidationError("window must be at least 1")
    if isinstance(path, PathWitness):
        path.validate(d)
        seq: Sequence = path.vertices
    else:
        seq = path  # type: ignore[assignment]
    if rows is None:

        def rows(u: object, vs: Sequence) -> list[int]:
            return [d(u, v) for v in vs]

    n = len(seq)
    # ratios as integer pairs (num, den), compared by cross-multiplication
    local_n, local_d = 1, 1
    global_n, global_d = 1, 1
    for i in range(n - 1):
        for j, dist_ij in enumerate(rows(seq[i], seq[i + 1 :]), start=i + 1):
            if dist_ij == 0:
                return QuasigeodesicReport(window, None, None, False, (i, j))
            span = j - i
            if span * global_d > global_n * dist_ij:
                global_n, global_d = span, dist_ij
            if span <= window and span * local_d > local_n * dist_ij:
                local_n, local_d = span, dist_ij
    return QuasigeodesicReport(
        window, Fraction(local_n, local_d), Fraction(global_n, global_d), True, None
    )


def read_graph(text: str) -> FiniteGraph:
    """Edge-list format: first line 'n m', then m lines 'u v' (0-based).
    Blank lines and lines starting with '#' are ignored."""
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln and not ln.startswith("#")]
    if not lines:
        raise ParseError("empty graph file")
    head = lines[0].split()
    if len(head) != 2:
        raise ParseError(f"header must be 'n m', got {clip(lines[0])}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError as exc:
        raise ParseError(f"bad header: {exc}") from exc
    body = lines[1:]
    if len(body) != m:
        raise ParseError(f"expected {m} edge lines, found {len(body)}")
    pairs: list[tuple[int, int]] = []
    for ln in body:
        parts = ln.split()
        if len(parts) != 2:
            raise ParseError(f"edge line must be 'u v', got {clip(ln)}")
        try:
            pairs.append((int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise ParseError(f"bad edge line {clip(ln)}: {exc}") from exc
    return FiniteGraph.from_edges(n, pairs)


def path_graph(n: int) -> FiniteGraph:
    return FiniteGraph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> FiniteGraph:
    return FiniteGraph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> FiniteGraph:
    return FiniteGraph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
