"""Finite metric-graph laboratory: hyperbolicity, quasiconvexity, stability.

Everything is exact: distances are BFS integers, the four-point constant is
a half-integer Fraction, and quasiconvexity constants come from the interval
characterization (v lies on a geodesic from x to y iff d(x,v)+d(v,y)=d(x,y),
since concatenating geodesics through such a v realizes the distance).

The four-point constant is not an exhaustive scan.  It follows N. Cohen,
D. Coudert and A. Lancin, "On computing the Gromov hyperbolicity" (ACM JEA
2015), and is exact for three reasons:

- a graph's constant is the largest over its biconnected blocks, each an
  isometric subgraph, and a block of at most three vertices has 0;
- moving an end of a pair to a neighbour farther from the other end raises
  the largest pairing sum by one and the other two by at most one, so some
  worst quadruple has both pairs of its largest sum far apart: no
  neighbour of either end lies farther from the other end, in the block;
- by the triangle inequality the gap of a quadruple is at most the shorter
  pair of its largest sum, so pairs visited by decreasing distance can stop
  at the first one no longer than the best gap found.

The explicit geodesic enumerator is kept as a separate utility with a hard
cap; above the cap it degrades to a uniform sample and says so.

Quasigeodesic constants are plain ratios: K' is the max over sub-intervals
of (edge length)/(endpoint distance), so length <= K'*d holds exactly and
the additive-slack-1 form length <= K'*d + 1 holds a fortiori.

Distance tables keep their rows as Python lists.  numpy is imported inside
the functions that work on the table's array form, not at module level, so
that only `hyplab` loads it: gluing commands, graph backends included, read
rows and single distances.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from .errors import ParseError, ValidationError, clip
from .record import Record

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "FiniteGraph",
    "DistanceTable",
    "PathWitness",
    "StabilityReport",
    "QuasigeodesicReport",
    "GeodesicFamily",
    "all_pairs_distances",
    "four_point_delta",
    "geodesic_interval",
    "quasiconvexity_constant",
    "count_geodesics",
    "enumerate_geodesics",
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
    """All-pairs distances, kept as one Python list per row.  The int64
    array that the array functions read is built on the first as_array()
    call; the metric invariants are checkable on demand."""

    def __init__(self, matrix: np.ndarray | Sequence[Sequence[int]]):
        rows = matrix.tolist() if hasattr(matrix, "tolist") else matrix
        self._rows = [list(map(int, row)) for row in rows]
        self._array: np.ndarray | None = None

    @classmethod
    def _of_rows(cls, rows: list[list[int]]) -> "DistanceTable":
        """Wraps fresh rows of Python ints without copying them."""
        table = cls.__new__(cls)
        table._rows = rows
        table._array = None
        return table

    @property
    def n(self) -> int:
        return len(self._rows)

    def d(self, u: int, v: int) -> int:
        return self._rows[u][v]

    def __call__(self, u: int, v: int) -> int:
        return self._rows[u][v]

    def row(self, u: int) -> list[int]:
        """Distances from u to every vertex; the caller must not mutate it."""
        return self._rows[u]

    def as_array(self) -> np.ndarray:
        """The table as a read-only n x n int64 array, built once."""
        if self._array is None:
            import numpy as np

            n = self.n
            self._array = np.array(self._rows, dtype=np.int64).reshape(n, n)
            self._array.flags.writeable = False
        return self._array

    def submatrix(self, vertices: Sequence[int]) -> "DistanceTable":
        idx = list(vertices)
        rows = self._rows
        return DistanceTable._of_rows([[rows[u][v] for v in idx] for u in idx])

    def check(self) -> None:
        import numpy as np

        n = self.n
        if any(len(row) != n for row in self._rows):
            raise ValidationError("distance table not square")
        m = self.as_array()
        if not np.array_equal(m, m.T):
            raise ValidationError("distance table not symmetric")
        if np.any(np.diag(m) != 0):
            raise ValidationError("distance table has nonzero diagonal")
        if np.any(m < 0):
            raise ValidationError("negative distance")
        for k in range(n):
            via = m[:, k][:, None] + m[k, :][None, :]
            if np.any(m > via):
                raise ValidationError("triangle inequality violated")


def all_pairs_distances(g: FiniteGraph) -> DistanceTable:
    """Level-synchronous BFS from every vertex."""
    n = g.vertex_count
    adj = g.adjacency()
    rows = []
    for s in range(n):
        row = [-1] * n
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
        rows.append(row)
    return DistanceTable._of_rows(rows)


def four_point_delta(table: DistanceTable) -> Fraction:
    """Least delta such that for every vertex quadruple the two largest of
    the three pairing sums d(i,j)+d(k,l), d(i,k)+d(j,l), d(i,l)+d(j,k)
    differ by at most 2*delta.

    When the table is the metric of the graph its distance-1 pairs span,
    the scan runs per biconnected block over the far-apart pairs only;
    otherwise the table must be a metric, and the scan runs over all
    pairs.  Both are exact: see the module docstring."""
    import numpy as np

    m = table.as_array()
    adj = _metric_graph(m)
    if adj is None:
        table.check()
        a, b = np.triu_indices(table.n, 1)
        return Fraction(_widest_gap(m, a, b, 0), 2)
    best = 0
    for block in _blocks(adj):
        if len(block) >= 4:
            mb = m[np.ix_(block, block)]
            a, b = _far_apart_pairs(mb)
            best = _widest_gap(mb, a, b, best)
    return Fraction(best, 2)


def _metric_graph(m: np.ndarray) -> list[list[int]] | None:
    """Adjacency lists of the graph of distance-1 pairs when m is exactly
    its metric: symmetric adjacency, zero diagonal, and every other entry
    1 + the least entry over the row vertex's neighbours.  None otherwise."""
    import numpy as np

    one = m == 1
    if not np.array_equal(one, one.T) or np.diagonal(m).any():
        return None
    adj = []
    for u, nbrs in enumerate(one):
        (nb,) = np.nonzero(nbrs)
        if nb.size:
            via = m[nb].min(axis=0) + 1
            via[u] = 0
            if not np.array_equal(via, m[u]):
                return None
        elif len(m) > 1:
            return None
        adj.append(nb.tolist())
    return adj


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


def _far_apart_pairs(mb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pairs (u, v), u < v, of a block's metric such that no neighbour of
    u is farther from v and no neighbour of v is farther from u."""
    import numpy as np

    one = mb == 1
    far = np.empty_like(one)
    for u in range(len(mb)):
        far[u] = mb[one[u]].max(axis=0) <= mb[u]
    far &= far.T
    return np.nonzero(np.triu(far, 1))


def _widest_gap(m: np.ndarray, a: np.ndarray, b: np.ndarray, best: int) -> int:
    """The larger of best and the widest gap, largest pairing sum minus the
    next, over quadruples whose largest sum pairs (a[i], b[i]) with
    (a[j], b[j]).  Pairs are visited by decreasing distance and each is
    matched against those visited before it; a pair no longer than the
    best gap so far bounds every remaining gap, so the scan stops there."""
    import numpy as np

    d = m[a, b]
    order = np.argsort(-d, kind="stable")
    a, b, d = a[order], b[order], d[order]
    for i in range(1, len(d)):
        dab = int(d[i])
        if dab <= best:
            break
        ra, rb = m[a[i]], m[b[i]]
        c, e = a[:i], b[:i]
        gap = dab + d[:i] - np.maximum(ra[c] + rb[e], ra[e] + rb[c])
        best = max(best, int(gap.max()))
    return best


def geodesic_interval(table: DistanceTable, x: int, y: int) -> list[int]:
    """Vertices lying on some geodesic from x to y."""
    rx = table.row(x)
    return [v for v in range(table.n) if rx[v] + table.d(v, y) == rx[y]]


def quasiconvexity_constant(table: DistanceTable, subset: Sequence[int]) -> int:
    """Exact minimal a such that every geodesic between subset points stays
    in the a-neighbourhood of the subset.  Uses the interval
    characterization, which covers the union of all geodesics without
    enumerating them."""
    import numpy as np

    sub = sorted(set(subset))
    if not sub:
        raise ValidationError("quasiconvexity needs a nonempty subset")
    m = table.as_array()
    to_sub = np.min(m[:, sub], axis=1)
    best = 0
    for i, x in enumerate(sub):
        for y in sub[i:]:
            on = m[x, :] + m[:, y] == m[x, y]
            best = max(best, int(np.max(to_sub[on])))
    return best


class GeodesicFamily(Record):
    """Result of enumerate_geodesics: possibly a uniform sample."""

    paths: tuple[tuple[int, ...], ...]
    count: int
    sampled: bool


def _geodesic_successors(
    d: Callable[[int, int], int], adj: list[list[int]], x: int, y: int, v: int
) -> list[int]:
    return [w for w in adj[v] if d(x, w) == d(x, v) + 1 and d(w, y) == d(v, y) - 1]


def count_geodesics(table: DistanceTable, g: FiniteGraph, x: int, y: int) -> int:
    """Number of geodesics from x to y, by dynamic programming over the
    predecessor DAG."""
    adj = g.adjacency()
    d = table.d
    if x == y:
        return 1
    order = sorted(geodesic_interval(table, x, y), key=lambda v: d(x, v))
    ways = {x: 1}
    for v in order:
        if v == x:
            continue
        ways[v] = sum(
            ways.get(u, 0) for u in adj[v] if d(x, u) + 1 == d(x, v) and d(u, y) == d(v, y) + 1
        )
    return ways.get(y, 0)


def enumerate_geodesics(
    g: FiniteGraph,
    table: DistanceTable,
    x: int,
    y: int,
    cap: int = 10**6,
    sample_size: int = 1000,
    seed: int = 0,
) -> GeodesicFamily:
    """All geodesics from x to y via the predecessor DAG.

    When their number exceeds the cap, a sample (weighted by completion
    counts, so each geodesic is equally likely) is returned instead and
    the family is flagged sampled.
    """
    adj = g.adjacency()
    d = table.d
    total = count_geodesics(table, g, x, y)
    if total <= cap:
        out: list[tuple[int, ...]] = []

        def walk(prefix: list[int]) -> None:
            v = prefix[-1]
            if v == y:
                out.append(tuple(prefix))
                return
            for w in _geodesic_successors(d, adj, x, y, v):
                walk(prefix + [w])

        walk([x])
        return GeodesicFamily(tuple(out), total, sampled=False)
    ways_from = {y: 1}
    order = sorted(geodesic_interval(table, x, y), key=lambda v: -d(x, v))
    for v in order:
        if v == y:
            continue
        ways_from[v] = sum(ways_from.get(w, 0) for w in _geodesic_successors(d, adj, x, y, v))
    rng = random.Random(seed)
    sample = []
    for _ in range(sample_size):
        cur = x
        path = [x]
        while cur != y:
            nexts = _geodesic_successors(d, adj, x, y, cur)
            cur = rng.choices(nexts, weights=[ways_from[w] for w in nexts])[0]
            path.append(cur)
        sample.append(tuple(path))
    return GeodesicFamily(tuple(sample), total, sampled=True)


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
    larger d(x,y), then lexicographically); None when every excess is 0."""
    import numpy as np

    sub = sorted(set(subset))
    if not sub:
        raise ValidationError("stability scan needs a nonempty subset")
    if r < 0:
        raise ValidationError("r must be non-negative")
    m = table.as_array()
    hmax = int(m.max())
    to_sub = np.min(m[:, sub], axis=1)
    # worst_at[t] = max excess over configs with d(x,y) == t
    worst_at = np.zeros(hmax + 2, dtype=np.int64)
    best: tuple[int, int, tuple[int, int, int]] | None = None
    for y in sub:
        ok_x = m[:, y] <= to_sub + r
        if not ok_x.any():
            continue
        on_geo = (m[y, :][:, None] + m) == m[y, :][None, :]  # indexed [x, z]
        xs, zs = np.nonzero(on_geo & ok_x[:, None])
        if xs.size == 0:
            continue
        t = m[xs, y]
        e = m[zs, y] - to_sub[zs]
        np.maximum.at(worst_at, t, e)
        # configs with d(x,y) = 0 never pass any threshold; the extremal
        # witness comes from those that feed the table
        live = t >= 1
        if not live.any():
            continue
        emax = int(e[live].max())
        if emax > 0:
            sel = live & (e == emax)
            tmax = int(t[sel].max())
            sel &= t == tmax
            x_best, z_best = max(zip(xs[sel].tolist(), zs[sel].tolist()))
            cand = (emax, tmax, (x_best, y, z_best))
            if best is None or cand > best:
                best = cand
    # r'(h0) covers configs with d(x,y) strictly above h0
    suffix = np.maximum.accumulate(worst_at[::-1])[::-1]
    rows = tuple((h0, int(suffix[h0 + 1])) for h0 in range(hmax + 1))
    extremal = best[2] if best else None
    return StabilityReport(tuple(sub), r, rows, extremal, all(rp == 0 for _, rp in rows))


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
                if Fraction(j - i, d) > self.k:
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
