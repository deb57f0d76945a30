"""The hyperbolic-graph laboratory behind `glueforge hyplab`.

Every kernel reads the metric of a finite graph (`hypgraph.FiniteGraph`)
and walks that graph.  Everything is exact: distances are BFS
integers, the four-point constant is a half-integer Fraction, and
quasiconvexity constants come from the interval characterization of
`hypgraph.geodesic_interval`.

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

The quasiconvexity constant and the stability scan walk the BFS DAG of
each subset point instead of testing every vertex pair, so they cost
O(n + m) per point.
"""

from __future__ import annotations

from itertools import compress
from operator import and_, itemgetter, le
from typing import TYPE_CHECKING, Iterable, Sequence

from .errors import ParseError, ValidationError, ascii_int, clip
from .hypgraph import FiniteGraph, geodesic_interval
from .record import Record

if TYPE_CHECKING:  # fractions loads decimal: four_point_delta imports it when called
    from fractions import Fraction

__all__ = [
    "StabilityReport",
    "four_point_delta",
    "quasiconvexity_constant",
    "check_qconvex_stability",
    "read_graph",
    "lab_report",
]

# Most vertices `hyplab` takes.  Its kernels read every distance row, so
# its cost grows at least as n^2: a path at the cap takes about 6 s and
# 125 MiB.  A larger graph exits 3 before any row is computed.
MAX_HYPLAB_VERTICES = 2_000


def _column_min(rows: Sequence[Sequence[int]]) -> list[int]:
    """Entrywise minimum of one or more equally long rows."""
    return list(map(min, *rows)) if len(rows) > 1 else list(rows[0])


def four_point_delta(g: FiniteGraph) -> Fraction:
    """Least delta such that for every vertex quadruple the two largest of
    the three pairing sums d(i,j)+d(k,l), d(i,k)+d(j,l), d(i,l)+d(j,k)
    differ by at most 2*delta.

    The scan runs per biconnected block of g over the far-apart pairs
    only, and is exact: see the module docstring."""
    from fractions import Fraction

    return Fraction(_doubled_delta(g), 2)


def _doubled_delta(g: FiniteGraph) -> int:
    """Twice `four_point_delta`, an int, so that the report needs no
    `fractions`."""
    rows = g.rows()
    best = 0
    for block in _blocks(g.adjacency):
        if len(block) >= 4:
            get = itemgetter(*block)
            mb = [get(rows[u]) for u in block]
            # a clique: every pairing sum is 2, so its gap is 0
            if max(map(max, mb)) > 1:
                best = _widest_gap(mb, _far_apart_pairs(mb), best)
    return best


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


def quasiconvexity_constant(g: FiniteGraph, subset: Sequence[int]) -> int:
    """Exact minimal a such that every geodesic between subset points stays
    in the a-neighbourhood of the subset.  Uses the interval
    characterization, which covers the union of all geodesics without
    enumerating them: the geodesics from x to later subset points cover
    the ancestors of those points in the BFS DAG of x."""
    sub = sorted(set(subset))
    if not sub:
        raise ValidationError("quasiconvexity needs a nonempty subset")
    rows, adj = g.rows(), g.adjacency
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


def check_qconvex_stability(g: FiniteGraph, subset: Sequence[int], r: int) -> StabilityReport:
    """Exhaustive scan over all configurations satisfying the hypotheses;
    for every threshold h0 the least sufficient r' is witnessed.  The
    extremal field is the configuration of largest excess (ties broken by
    larger d(x,y), then lexicographically); None when every excess is 0.

    For each y, x lies on a geodesic [y,z] iff x is an ancestor of z in
    the BFS DAG of y, so one walk down that DAG gives every z the set of
    levels d(x,y) of its admissible ancestors x, as a bitmask: O(n + m)
    per subset point."""
    sub = sorted(set(subset))
    if not sub:
        raise ValidationError("stability scan needs a nonempty subset")
    if r < 0:
        raise ValidationError("r must be non-negative")
    rows, adj = g.rows(), g.adjacency
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


def read_graph(text: str) -> FiniteGraph:
    """Edge-list format: first line 'n m', then m lines 'u v' (0-based), of
    ASCII integers.  Blank lines and lines starting with '#' are ignored."""
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln and not ln.startswith("#")]
    if not lines:
        raise ParseError("empty graph file")
    head = lines[0].split()
    if len(head) != 2:
        raise ParseError(f"header must be 'n m', got {clip(lines[0])}")
    try:
        n, m = ascii_int(head[0]), ascii_int(head[1])
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
            pairs.append((ascii_int(parts[0]), ascii_int(parts[1])))
        except ValueError as exc:
            raise ParseError(f"bad edge line {clip(ln)}: {exc}") from exc
    return FiniteGraph.from_edges(n, pairs)


def lab_report(text: str, r: int) -> dict:
    """The result of `glueforge hyplab --R r` on a graph file's text."""
    graph = read_graph(text)
    if graph.vertex_count > MAX_HYPLAB_VERTICES:
        raise ValidationError(
            f"hyplab takes at most {MAX_HYPLAB_VERTICES} vertices, got {graph.vertex_count}"
        )
    delta2 = _doubled_delta(graph)
    # the widest geodesic interval doubles as the stability test bed: the
    # first diametral pair in row-major order
    rows = graph.rows()
    diameter = max(map(max, rows))
    x = next(u for u, row in enumerate(rows) if max(row) == diameter)
    y = rows[x].index(diameter)
    interval = geodesic_interval(graph, x, y)
    stability = check_qconvex_stability(graph, interval, r)
    return {
        "vertices": graph.vertex_count,
        "delta": [delta2 // 2, 1] if delta2 % 2 == 0 else [delta2, 2],
        "diameter": diameter,
        "interval": {
            "endpoints": [x, y],
            "vertices": interval,
            "quasiconvexity": quasiconvexity_constant(graph, interval),
        },
        "stability": stability.to_json(),
    }
