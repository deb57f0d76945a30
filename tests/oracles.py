"""Independent oracles used to freeze expected values.

Everything here is deliberately written against plain integer tuples and
brute-force definitions, so that it shares no code path with the package:
the Farey oracle builds the mediant tessellation and runs BFS, while the
production distance is a continued-fraction descent.  The exceptions are
the reference kernels at the end: the package's former per-target row and
pivot searches, kept to test their replacements against, its former single
annular projection, which the projection tests and criterion 6 read, and
the geodesic enumerator that no command uses.  The last section holds the
former library functions that no command reaches: builders, a reader and
checkers that the tests use on package values, and after them the one
runner of a fresh interpreter.
"""

from __future__ import annotations

import json
import math
import os
import pathlib
import random
import subprocess
import sys
from collections import deque
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Callable, Mapping, NamedTuple, Sequence

import glueforge
from glueforge.decimalpath import _balanced_ints, _exact_tie_break
from glueforge.errors import ParseError, ValidationError, clip
from glueforge.gluing import (
    COMPRESSION_BODY,
    DecoratedManifoldSpec,
    GluingGraph,
    Identification,
    Slot,
    SlotMap,
    _slot_name,
)
from glueforge.halfplane import (
    TeichPoint,
    Tube,
    TubeSample,
    _short_slopes,
    curve_length,
    shortest_slope,
)
from glueforge.model import SCHEMA, ModelSkeleton, PieceBlock, TubeBlock
from glueforge.record import Record
from glueforge.surface import AbstractMarking, BackendHandle, _require_same
from glueforge.torus import FareyMarking, Slope, SurfaceMap, normalizer_to_infinity

INF = (1, 0)


def canon(p: int, q: int) -> tuple[int, int]:
    g = math.gcd(p, q)
    p, q = p // g, q // g
    if q < 0:
        p, q = -p, -q
    return (1, 0) if q == 0 else (p, q)


def build_unit_interval_farey_graph(max_denom: int) -> dict[tuple[int, int], set[tuple[int, int]]]:
    """Farey tessellation on [0,1] with denominators <= max_denom, plus infinity.

    Edges inside [0,1] come from the Stern-Brocot mediant recursion seeded
    with (0/1, 1/1); infinity connects to the integers 0 and 1 only, which
    is the full adjacency of infinity within this vertex set.
    """
    adj: dict[tuple[int, int], set[tuple[int, int]]] = {}

    def add_edge(u: tuple[int, int], v: tuple[int, int]) -> None:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)

    stack = [((0, 1), (1, 1))]
    add_edge((0, 1), (1, 1))
    while stack:
        (a, b), (c, d) = stack.pop()
        m = (a + c, b + d)
        if m[1] > max_denom:
            continue
        add_edge((a, b), m)
        add_edge(m, (c, d))
        stack.append(((a, b), m))
        stack.append((m, (c, d)))
    add_edge(INF, (0, 1))
    add_edge(INF, (1, 1))
    return adj


def bfs_distances(
    adj: dict[tuple[int, int], set[tuple[int, int]]], source: tuple[int, int]
) -> dict[tuple[int, int], int]:
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def unit_interval_slopes(max_denom: int) -> list[tuple[int, int]]:
    """All p/q in [0,1] with q <= max_denom, plus infinity."""
    out = [INF]
    for q in range(1, max_denom + 1):
        for p in range(0, q + 1):
            if math.gcd(p, q) == 1:
                out.append((p, q))
    return sorted(set(out))


class FareyOracle:
    """BFS distances over the truncated tessellation."""

    def __init__(self, endpoint_denom: int, graph_denom: int):
        self.graph = build_unit_interval_farey_graph(graph_denom)
        self.endpoints = unit_interval_slopes(endpoint_denom)
        self._tables: dict[tuple[int, int], dict[tuple[int, int], int]] = {}

    def distance(self, a: tuple[int, int], b: tuple[int, int]) -> int:
        a, b = canon(*a), canon(*b)
        if a not in self._tables:
            self._tables[a] = bfs_distances(self.graph, a)
        return self._tables[a][b]


def brute_force_delta(dist: list[list[int]]) -> Fraction:
    """Four-point hyperbolicity constant by exhaustive quadruple scan."""
    n = len(dist)
    worst = 0
    for i in range(n):
        for j in range(i, n):
            for k in range(j, n):
                for l in range(k, n):
                    s = sorted(
                        (
                            dist[i][j] + dist[k][l],
                            dist[i][k] + dist[j][l],
                            dist[i][l] + dist[j][k],
                        )
                    )
                    worst = max(worst, s[2] - s[1])
    return Fraction(worst, 2)


def exhaustive_delta(g) -> Fraction:
    """Least delta such that for every vertex quadruple the two largest of
    the three pairing sums d(i,j)+d(k,l), d(i,k)+d(j,l), d(i,l)+d(j,k)
    differ by at most 2*delta.  Exhaustive; quadruples with repeats
    contribute gap 0, so scanning i<j against all (k,l) is complete."""
    import numpy as np

    m = table_array(g)
    n = g.vertex_count
    worst = 0
    for i in range(n):
        mi = m[i][:, None]
        for j in range(i + 1, n):
            s1 = m[i, j] + m
            s2 = mi + m[j][None, :]
            s3 = s2.T
            hi = np.maximum(s1, s2)
            lo = np.minimum(s1, s2)
            top = np.maximum(hi, s3)
            mid = np.maximum(lo, np.minimum(hi, s3))
            gap = int((top - mid).max())
            if gap > worst:
                worst = gap
    return Fraction(worst, 2)


def all_geodesics(adj: dict, dist, x, y) -> list[tuple]:
    """Every geodesic from x to y by DFS over the BFS predecessor structure."""
    if x == y:
        return [(x,)]
    out = []
    for nxt in sorted(adj[x]):
        if dist(nxt, y) == dist(x, y) - 1:
            out.extend((x,) + rest for rest in all_geodesics(adj, dist, nxt, y))
    return out


SCAN_TIE_TOL = 1e-9


def scan_shortest_slope(x: float, y: float) -> tuple[int, int]:
    """Shortest slope at x + iy by scanning denominators q = 0, 1, 2, ...

    The reference for the lattice-reduced kernel: it stops once q * y
    alone exceeds the best length, so its cost grows like 1/y.  The float
    norm, tie margin and tie key are those the package documents: finite
    slopes first, then (q, |p|, p).
    """

    def norm_sq(p: int, q: int) -> float:
        dx = p - q * x
        dy = q * y
        return dx * dx + dy * dy

    def key(s: tuple[int, int]) -> tuple[int, int, int, int]:
        p, q = s
        return (1 if q == 0 else 0, q, abs(p), p)

    best = None
    best_n = math.inf
    q = 0
    while True:
        if q == 0:
            cands = [(1, 0)]
        else:
            if (q * y) ** 2 > best_n * (1 + SCAN_TIE_TOL):
                break
            center = round(q * x)
            cands = [(p, q) for p in range(center - 2, center + 3) if math.gcd(p, q) == 1]
        for cand in cands:
            n = norm_sq(*cand)
            if n < best_n * (1 - SCAN_TIE_TOL) or best is None:
                best, best_n = cand, n
            elif n <= best_n * (1 + SCAN_TIE_TOL) and key(cand) < key(best):
                best, best_n = cand, min(best_n, n)
        q += 1
    assert best is not None
    return best


# --- decimal-path reference ----------------------------------------------
#
# The tubes of the decimal path (`decimalpath`) recomputed at a fixed
# precision far above the working precision of every tube the tests give it,
# by other formulas: the length from cosh d = 1 + |z - w|^2 / (2 y_z y_w) of
# the rational ends, not from the trace of sigma(mu)^-1 sigma(nu); the
# samples through the Moebius map that sends the geodesic to the imaginary
# axis, not through tanh and sech; the shortest slope by reduction into the
# fundamental domain, not by Lagrange-Gauss.

REFERENCE_DIGITS = 600
REFERENCE_TIE = Decimal("1e-9")


def reference_tube(
    sigma_a, sigma_b, n: int
) -> tuple[float, list[tuple[float, float, float, tuple[int, int]]]]:
    """Length and n samples (x, y, systole, shortest (p, q)) of the tube
    from sigma_a i to sigma_b i, rounded to doubles from REFERENCE_DIGITS."""

    def end(g) -> tuple[Fraction, Fraction]:
        s = g.c * g.c + g.d * g.d
        return Fraction(g.a * g.c + g.b * g.d, s), Fraction(1, s)

    (xa, ya), (xb, yb) = end(sigma_a), end(sigma_b)
    with localcontext() as ctx:
        ctx.prec = REFERENCE_DIGITS
        u = 1 + ((xa - xb) ** 2 + (ya - yb) ** 2) / (2 * ya * yb)
        root = (_dec(u - 1) * _dec(u + 1)).sqrt()
        length = float((_dec(u) + root).ln() / 2) if u != 1 else 0.0
        points = []
        if xa == xb:
            la, lb = _dec(ya).ln(), _dec(yb).ln()
            for k in range(n):
                points.append((_dec(xa), (((n - 1 - k) * la + k * lb) / (n - 1)).exp()))
        else:
            c = (xb * xb + yb * yb - xa * xa - ya * ya) / (2 * (xb - xa))
            r = _dec((xa - c) ** 2 + ya * ya).sqrt()
            e1, e2 = _dec(c) - r, _dec(c) + r

            def log_lam(x: Fraction, y: Fraction) -> Decimal:
                # w = (z - e1)/(e2 - z) is i lam on the geodesic
                dx, dy = _dec(x), _dec(y)
                return (((dx - e1) ** 2 + dy * dy) / ((e2 - dx) ** 2 + dy * dy)).ln() / 2

            ta, tb = log_lam(xa, ya), log_lam(xb, yb)
            for k in range(n):
                lam = (((n - 1 - k) * ta + k * tb) / (n - 1)).exp()
                lam2 = lam * lam
                points.append(((e1 + e2 * lam2) / (1 + lam2), 2 * r * lam / (1 + lam2)))
        samples = []
        for x, y in points:
            (p, q), norm = _reference_shortest(x, y)
            samples.append((float(x), float(y), float((norm / y).sqrt()), (p, q)))
    return length, samples


def _dec(v: Fraction) -> Decimal:
    return Decimal(v.numerator) / v.denominator


def _reference_shortest(x: Decimal, y: Decimal) -> tuple[tuple[int, int], Decimal]:
    """Shortest slope at x + iy and its norm |p - q z|^2, under the tie rule
    the package documents.  z moves into the fundamental domain
    |Re w| <= 1/2, |w| >= 1 by w -> w - n and w -> -1/w; there 1/0 has norm 1
    and only 0/1, 1/1 and -1/1 can come within twice it, and pulling the
    four back gives the short slopes at z (lengths are invariant)."""
    # g = [[a, b], [c, d]] with w = g z, as Moebius maps
    a, b, c, d = 1, 0, 0, 1
    wx, wy = x, y
    while True:
        m = int(wx.to_integral_value())
        wx -= m
        a, b = a - m * c, b - m * d
        r2 = wx * wx + wy * wy
        if r2 >= 1:
            break
        wx, wy = -wx / r2, wy / r2
        a, b, c, d = -c, -d, a, b
    # g^-1 = [[d, -b], [-c, a]] sends (p, q) to (d p - b q, -c p + a q)
    cands = []
    for p, q in ((1, 0), (0, 1), (1, 1), (-1, 1)):
        pp, qq = d * p - b * q, -c * p + a * q
        if qq < 0 or (qq == 0 and pp < 0):
            pp, qq = -pp, -qq
        cands.append((pp, qq))

    def norm(s: tuple[int, int]) -> Decimal:
        return (s[0] - s[1] * x) ** 2 + (s[1] * y) ** 2

    least = min(map(norm, cands))
    cands = sorted((s for s in cands if norm(s) <= 2 * least), key=lambda s: (s[1], s[0]))
    best, best_n = cands[0], norm(cands[0])
    for s in cands[1:]:
        n = norm(s)
        if n < best_n * (1 - REFERENCE_TIE):
            best, best_n = s, n
        elif n <= best_n * (1 + REFERENCE_TIE) and _tie_key(s) < _tie_key(best):
            best, best_n = s, min(best_n, n)
    return best, best_n


def _tie_key(s: tuple[int, int]) -> tuple[int, int, int, int]:
    p, q = s
    return (1 if q == 0 else 0, q, abs(p), p)


def reference_balanced_marking(g: SurfaceMap) -> FareyMarking:
    """The package's former `halfplane.balanced_marking`: the shortest
    slope at the exact balanced point g i by Lagrange-Gauss reduction and
    the tie rule on exact norms, then its shortest neighbour from a window
    of the base's chart around the real minimizer."""
    x, den, _ = _balanced_ints(g)
    base, _ = _exact_tie_break(_short_slopes(x, 1, den), x, 1, den)
    minv = normalizer_to_infinity(base).inverse()
    # the k minimizing |k (a - c z) + (b - d z)|^2, scaled by den
    ar, ai = minv.a * den - minv.c * x, -minv.c
    br, bi = minv.b * den - minv.d * x, -minv.d
    k0 = -(ar * br + ai * bi) // (ar * ar + ai * ai)
    window = (minv.on_slope(Slope(k, 1)) for k in range(k0 - 3, k0 + 5))
    neighbour, _ = _exact_tie_break(window, x, 1, den)
    return FareyMarking(base, neighbour)


# --- former torus kernels, kept as differential references ---------------
#
# The package's own row and pivot code before their depth-linear rewrites.
# Unlike the oracles above they run on glueforge.torus slopes and maps,
# but they build every slope through the gcd-checking constructor and
# every chart by full big-integer products.


def reference_dist_from_infinity(r: int, q: int) -> int:
    """Farey distance from infinity to r/q, 0 <= r < q: the min-plus row
    over one full Euclid expansion, without a memo."""
    u, v = 0, 1
    while r:
        a, rem = divmod(q, r)
        w = u + 1
        u, v = (w if w < v else v), u + a
        q, r = r, rem
    return u + 1


def reference_row(a, targets) -> list[int]:
    """Farey distances from a to each target, one full expansion per target."""
    from glueforge.torus import normalizer_to_infinity

    m = normalizer_to_infinity(a)
    out = []
    for t in targets:
        num = m.a * t.p + m.b * t.q
        den = m.c * t.p + m.d * t.q
        if den < 0:
            num, den = -num, -den
        out.append(0 if den == 0 else reference_dist_from_infinity(num % den, den))
    return out


def _reference_convergents(s):
    from glueforge.torus import Slope, cf_expansion

    h_prev, k_prev = 0, 1
    h, k = 1, 0
    out = []
    for a in cf_expansion(s):
        h_prev, h = h, a * h + h_prev
        k_prev, k = k, a * k + k_prev
        out.append(Slope(h, k))
    return out


def reference_pivot_candidates(m1, m2) -> dict:
    """Pivot cores, each with a Farey neighbour: the four marking slopes and,
    for each ordered pair (x, y) of marking slopes, the convergents of y in
    the chart normalizing x to infinity, mapped back one by one."""
    from glueforge.torus import Slope, normalizer_to_infinity

    out = {m.base: m.transversal for m in (m1, m2)}
    out.update({m.transversal: m.base for m in (m1, m2)})
    slopes = (*m1.slopes(), *m2.slopes())
    for x in slopes:
        norm = normalizer_to_infinity(x, out[x])
        back = norm.inverse()
        for y in slopes:
            if y == x:
                continue
            neighbour = x
            img = Slope(norm.a * y.p + norm.b * y.q, norm.c * y.p + norm.d * y.q)
            for c in _reference_convergents(img):
                core = Slope(back.a * c.p + back.b * c.q, back.c * c.p + back.d * c.q)
                out.setdefault(core, neighbour)
                neighbour = core
    return out


def _chart_floor(chart, s) -> int:
    """floor of the image of slope s, not the chart's core, under chart."""
    num = chart.a * s.p + chart.b * s.q
    den = chart.c * s.p + chart.d * s.q
    return num // den if den > 0 else (-num) // (-den)


def annular_projection_distance(w, a, b) -> int:
    """The package's former single projection: |floor(a') - floor(b')| + 2
    for slopes a and b other than the core of annulus w, in the canonical
    chart sending the core to infinity.  Integer translations of the chart
    cancel in the floor difference, so the value depends only on the
    orientation-preserving chart choice."""
    chart = normalizer_to_infinity(w.core)
    return abs(_chart_floor(chart, a) - _chart_floor(chart, b)) + 2


def reference_core_projection(core, neighbour, m1, m2) -> int | None:
    """Max of |floor(a') - floor(b')| + 2 over slope pairs off the core, in
    the canonical chart of the core; None when no pair is left."""
    chart = normalizer_to_infinity(core, neighbour)
    f1 = [_chart_floor(chart, x) for x in m1.slopes() if x != core]
    f2 = [_chart_floor(chart, y) for y in m2.slopes() if y != core]
    if not f1 or not f2:
        return None
    return max(max(f1) - min(f2), max(f2) - min(f1)) + 2


def reference_max_subsurface_projection(m1, m2):
    """(core, value) of the largest pivot projection; ties go to the
    smaller (q, p) key."""
    cands = reference_pivot_candidates(m1, m2)
    best, best_val = None, -1
    for core in sorted(cands, key=lambda s: (s.q, s.p)):
        v = reference_core_projection(core, cands[core], m1, m2)
        if v is not None and v > best_val:
            best, best_val = core, v
    return best, best_val


def enumerated_pivot_projections(m1, m2):
    """The package's former pivot search: (core, value) for the four
    marking slopes and every core of each of the twelve ordered slope
    pairs, each run through its convergent recurrence in full.  A core
    comes once per run that reaches it."""
    from glueforge.farey import _chart_image
    from glueforge.torus import _primitive_slope, normalizer_to_infinity

    def spread(f1, f2):
        return max(max(f1) - min(f2), max(f2) - min(f1)) + 2

    slopes = (*m1.slopes(), *m2.slopes())
    for i, x in enumerate(slopes):
        norm = normalizer_to_infinity(x, slopes[i ^ 1])
        images = [_chart_image(norm, z) for z in slopes]
        floors = [num // den if den else None for num, den in images]
        yield x, spread(
            [f for f in floors[:2] if f is not None], [f for f in floors[2:] if f is not None]
        )
        back = norm.inverse()
        for j, y in enumerate(slopes):
            if y == x:
                continue
            num, den = images[j]
            quots = []
            while den:
                a, rem = divmod(num, den)
                quots.append(a)
                num, den = den, rem
            # the last convergent is y itself, a core of its own
            n = len(quots) - 1
            o1, o2 = (o for o in range(4) if o != i and o != j)
            p1, q1 = images[o1]
            p2, q2 = images[o2]
            e1, e1_prev = q1, -p1
            e2, e2_prev = q2, -p2
            cp, cp_prev = back.a, back.b
            cq, cq_prev = back.c, back.d
            f = [0, 0, 0, 0]
            for k in range(n):
                a = quots[k]
                cp, cp_prev = a * cp + cp_prev, cp
                cq, cq_prev = a * cq + cq_prev, cq
                e1, e1_prev = a * e1 + e1_prev, e1
                e2, e2_prev = a * e2 + e2_prev, e2
                nxt = quots[k + 1]
                if k & 1:
                    f[i] = -1
                    f[j] = nxt
                    f[o1] = -e1_prev // e1 if e1 else None
                    f[o2] = -e2_prev // e2 if e2 else None
                else:
                    f[i] = 0
                    f[j] = -nxt if k + 1 == n else -nxt - 1
                    f[o1] = e1_prev // e1 if e1 else None
                    f[o2] = e2_prev // e2 if e2 else None
                if not (e1 and e2):
                    f = [g if g is not None else f[o ^ 1] for o, g in enumerate(f)]
                yield _primitive_slope(cp, cq), spread(f[:2], f[2:])


def all_pairs_k_prime(handle, path) -> Fraction | None:
    """The global quasigeodesic constant of a stack path with every pair of
    its vertices measured: the worst (index span)/(distance) ratio, or
    None at the first pair of distinct indices on one vertex."""
    best = Fraction(1)
    for i, u in enumerate(path):
        for span, d in enumerate(handle.distances_from(u, path[i + 1 :]), start=1):
            if d == 0:
                return None
            best = max(best, Fraction(span, d))
    return best


def full_fellow_traveling(handle, path, direct) -> int:
    """The former fellow-traveling scan: every path vertex against every
    vertex of the direct geodesic."""
    return max(min(handle.distances_from(v, direct)) for v in path)


# The package's former numpy kernels of the graph laboratory, kept to test
# their list replacements against.  They read a graph's metric through its
# array form, the read-only int64 copy that the former table's as_array()
# built; the biconnected blocks come from the package.


def table_array(g):
    """The graph's metric as a read-only n x n int64 array."""
    import numpy as np

    n = g.vertex_count
    m = np.array(g.rows(), dtype=np.int64).reshape(n, n)
    m.flags.writeable = False
    return m


def array_check(m) -> None:
    """The former distance table's check on the array form."""
    import numpy as np

    from glueforge.errors import ValidationError

    n = len(m)
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


def array_four_point_delta(g) -> Fraction:
    import numpy as np

    from glueforge.hyplab import _blocks

    m = table_array(g)
    adj = array_metric_graph(m)
    if adj is None:
        array_check(m)
        a, b = np.triu_indices(g.vertex_count, 1)
        return Fraction(array_widest_gap(m, a, b, 0), 2)
    best = 0
    for block in _blocks(adj):
        if len(block) >= 4:
            mb = m[np.ix_(block, block)]
            a, b = array_far_apart_pairs(mb)
            best = array_widest_gap(mb, a, b, best)
    return Fraction(best, 2)


def array_metric_graph(m) -> list[list[int]] | None:
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


def array_far_apart_pairs(mb):
    import numpy as np

    one = mb == 1
    far = np.empty_like(one)
    for u in range(len(mb)):
        far[u] = mb[one[u]].max(axis=0) <= mb[u]
    far &= far.T
    return np.nonzero(np.triu(far, 1))


def array_widest_gap(m, a, b, best: int) -> int:
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


def array_quasiconvexity_constant(g, subset) -> int:
    import numpy as np

    sub = sorted(set(subset))
    m = table_array(g)
    to_sub = np.min(m[:, sub], axis=1)
    best = 0
    for i, x in enumerate(sub):
        for y in sub[i:]:
            on = m[x, :] + m[:, y] == m[x, y]
            best = max(best, int(np.max(to_sub[on])))
    return best


def array_stability(g, subset, r: int) -> tuple:
    """(table rows, extremal) of the former check_qconvex_stability."""
    import numpy as np

    sub = sorted(set(subset))
    m = table_array(g)
    hmax = int(m.max())
    to_sub = np.min(m[:, sub], axis=1)
    worst_at = np.zeros(hmax + 2, dtype=np.int64)
    best = None
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
    suffix = np.maximum.accumulate(worst_at[::-1])[::-1]
    rows = tuple((h0, int(suffix[h0 + 1])) for h0 in range(hmax + 1))
    return rows, best[2] if best else None


# --- geodesic enumeration ---------------------------------------------------

# Geodesic count and enumeration over the predecessor DAG, with a uniform
# sampler above a cap.  No command needs them, so they live with the tests;
# they read the package's distance rows and geodesic intervals.


class GeodesicFamily(NamedTuple):
    """Result of enumerate_geodesics: possibly a uniform sample."""

    paths: tuple[tuple[int, ...], ...]
    count: int
    sampled: bool


def _geodesic_successors(adj: list[list[int]], rx: list[int], ry: list[int], v: int) -> list[int]:
    return [w for w in adj[v] if rx[w] == rx[v] + 1 and ry[w] == ry[v] - 1]


def count_geodesics(g, x: int, y: int) -> int:
    """Number of geodesics from x to y, by dynamic programming over the
    predecessor DAG."""
    from glueforge.hypgraph import geodesic_interval

    if x == y:
        return 1
    adj = g.adjacency
    rx, ry = g.row(x), g.row(y)
    ways = {x: 1}
    for v in sorted(geodesic_interval(g, x, y), key=rx.__getitem__):
        if v == x:
            continue
        ways[v] = sum(
            ways.get(u, 0) for u in adj[v] if rx[u] + 1 == rx[v] and ry[u] == ry[v] + 1
        )
    return ways.get(y, 0)


def enumerate_geodesics(
    g,
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
    from glueforge.hypgraph import geodesic_interval

    adj = g.adjacency
    rx, ry = g.row(x), g.row(y)
    total = count_geodesics(g, x, y)
    if total <= cap:
        out: list[tuple[int, ...]] = []

        def walk(prefix: list[int]) -> None:
            v = prefix[-1]
            if v == y:
                out.append(tuple(prefix))
                return
            for w in _geodesic_successors(adj, rx, ry, v):
                walk(prefix + [w])

        walk([x])
        return GeodesicFamily(tuple(out), total, sampled=False)
    ways_from = {y: 1}
    for v in sorted(geodesic_interval(g, x, y), key=lambda v: -rx[v]):
        if v == y:
            continue
        ways_from[v] = sum(ways_from.get(w, 0) for w in _geodesic_successors(adj, rx, ry, v))
    rng = random.Random(seed)
    sample = []
    for _ in range(sample_size):
        cur = x
        path = [x]
        while cur != y:
            nexts = _geodesic_successors(adj, rx, ry, cur)
            cur = rng.choices(nexts, weights=[ways_from[w] for w in nexts])[0]
            path.append(cur)
        sample.append(tuple(path))
    return GeodesicFamily(tuple(sample), total, sampled=True)


# Former library functions that no command reaches.  The tests build
# gluings with them (compression assembly, relabeling), read skeletons back
# (the JSON reader), and check package values against them (systole,
# marking diameter, path witnesses, transparent windows).


def systole(z: TeichPoint) -> float:
    """Length of the shortest slope at z."""
    return curve_length(z, shortest_slope(z))


def relabel(x: GluingGraph, mapping: Mapping[str, str]) -> GluingGraph:
    """Rename pieces through a bijection; all slot references follow."""
    pids = [pid for pid, _ in x.pieces]
    images = [mapping.get(pid, pid) for pid in pids]
    if len(set(images)) != len(images):
        raise ValidationError("piece relabeling is not a bijection")

    def ren(pid: str) -> str:
        return mapping.get(pid, pid)

    return GluingGraph(
        x.manifolds,
        tuple((ren(pid), mid) for pid, mid in x.pieces),
        tuple(
            Identification(ren(i.piece_a), i.bdry_a, ren(i.piece_b), i.bdry_b, i.map)
            for i in x.identifications
        ),
        tuple(((ren(pid), bid), m) for (pid, bid), m in x.boundary_markings),
    )


def marking_diameter(*markings: AbstractMarking) -> int:
    """Max pairwise curve-graph distance over all elements."""
    if not markings:
        raise ValidationError("diameter of nothing")
    handle = markings[0].handle
    elems: list = []
    for m in markings:
        _require_same(handle, m.handle)
        elems.extend(m.elements())
    return max(
        (
            max(handle.distances_from(elems[i], elems[i + 1 :]))
            for i in range(len(elems) - 1)
        ),
        default=0,
    )


def _point_from_json(obj: object) -> TeichPoint | None:
    if obj is None:
        return None
    try:
        x, y = obj  # type: ignore[misc]
        return TeichPoint(float(x), float(y))
    except (TypeError, ValueError, ValidationError) as exc:
        raise ParseError(f"bad half-plane point {clip(obj)}") from exc


def _tube_sample_from_json(obj: object) -> TubeSample:
    if not isinstance(obj, Mapping):
        raise ParseError("tube sample must be an object")
    try:
        p, q = obj["shortest"]
        point = _point_from_json(obj["point"])
        assert point is not None
        return TubeSample(
            float(obj["t"]), point, float(obj["systole"]), Slope(int(p), int(q))
        )
    except (KeyError, TypeError, ValueError, ValidationError) as exc:
        raise ParseError(f"bad tube sample: {exc}") from exc


def _tube_block_from_json(obj: object) -> TubeBlock:
    if not isinstance(obj, Mapping):
        raise ParseError("tube block must be an object")
    try:
        involution = None
        if "involution" in obj:
            blob = obj["involution"]
            handle = BackendHandle.from_json(blob["backend"])
            involution = SlotMap.from_json(handle, blob["map"])
        geometry = None
        if not obj["combinatorial"]:
            # the JSON leaves out the sigma matrices of the ends
            geometry = Tube(
                None,
                _point_from_json(obj["sigma_a"]),
                _point_from_json(obj["sigma_b"]),
                float(obj["length"]),
                bool(obj["degenerate"]),
                tuple(_tube_sample_from_json(s) for s in obj["samples"]),
            )
        pa, ba = obj["slot_a"]
        pb, bb = obj["slot_b"]
        slots = (str(pa), str(ba)), (str(pb), str(bb))
        return TubeBlock(*slots, str(obj["kind"]), geometry, involution)
    except (KeyError, TypeError, ValueError, ValidationError) as exc:
        raise ParseError(f"bad tube block: {exc}") from exc


def _piece_block_from_json(obj: object) -> PieceBlock:
    if not isinstance(obj, Mapping):
        raise ParseError("piece block must be an object")
    try:
        anchors = tuple(
            (str(bid), _point_from_json(z))
            for bid, z in sorted(dict(obj["anchors"]).items())
        )
        if obj["volume_tag"] != "opaque":
            raise ValueError(f"volume tag {obj['volume_tag']!r} is not 'opaque'")
        return PieceBlock(str(obj["piece"]), anchors)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad piece block: {exc}") from exc


def _skeleton_from_json(obj: object) -> ModelSkeleton:
    if not isinstance(obj, Mapping):
        raise ParseError("skeleton must be a JSON object")
    if obj.get("schema") != SCHEMA:
        raise ParseError(f"unsupported skeleton schema {clip(obj.get('schema'))}")
    try:
        stats = obj["stats"]
        min_sys = stats["min_sampled_systole"]
        return ModelSkeleton(
            pieces=tuple(_piece_block_from_json(p) for p in obj["pieces"]),
            tubes=tuple(_tube_block_from_json(t) for t in obj["tubes"]),
            incidence=tuple((str(a), str(b)) for a, b in obj["incidence"]),
            total_tube_length=float(stats["total_tube_length"]),
            min_sampled_systole=None if min_sys is None else float(min_sys),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad skeleton: {exc}") from exc


def load_skeleton(data: bytes | str) -> ModelSkeleton:
    """Inverse of ModelSkeleton.to_json, the skeleton JSON of `glueforge
    model`: canonical_dumps of the two round trips byte identically."""
    try:
        obj = json.loads(data)
    except json.JSONDecodeError as exc:
        raise ParseError(f"skeleton is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ParseError("skeleton is not valid JSON: arrays or objects nest too deeply") from exc
    return _skeleton_from_json(obj)


def unmarked_slots(x: GluingGraph) -> tuple:
    """The unburied slots of x without a free marking, in slot order: those
    whose boundary tubes a skeleton omits."""
    return tuple(s for s in x.slots() if not x.is_buried(s) and x.lam(s) is None)


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


class CompressionStep(Record):
    """Attach one compression body by its exterior boundary."""

    piece_id: str
    body: DecoratedManifoldSpec
    target: Slot
    attach: SlotMap

    def __post_init__(self) -> None:
        if self.body.kind != COMPRESSION_BODY:
            raise ValidationError(f"step piece {self.piece_id} is not a compression body")


def build_compression(
    base: DecoratedManifoldSpec,
    steps: Sequence[CompressionStep],
    budget: int | None = None,
    base_piece: str = "p0",
) -> GluingGraph:
    """Inductively glue compression bodies onto free slots of a growing
    gluing, starting from the bare piece.  The budget caps the total piece
    count; by default one base piece plus two bodies per base boundary."""
    if budget is None:
        budget = 1 + 2 * len(base.nontoroidal())
    manifolds: dict[str, DecoratedManifoldSpec] = {base.id: base}
    pieces: list[tuple[str, str]] = [(base_piece, base.id)]
    idents: list[Identification] = []
    buried: set[Slot] = set()
    known: set[Slot] = {(base_piece, b.id) for b in base.nontoroidal()}

    for step in steps:
        if len(pieces) + 1 > budget:
            raise ValidationError(f"compression budget exceeded: {budget} pieces")
        if step.target not in known:
            raise ValidationError(f"unknown attachment slot {_slot_name(step.target)}")
        if step.target in buried:
            raise ValidationError(f"attachment to buried slot {_slot_name(step.target)}")
        if any(pid == step.piece_id for pid, _ in pieces):
            raise ValidationError(f"piece id {step.piece_id} reused")
        existing = manifolds.get(step.body.id)
        if existing is not None and existing != step.body:
            raise ValidationError(f"conflicting manifold spec {step.body.id}")
        manifolds[step.body.id] = step.body
        pieces.append((step.piece_id, step.body.id))
        exterior = step.body.exterior_boundary().id
        source = (step.piece_id, exterior)
        idents.append(Identification(*source, *step.target, map=step.attach))
        buried.add(step.target)
        buried.add(source)
        known |= {(step.piece_id, b.id) for b in step.body.nontoroidal()}

    return GluingGraph(
        manifolds=tuple(manifolds.values()),
        pieces=tuple(pieces),
        identifications=tuple(idents),
    )


# --------------------------------------------------------- cold processes

SRC = str(pathlib.Path(glueforge.__file__).resolve().parents[1])
# the arguments that start the process entry: `python -m glueforge.cli`
CLI = ("-m", "glueforge.cli")


def cold(args: Sequence[str], stdout=subprocess.PIPE, **env: str) -> subprocess.CompletedProcess:
    """`python args...` in a fresh interpreter that imports the package
    from src, with stdout (into a pipe unless given) and stderr as raw
    bytes.  The child inherits this process's environment without
    PYTHONUNBUFFERED and PYTHONIOENCODING, so that its stdout is buffered
    and UTF-8 as in a plain shell, whatever the caller's shell sets; env
    adds variables, those two among them."""
    unset = ("PYTHONUNBUFFERED", "PYTHONIOENCODING")
    base = {k: v for k, v in os.environ.items() if k not in unset}
    return subprocess.run(
        [sys.executable, *args],
        stdout=stdout,
        stderr=subprocess.PIPE,
        timeout=120,
        env=dict(base, PYTHONPATH=SRC, **env),
    )
