"""Farey-graph kernels: distances, geodesics and annular projections.

The curve graph of the torus is the Farey graph on the slopes of `torus`.
All quantities here are exact integers.

Farey distance costs O(length of the continued fraction): the kernel is
one Euclid loop over the normalized target, with no recursion, so it stays
exact and fast for slopes with thousands of digits.  There is no memo.  A
row of distances along a path of Farey neighbours, such as a geodesic,
edits the previous target's expansion instead of starting over: it costs
one expansion plus O(1) big-integer steps per vertex, so a row of a deep
report costs the length of the path plus the length of one expansion, not
their product.

The annular-projection search visits, for each ordered pair of marking
slopes, the convergents of one in the chart of the other (Minsky's
pivots; the projections are those of Masur and Minsky).  Each pivot core
costs O(1) big-integer sums and products or quotients with a partial
quotient, read off the convergent recurrence; no step multiplies two big
numbers.  The eight runs share all but a few cores at their ends, and
the search runs one of them in full and of the others only the cores
that differ, so it costs the length of one continued fraction.

Conventions fixed here and recorded in exported reports:
  * annular projections move the annulus core to infinity by the canonical
    orientation-preserving map and return |floor(a') - floor(b')| + 2;
  * geodesics are made deterministic by the lexicographic (q, p) tie-break;
  * marking distances take the min over the four slope pairs.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

from .errors import ValidationError, clip
from .record import Record
from .torus import (
    INFINITY,
    FareyMarking,
    Slope,
    SurfaceMap,
    _primitive_slope,
    cf_expansion,
    normalizer_to_infinity,
)

if TYPE_CHECKING:  # fractions loads decimal: only the --denom-bound sweep reads one
    from fractions import Fraction

__all__ = [
    "AnnulusLabel",
    "farey_distance",
    "distances_from",
    "farey_geodesic",
    "max_subsurface_projection",
]


class AnnulusLabel(Record):
    """Annular subsurface of the torus, named by its core slope."""

    core: Slope

    def __str__(self) -> str:
        return f"annulus({self.core})"

    def to_json(self) -> str:
        return str(self)



def _chart_image(m: SurfaceMap, b: Slope) -> tuple[int, int]:
    """Image of b under m as (numerator, denominator >= 0), already reduced
    because m is unimodular."""
    num = m.a * b.p + m.b * b.q
    den = m.c * b.p + m.d * b.q
    if den < 0:
        return -num, -den
    return num, den


def _chart_floor(m: SurfaceMap, b: Slope) -> int:
    num, den = _chart_image(m, b)
    return num // den


def farey_distance(a: Slope, b: Slope) -> int:
    """Exact distance in the Farey graph."""
    return distances_from(a, (b,))[0]


def distances_from(
    a: Slope, targets: Iterable[Slope], neighbour: Slope | None = None
) -> list[int]:
    """Farey distances from a to each target, in order.

    In the chart sending a to infinity, a target [a_0; a_1, ..., a_n]
    (canonical: a_n >= 2 when n >= 1) lies at distance X_1, where
    X_j = min(X_{j+1} + 1, X_{j+2} + a_j), X_{n+1} = 1 and X_{n+2} = inf;
    an integer (n = 0) lies at distance 1.  Read left to right, X_1 is a
    min-plus row: (u_0, v_0) = (0, 1),
    (u_j, v_j) = (min(u_{j-1} + 1, v_{j-1}), u_{j-1} + a_j), and
    X_1 = u_n + 1.

    The row is a ladder: it keeps the expansion of the last target with
    its convergents h_j/k_j and, per term, the min-plus row.  The
    neighbours of h_n/k_n are
      (h_{n-1} + j h_n)/(k_{n-1} + j k_n) = [a_0; ..., a_n, j], j >= 0, and
      (j h_n - h_{n-1})/(j k_n - k_{n-1}) = [a_0; ..., a_n - 1, 1, j - 1], j >= 1,
    where j = 0 and j = 1 are the two parents and a trailing 1 merges into
    the term before it.  So when consecutive targets are Farey neighbours
    or equal, as along a geodesic, one division of denominators finds j
    and the step edits at most the last three terms.  The chart image of
    such a target needs no product of two big numbers either: after an
    edge t' -> t, the next target s is a neighbour of t exactly when
    s = +-t' + b t for an integer b, found by one division, and then its
    image is +-(image of t') + b (image of t).

    Any other target is expanded in full.  A row along a path therefore
    costs one expansion plus O(1) big-integer operations per step, each a
    sum or a product or quotient with a partial quotient, and a row over
    unrelated targets one expansion per target.  Nothing is memoized, so
    no answer depends on what the process computed before.  The chart of a
    costs a modular inverse, quadratic in the digits of a, unless a Farey
    neighbour of a is at hand: the neighbour passed in, such as the other
    slope of a marking, or else the first target.
    """
    if not isinstance(targets, list):
        targets = list(targets)
    hint = neighbour if neighbour is not None else targets[0] if targets else a
    m = normalizer_to_infinity(a, hint if abs(a.p * hint.q - a.q * hint.p) == 1 else None)
    ma, mb, mc, md = m.a, m.b, m.c, m.d
    # levels (a_j, h_j, k_j, u_j, v_j) above the seeds h_{-2}/k_{-2} = 0/1
    # and h_{-1}/k_{-1} = 1/0; (u_j, v_j) is the min-plus row after
    # a_1, ..., a_j, and the distance is u_n + 1.  u_j does not depend on
    # a_j, so changing a_j by one changes only v_j, by the same amount
    # (v_0 = 1 may grow: only min(1, v_0) is ever read).
    stack: list[tuple[int, int, int, int, int]] = [(0, 0, 1, 0, 0), (0, 1, 0, 0, 0)]
    out: list[int] = []
    # the last two distinct targets and their images, as raw vectors;
    # edge: they are Farey neighbours
    p1 = q1 = n1 = d1 = p2 = q2 = n2 = d2 = 0
    edge = False
    for t in targets:
        tp, tq = t.p, t.q
        if tp == p1 and tq == q1:
            out.append(out[-1])
            continue
        num = None
        if edge and q1:
            # a geodesic continues by s = b t - t', so that sign comes first
            b, r = divmod(tq + q2, q1)
            if r == 0 and tp == b * p1 - p2:
                num, den = b * n1 - n2, b * d1 - d2
            else:
                b, r = divmod(tq - q2, q1)
                if r == 0 and tp == p2 + b * p1:
                    num, den = n2 + b * n1, d2 + b * d1
        if num is None:
            num, den = ma * tp + mb * tq, mc * tp + md * tq
        p2, q2, n2, d2 = p1, q1, n1, d1
        p1, q1, n1, d1 = tp, tq, num, den
        edge = False
        if den < 0:
            num, den = -num, -den
        if den == 0:  # t is a
            del stack[2:]
            out.append(0)
            continue
        n = len(stack) - 3
        if n >= 0:
            an, hn, kn, un, vn = stack[-1]
            _, hm, km, _, _ = stack[-2]
            j, r = divmod(den, kn)
            if r == km and num == hm + j * hn:
                edge = True
                if j >= 2:  # [..., a_n, j]
                    u = un + 1
                    stack.append((j, num, den, u if u < vn else vn, un + j))
                elif j == 1:  # [..., a_n + 1]
                    stack[-1] = (an + 1, num, den, un, vn + 1)
                elif n >= 2 and stack[-2][0] == 1:  # [..., a_{n-2}, 1] = [..., a_{n-2} + 1]
                    del stack[-2:]
                    a2, _, _, u2, v2 = stack[-1]
                    stack[-1] = (a2 + 1, num, den, u2, v2 + 1)
                else:  # [..., a_{n-1}]
                    del stack[-1]
                out.append(stack[-1][3] + 1)
                continue
            if r + km == kn or not km:
                j += bool(km)
                if num == j * hn - hm:
                    edge = True
                    if n:  # with n = 0 the integer part drops: expand below
                        if j == 1 and an == 2:  # [..., a_{n-1}, 1] = [..., a_{n-1} + 1]
                            del stack[-1]
                            a1, _, _, u1, v1 = stack[-1]
                            stack[-1] = (a1 + 1, num, den, u1, v1 + 1)
                        elif j == 1:  # [..., a_n - 1]
                            stack[-1] = (an - 1, num, den, un, vn - 1)
                        else:  # [..., a_n - 1, 2] or [..., a_n - 1, 1, j - 1]
                            stack[-1] = (an - 1, hn - hm, kn - km, un, vn - 1)
                            u = un + 1
                            if vn - 1 < u:
                                u = vn - 1
                            if j == 2:
                                stack.append((2, num, den, u, un + 2))
                            else:
                                stack.append((1, hn, kn, u, un + 1))
                                w = u + 1
                                stack.append((j - 1, num, den, w if w < un + 1 else un + 1, u + j - 1))
                        out.append(stack[-1][3] + 1)
                        continue
        # a new integer part, or not an edge: expand in full
        del stack[2:]
        h2, k2, h1, k1 = 0, 1, 1, 0
        u = v = 0
        while den:
            q, rem = divmod(num, den)
            h1, h2 = q * h1 + h2, h1
            k1, k2 = q * k1 + k2, k1
            if len(stack) == 2:
                u, v = 0, 1
            else:
                w = u + 1
                u, v = (w if w < v else v), u + q
            stack.append((q, h1, k1, u, v))
            num, den = den, rem
        out.append(u + 1)
    return out


def farey_geodesic(a: Slope, b: Slope) -> list[Slope]:
    """One geodesic from a to b; ties broken lexicographically on (q, p).

    At each step only the two neighbours floor/ceil of the target, in a
    chart sending the current vertex to infinity, can decrease the
    distance; among those that do, the candidate with the smaller
    canonical (q, p) key is chosen.

    The walk expands b once, as n + [0; a1, ..., ak] in the chart of a.
    Every later target is a tail of that expansion with a lowered head:
    from n + [0; h, a_{j+1}, ...], stepping to n leaves [h; a_{j+1}, ...]
    in the chart y -> 1/(y - n), and stepping to n + 1 leaves
    [1; h - 1, a_{j+1}, ...] (or [1 + a_{j+1}; a_{j+2}, ...] when h = 1)
    in the chart y -> 1/(n + 1 - y).  Both candidate distances then come
    from the table of tail distances in O(1).
    """
    if a == b:
        return [a]
    m = normalizer_to_infinity(a)
    cf = cf_expansion(m.on_slope(b))
    quots = cf[1:]
    k = len(quots)
    # tails[j]: distance from infinity to [0; quots[j], ..., quots[k-1]];
    # tails[k] = 1 is an integer, and k + 2 exceeds every distance
    tails = [0] * k + [1, k + 2]
    for j in range(k - 1, -1, -1):
        tails[j] = min(tails[j + 1] + 1, tails[j + 2] + quots[j])

    def is_integer(h: int, j: int) -> bool:
        return j == k or (j == k - 1 and h == 1)

    def dist(h: int, j: int) -> int:
        return 1 if is_integer(h, j) else min(tails[j + 1] + 1, tails[j + 2] + h)

    # current chart coordinates -> slopes, as the matrix [[ca, cb], [cc, cd]]
    chart = m.inverse()
    ca, cb, cc, cd = chart.a, chart.b, chart.c, chart.d
    path = [a]
    n, h, j = cf[0], (quots[0] if quots else 1), 0
    while not is_integer(h, j):
        # states (integer part, head, index of the head) after each step
        floor = (h, quots[j + 1], j + 1) if j + 1 < k else (h, 1, k)
        if h > 1:
            ceil = (1, h - 1, j)
        elif j + 2 < k:
            ceil = (1 + quots[j + 1], quots[j + 2], j + 2)
        else:
            ceil = (1 + quots[j + 1], 1, k)
        want = dist(h, j) - 1
        cands = [
            (_primitive_slope(ca * v + cb, cc * v + cd), v, sign, state)
            for v, sign, state in ((n, 1, floor), (n + 1, -1, ceil))
            if dist(state[1], state[2]) == want
        ]
        nxt, v, sign, (n, h, j) = min(cands, key=lambda c: c[0].sort_key())
        path.append(nxt)
        # the chart after the step is chart @ [[v, sign], [1, 0]]
        ca, cb, cc, cd = ca * v + cb, ca * sign, cc * v + cd, cc * sign
    path.append(b)
    return path


def _spread(floors: list[int | None]) -> int:
    """Max projection over slope pairs, from the floors of (m1.base,
    m1.transversal, m2.base, m2.transversal) in one chart of the core;
    None marks a slope equal to the core.  A marking's two slopes differ,
    so each side keeps at least one floor."""
    f1 = [f for f in floors[:2] if f is not None]
    f2 = [f for f in floors[2:] if f is not None]
    return max(max(f1) - min(f2), max(f2) - min(f1)) + 2


def _marking_pair_projection(core: Slope, m1: FareyMarking, m2: FareyMarking) -> int:
    """Projection value at an arbitrary core, through its canonical chart."""
    chart = normalizer_to_infinity(core)
    return _spread(
        [None if x == core else _chart_floor(chart, x) for x in (*m1.slopes(), *m2.slopes())]
    )


# Most fractions p/q, q <= denom_bound, that one --denom-bound sweep may
# score.  A sweep at the cap takes about 2 s and 45 MiB, once per slot;
# past it the search raises before it builds a slope, and the CLI exits 3.
MAX_SWEEP_CANDIDATES = 250_000

# How far the sweep window reaches past the marking slopes' values.
SWEEP_PAD = 2


def _sweep_candidates(values: list[Fraction], denom_bound: int) -> list[Slope]:
    """All slopes with denominator <= denom_bound in the padded value window.
    The window, at least 4 wide, holds at least 4q - 1 fractions of each
    denominator q, so counting them stops past the cap within 360 steps."""
    lo = min(values) - SWEEP_PAD
    hi = max(values) + SWEEP_PAD
    count = 1
    for q in range(1, denom_bound + 1):
        count += math.floor(hi * q) - math.ceil(lo * q) + 1
        if count > MAX_SWEEP_CANDIDATES:
            raise ValidationError(
                f"denominator bound {clip(denom_bound)} sweeps more than"
                f" {MAX_SWEEP_CANDIDATES} candidate slopes"
            )
    out = [INFINITY]
    for q in range(1, denom_bound + 1):
        p_lo = math.ceil(lo * q)
        p_hi = math.floor(hi * q)
        for p in range(p_lo, p_hi + 1):
            if math.gcd(p, q) == 1:
                out.append(_primitive_slope(p, q))
    return out


def _det(p: int, q: int, s: Slope) -> int:
    """Determinant of the vector (p, q) against the slope s."""
    return p * s.q - q * s.p


def _ladder(
    slopes: tuple[Slope, ...],
    i: int,
    j: int,
    u: tuple[int, int],
    v: tuple[int, int],
    num: int,
    den: int,
    stop: Callable[[Slope, Slope], bool] | None = None,
) -> Iterator[tuple[Slope, int]]:
    """Cores of the run from slopes[i] toward slopes[j] that follow the
    pair (u, v), each with its projection value.

    The run is the sequence of convergents of slopes[j] in a chart sending
    slopes[i] to infinity, mapped back; (u, v) is one of its consecutive
    pairs (previous core, current core) as signed vectors, and
    num/den (den > 0) is the image of slopes[j] under [v | u]^-1: from a
    seed, the target's chart image; at a later pair, its complete
    quotient.  The run stops before slopes[j] itself, or before the first
    core whose pair (previous core, core) stop accepts.

    The next core is a v + u for the next partial quotient a, so no step
    multiplies two big numbers:
      * a slope z lands at -e'/e under [v | u]^-1, where e = det(v, z)
        and e' = det(u, z) obey the same recurrence;
      * slopes[i] lies in [-1, 0] in every chart of its own run, and the
        target lands at its complete quotient, whose floor is the next
        partial quotient;
      * [v | u] has determinant +-1, alternating along the run; with
        determinant -1 the canonical chart is s - [v | u]^-1 for an
        integer s, and floor(s - w) is s + floor(-w).  The integer s
        cancels in floor differences.
    """
    o1, o2 = (o for o in range(4) if o != i and o != j)
    z1, z2 = slopes[o1], slopes[o2]
    up, uq = u
    vp, vq = v
    pos = vp * uq - vq * up == 1
    e1, e1_prev = _det(vp, vq, z1), _det(up, uq, z1)
    e2, e2_prev = _det(vp, vq, z2), _det(up, uq, z2)
    prev = _primitive_slope(vp, vq)
    a, rem = divmod(num, den)
    num, den = den, rem
    f = [0, 0, 0, 0]
    while den:
        vp, up = a * vp + up, vp
        vq, uq = a * vq + uq, vq
        e1, e1_prev = a * e1 + e1_prev, e1
        e2, e2_prev = a * e2 + e2_prev, e2
        pos = not pos
        core = _primitive_slope(vp, vq)
        if stop is not None and stop(prev, core):
            return
        a, rem = divmod(num, den)
        if pos:
            f[i] = -1
            f[j] = a
            f[o1] = -e1_prev // e1 if e1 else None
            f[o2] = -e2_prev // e2 if e2 else None
        else:
            f[i] = 0
            f[j] = -a - 1 if rem else -a
            f[o1] = e1_prev // e1 if e1 else None
            f[o2] = e2_prev // e2 if e2 else None
        if not (e1 and e2):
            # a slope equal to the core drops out; its partner stays
            f = [g if g is not None else f[o ^ 1] for o, g in enumerate(f)]
        f0, f1, f2, f3 = f
        hi = max(f0, f1) - min(f2, f3)
        lo = max(f2, f3) - min(f0, f1)
        yield core, (hi if hi > lo else lo) + 2
        prev = core
        num, den = den, rem


# How many steps a run is checked for meeting a known ladder.  Runs meet
# within a few steps; a run that has not met by then goes on alone, which
# costs time and changes no value.
_MEET = 6


def _from_pair(
    slopes: tuple[Slope, ...], i: int, j: int, a: Slope, b: Slope, pos: bool | None
) -> Iterator[tuple[Slope, int]] | None:
    """The run from slopes[i] toward slopes[j] after its pair (a, b), with
    the signs of the pair's vectors made consistent: by the determinant
    pos of the pair's chart when given, else by a positive complete
    quotient of the target.  None when the target's image there is not a
    complete quotient > 1 (pos given) or is infinite."""
    up, uq, vp, vq = a.p, a.q, b.p, b.q
    if pos is not None and (vp * uq - vq * up == 1) != pos:
        up, uq = -up, -uq
    target = slopes[j]
    num, den = -_det(up, uq, target), _det(vp, vq, target)
    if den < 0:
        num, den = -num, -den
    if pos is None and num < 0:
        num, up, uq = -num, -up, -uq
    if not den or num <= den:
        return None
    return _ladder(slopes, i, j, (up, uq), (vp, vq), num, den)


def _meeting(pairs: list[tuple[int, Slope, Slope]]):
    """A stop test that accepts, during a run's first _MEET steps, a pair
    (previous core, core) listed in pairs, and the list that receives the
    index listed with it."""
    met: list[int] = []
    steps = iter(range(_MEET))

    def stop(prev: Slope, core: Slope) -> bool:
        if next(steps, None) is None:
            return False
        for k, a, b in pairs:
            if a == prev and b == core:
                met.append(k)
                return True
        return False

    return stop, met


def _pivot_projections(m1: FareyMarking, m2: FareyMarking) -> Iterator[tuple[Slope, int]]:
    """Every pivot core with its projection value; a few cores come twice.

    The cores are the four marking slopes and, for each ordered pair (x, y)
    of marking slopes from different markings, the convergents of y in a
    chart sending x to infinity, mapped back (Minsky's pivots); the other
    pairs are Farey neighbours and add no convergent.  The set does not
    depend on the chart: another orientation-preserving chart shifts y,
    and every convergent with it, by an integer.  A core's value depends
    on the core alone, so the search values each core of the eight runs
    once, up to a few at their ends, and runs only what it must (x' is
    the partner of x in its marking, and y' that of y):
      * x -> y runs in full; its cores, with x before them and y after,
        form a ladder of consecutive pairs.
      * x -> y' shares all but the last few partial quotients with it:
        the run leaves the ladder at its last pair where y' has a
        complete quotient > 1, and only its tail runs.
      * x' -> y and x' -> y' run until they reach a pair of the ladder of
        x -> y and x -> y' respectively.  For a fixed target the cores
        after a pair depend on that pair alone, since the chart sending
        its cores to 0 and infinity fixes the target's complete quotient.
      * y -> x reverses the ladder of x -> y: in the chart of the pair
        (c_{k+1}, c_k) the target x has complete quotient
        a_{k+1} + q_{k-1}/q_k, whose floor is a_{k+1} for k >= 2, so the
        next core is c_{k-1}.  Once the reverse run reaches a reversed
        pair (c_{m+1}, c_m) with m >= 1 it passes (c_2, c_1), and it goes
        on from there.  The same holds for the other three reverse runs
        and the ladders of x -> y', x' -> y and x' -> y'.
    A run never tests membership in a set of big-integer cores: it
    compares its pairs with a few pairs at one end of a ladder.
    """
    slopes = (*m1.slopes(), *m2.slopes())
    seeds = []
    for i, x in enumerate(slopes):
        # the partner slope of the same marking is a Farey neighbour of x
        norm = normalizer_to_infinity(x, slopes[i ^ 1])
        images = [_chart_image(norm, z) for z in slopes]
        yield x, _spread([num // den if den else None for num, den in images])
        back = norm.inverse()
        seeds.append(((back.b, back.d), (back.a, back.c), images))

    def seeded(i: int, j: int, stop=None) -> Iterator[tuple[Slope, int]]:
        u, v, images = seeds[i]
        num, den = images[j]
        return _ladder(slopes, i, j, u, v, num, den, stop)

    # ladders[x, y]: slopes[x], the cores of the run x -> y, slopes[y]
    ladders: dict[tuple[int, int], list[Slope]] = {}
    for x, y in ((0, 2), (0, 3), (1, 2), (1, 3)):
        if slopes[x] == slopes[y]:
            continue
        head, met = [slopes[x]], []
        # 0 -> 3 branches off the ladder of 0 -> 2; 1 -> y merges into 0 -> y
        ref = ladders.get((0, y) if x else (0, 2))
        if ref is None:
            run = seeded(x, y)
        elif x:
            stop, met = _meeting([(k, ref[k], ref[k + 1]) for k in range(min(len(ref) - 1, _MEET))])
            run = seeded(x, y, stop)
        else:
            for k in range(len(ref) - 2, -1, -1):
                tail = _from_pair(slopes, x, y, ref[k], ref[k + 1], k % 2 == 1)
                if tail is not None:
                    head, run = ref[: k + 2], tail
                    break
            else:
                run = seeded(x, y)
        cores = head[:]
        for core, value in run:
            cores.append(core)
            yield core, value
        ladders[x, y] = cores + (ref[met[0] + 1 :] if met else [slopes[y]])
    for (x, y), ref in ladders.items():
        low = max(2, len(ref) - 2 - _MEET)
        stop, met = _meeting([(m, ref[m + 1], ref[m]) for m in range(len(ref) - 2, low - 1, -1)])
        yield from seeded(y, x, stop)
        if met:
            yield from _from_pair(slopes, y, x, ref[3], ref[2], None)  # type: ignore[misc]


def max_subsurface_projection(
    m1: FareyMarking,
    m2: FareyMarking,
    denom_bound: int | None = None,
) -> tuple[AnnulusLabel, int]:
    """Annulus maximizing the marking-to-marking projection distance.

    The search runs over the four marking slopes and the convergent pivots
    of every slope pair; passing denom_bound additionally certifies the
    result by a brute-force sweep over all slopes with that denominator
    bound inside the padded value window of the marking slopes.
    Ties go to the candidate with the smaller (q, p) key.

    The pivot search costs O(length of one continued fraction) big-integer
    additions and divisions by small quotients: see _pivot_projections.
    """
    scored: Iterable[tuple[Slope, int]] = _pivot_projections(m1, m2)
    if denom_bound is not None:
        finite = [s.value() for s in (*m1.slopes(), *m2.slopes()) if not s.is_infinity]
        sweep = _sweep_candidates(finite, denom_bound)
        scored = chain(scored, ((c, _marking_pair_projection(c, m1, m2)) for c in sweep))
    best_core, best_val = INFINITY, -1
    for core, v in scored:
        if v > best_val or (v == best_val and core.sort_key() < best_core.sort_key()):
            best_core, best_val = core, v
    return AnnulusLabel(best_core), best_val
