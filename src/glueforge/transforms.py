"""Stack combination and I-bundle collapse.

Stack combination pushes every decoration of an I-bundle chain into one
boundary frame and certifies the chain conditions; collapse removes the
bundle pieces and rewires their neighbors with composed chart maps.  Both
are pure: they return new values and never mutate the input graph.

The certificate measures how far the concatenated geodesic of a stack is
from a geodesic, in one direct scan (`_k_prime`).  Quasigeodesic constants
are plain ratios: K' is the max over sub-intervals of (edge length)/
(endpoint distance), so length <= K'*d holds exactly and the
additive-slack-1 form length <= K'*d + 1 holds a fortiori.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from .errors import BackendMismatchError, ValidationError
from .gluing import (
    BoundarySpec,
    DecoratedManifoldSpec,
    GluingGraph,
    Identification,
    Slot,
    SlotMap,
    TRIVIAL_IBUNDLE,
    _slot_name,
    induced_markings,
    heights,
)
from .record import Record
from .surface import (
    AbstractMarking,
    BackendHandle,
    curve_distances_from,
    disk_distance,
    geodesic_between,
    marking_distance,
    marking_to_path_distance,
    sup_projection,
)

if TYPE_CHECKING:  # ratios are ints, or Fractions where the pair scan builds them
    from numbers import Rational


def _fraction_json(x: Rational | None) -> list[int] | None:
    return None if x is None else [x.numerator, x.denominator]


# --------------------------------------------------------------- stacks


class _StackStep(Record):
    """One resolved piece of an ordered bundle chain: the slot the walk
    enters through, the slot it leaves through (None on a terminal twisted
    piece), and the exchange map pulling exit data into the entry chart."""

    piece: str
    entry: Slot
    exit: Slot | None
    flip: SlotMap | None


def _bundle_slots(spec: DecoratedManifoldSpec) -> list[str]:
    return [b.id for b in spec.nontoroidal()]


def _exchange_into(spec: DecoratedManifoldSpec, entry_bdry: str) -> SlotMap:
    """Exchange map re-oriented to pull the exit boundary's data into the
    entry chart.  The declared map pushes the second boundary's chart onto
    the first."""
    assert spec.bundle_map is not None
    first = _bundle_slots(spec)[0]
    return spec.bundle_map if entry_bdry == first else spec.bundle_map.inverse()


def _fold_slot(x: GluingGraph, pid: str) -> str | None:
    """The self-identified boundary of a bundle piece, if any; such a slot
    folds the chain back on itself exactly like a twisted end."""
    for b in x.spec_of(pid).nontoroidal():
        slot = (pid, b.id)
        if x.is_buried(slot) and x.psi(slot)[0] == slot:
            return b.id
    return None


def _twisted_end(x: GluingGraph, pid: str) -> bool:
    """A twisted piece or a folded slot closes a chain: the walk turns back
    on itself there."""
    return x.spec_of(pid).kind != TRIVIAL_IBUNDLE or _fold_slot(x, pid) is not None


def _resolve_stack(x: GluingGraph, piece_ids: Sequence[str]) -> list[_StackStep]:
    if not piece_ids:
        raise ValidationError("empty stack")
    specs = [x.spec_of(pid) for pid in piece_ids]
    for pid, spec in zip(piece_ids, specs):
        if not spec.is_bundle:
            raise ValidationError(f"piece {pid} is not an I-bundle")
        if spec.kind != TRIVIAL_IBUNDLE and pid != piece_ids[-1]:
            raise ValidationError(f"twisted piece {pid} must be terminal in a stack")
    handles = {spec.nontoroidal()[0].handle for spec in specs}
    if len(handles) != 1:
        raise BackendMismatchError("stack pieces live on different backends")

    # joint i: the identification between piece i and piece i+1, read off
    # as (exit slot of i, entry slot of i+1, pull map into the exit chart);
    # a two-piece cycle is doubly identified and either joint works, so the
    # first in boundary order is taken
    joints: list[tuple[Slot, Slot, SlotMap]] = []
    for i in range(len(piece_ids) - 1):
        pid, nxt = piece_ids[i], piece_ids[i + 1]
        found = None
        for bid in _bundle_slots(specs[i]):
            slot = (pid, bid)
            if not x.is_buried(slot):
                continue
            partner, pull = x.psi(slot)
            if partner[0] == nxt and partner != slot:
                found = (slot, partner, pull)
                break
        if found is None:
            raise ValidationError(
                f"stack pieces {pid}, {nxt} are not identified end-to-end"
            )
        joints.append(found)

    steps: list[_StackStep] = []
    for i, (pid, spec) in enumerate(zip(piece_ids, specs)):
        slots = _bundle_slots(spec)
        if spec.kind != TRIVIAL_IBUNDLE:
            steps.append(_StackStep(pid, (pid, slots[0]), None, None))
            continue
        if i == 0:
            if joints:
                exit_bdry = joints[0][0][1]
            elif _fold_slot(x, pid) == slots[0]:
                exit_bdry = slots[0]
            else:
                exit_bdry = slots[1]
            entry_bdry = slots[0] if exit_bdry == slots[1] else slots[1]
        else:
            entry_bdry = joints[i - 1][1][1]
            exit_bdry = slots[0] if entry_bdry == slots[1] else slots[1]
            if entry_bdry == exit_bdry:
                raise ValidationError(f"stack enters and exits piece {pid} on one slot")
            if joints and i < len(joints) and joints[i][0] != (pid, exit_bdry):
                raise ValidationError(f"stack does not traverse piece {pid} end-to-end")
        steps.append(
            _StackStep(pid, (pid, entry_bdry), (pid, exit_bdry), _exchange_into(spec, entry_bdry))
        )
    return steps


class StackCertificate(Record):
    """Exact verification record for one I-bundle chain.

    The nu sequence holds every decoration pushed into the frame of the
    first piece's entry boundary; heights are consecutive distances.  The
    three chain conditions are strict: heights above the height floor,
    subsurface projections and geodesic deviations below the combinatorics
    bound.  k_prime is the measured global quasigeodesic constant of the
    concatenated geodesic (None when the concatenation revisits a vertex),
    and the certified inequality is combined >= sum(heights)/k' - k'.

    entry, exit and flip serve collapse and stay out of the report: the
    chain's entry slot, its exit slot (None at a twisted end) and the total
    flip pulling the far end's chart into the entry frame.
    """

    pieces: tuple[str, ...]
    nu: tuple[AbstractMarking, ...]
    heights: tuple[int, ...]
    h_bound: int
    r_bound: int
    heights_ok: bool
    projection_values: tuple[int, ...]
    projections_ok: bool
    geodesic_values: tuple[int, ...]
    geodesics_ok: bool
    witness: tuple[str, int] | None
    k_prime: Rational | None
    combined_height: int
    lower_bound: Rational | None
    lower_bound_ok: bool | None
    fellow_traveling: int
    twisted_note: str
    ok: bool
    entry: Slot
    exit: Slot | None
    flip: SlotMap

    def to_json(self) -> dict:
        return {
            "pieces": list(self.pieces),
            "nu": [m.to_json() for m in self.nu],
            "heights": list(self.heights),
            "params": {"h": self.h_bound, "R": self.r_bound},
            "conditions": {
                "heights_ok": self.heights_ok,
                "projection_values": list(self.projection_values),
                "projections_ok": self.projections_ok,
                "geodesic_values": list(self.geodesic_values),
                "geodesics_ok": self.geodesics_ok,
                "witness": list(self.witness) if self.witness else None,
            },
            "k_prime": _fraction_json(self.k_prime),
            "combined_height": self.combined_height,
            "lower_bound": _fraction_json(self.lower_bound),
            "lower_bound_ok": self.lower_bound_ok,
            "fellow_traveling": self.fellow_traveling,
            "twisted_note": self.twisted_note,
            "ok": self.ok,
        }


def _nu_sequence(
    x: GluingGraph, steps: Sequence[_StackStep]
) -> tuple[list[AbstractMarking], SlotMap, str]:
    """Push every bundle decoration into the frame of the first entry
    chart.  Returns the deduplicated sequence, the total flip carrying the
    final exit chart onto the frame, and the twisted-cover note."""
    handle = x.boundary_of(steps[0].entry).handle
    transport = SlotMap.identity(handle)
    seq: list[AbstractMarking] = []
    note = ""

    def push(m: AbstractMarking) -> None:
        if not seq or seq[-1] != m:
            seq.append(m)

    for i, step in enumerate(steps):
        spec = x.spec_of(step.piece)
        if step.flip is None:
            cover = spec.cover
            if cover is None:
                raise ValidationError(f"twisted piece without cover data: {step.piece}")
            lifted = transport.compose(cover.lift0.inverse())
            push(lifted.apply(cover.mu0))
            push(lifted.apply(cover.phi.apply(cover.mu1)))
            note = f"twisted end {step.piece} certified in its declared double cover"
            return seq, transport, note
        assert step.exit is not None
        push(transport.apply(x.decoration(step.entry)))
        push(transport.apply(step.flip.apply(x.decoration(step.exit))))
        transport = transport.compose(step.flip)
        if i + 1 < len(steps):
            _, pull = x.psi(step.exit)
            transport = transport.compose(pull)
    return seq, transport, note


def _stack_path(handle: BackendHandle, seq: Sequence[AbstractMarking]) -> tuple[list, list[int]]:
    """The concatenated geodesic through the markings of seq, and for each
    vertex i the last index of the last geodesic piece (a segment, or a
    bridge between segments) that holds it: vertices i < j lie on one
    piece exactly when j <= reach[i]."""
    path: list = []
    reach: list[int] = []

    def attach(piece: list) -> None:
        first = len(path) - 1 if path else 0
        path.extend(piece[1:] if path else piece)
        reach[first:] = [len(path) - 1] * (len(path) - first)

    for a, b in zip(seq, seq[1:]):
        seg = geodesic_between(a, b)
        if path and path[-1] != seg[0]:
            # closest-pair segments on a graph backend may land on a
            # different representative of the junction marking
            attach(
                geodesic_between(
                    AbstractMarking(handle, (path[-1],)), AbstractMarking(handle, (seg[0],))
                )
            )
        attach(seg)
    if not path:
        attach(geodesic_between(seq[0], seq[0]))
    return path, reach


def _k_prime(handle: BackendHandle, path: list, reach: list[int]) -> Rational | None:
    """The global quasigeodesic constant K' of a stack path: the worst
    (edge length)/(endpoint distance) ratio over its sub-intervals, or None
    when a sub-interval of positive length has coinciding endpoints, which
    no constant makes a quasigeodesic.

    Every step of the path is an edge.  So when its ends lie at its length
    apart, the path is a geodesic, and so is every sub-interval: every
    ratio is 1 and no two vertices coincide, which is what the pair scan
    would find.  One row decides it, and K' is the int 1.

    Otherwise the pairs are scanned.  Two vertices on one geodesic piece
    lie at their index difference: the ratio is 1, never 0, and cannot
    beat the scan's starting 1/1.  So the rows measure only pairs on
    different pieces.  A measured row starts at the next vertex, a
    neighbour, which spares the chart's modular inverse on the torus."""
    last = len(path) - 1
    if last < 1 or curve_distances_from(handle, path[0], [path[1], path[last]])[1] == last:
        return 1
    # the best ratio as an integer pair (num, den), compared by cross-multiplication
    best_n, best_d = 1, 1
    for i in range(last):
        cut = reach[i] + 1
        if cut > last:
            continue
        far = curve_distances_from(handle, path[i], [path[i + 1], *path[cut:]])
        for span, d in enumerate(far[1:], start=cut - i):
            if d == 0:
                return None
            if span * best_d > best_n * d:
                best_n, best_d = span, d
    from fractions import Fraction  # loads decimal: imported only here

    return Fraction(best_n, best_d)


def _fellow_traveling(handle: BackendHandle, path: list, direct: list) -> int:
    """Largest distance from a path vertex to the direct geodesic.

    Each vertex scans direct outward from its proportional index, in
    chunks that double, and stops at the first distance no larger than
    the running max, which that vertex can no longer raise; any other
    vertex scans all of direct."""
    best = 0
    last = len(direct) - 1
    for i, v in enumerate(path):
        # a path neighbour leads each chunk, as in _k_prime
        lead = [path[i - 1 if i else 1]] if len(path) > 1 else []
        lo = hi = i * last // max(len(path) - 1, 1)
        near = curve_distances_from(handle, v, [*lead, direct[lo]])[-1]
        step = 1
        while near > best and (lo > 0 or hi < last):
            new_lo, new_hi = max(lo - step, 0), min(hi + step, last)
            chunk = [*lead, *direct[hi + 1 : new_hi + 1], *direct[new_lo:lo][::-1]]
            near = min(near, *curve_distances_from(handle, v, chunk)[len(lead) :])
            lo, hi, step = new_lo, new_hi, 2 * step
        best = max(best, near)
    return best


def combine_stack(
    x: GluingGraph,
    piece_ids: Sequence[str],
    h_bound: int,
    r_bound: int,
    denom_bound: int | None = None,
) -> StackCertificate:
    """Verify the chain conditions for an ordered I-bundle stack and
    certify the combined height against the measured quasigeodesic
    constant of the concatenated geodesic."""
    if not isinstance(h_bound, int) or h_bound < 0:
        raise ValidationError("height floor must be a non-negative integer")
    if not isinstance(r_bound, int) or r_bound < 1:
        raise ValidationError("combinatorics bound must be a positive integer")
    steps = _resolve_stack(x, piece_ids)
    seq, flip_total, note = _nu_sequence(x, steps)
    handle = seq[0].handle

    hs = tuple(marking_distance(a, b) for a, b in zip(seq, seq[1:]))
    heights_ok = all(v > h_bound for v in hs)
    projs = tuple(
        sup_projection(a, b, denom_bound).value for a, b in zip(seq, seq[1:])
    )
    projections_ok = all(v < r_bound for v in projs)
    geos = tuple(
        marking_to_path_distance(seq[i], geodesic_between(seq[i - 1], seq[i + 1]))
        for i in range(1, len(seq) - 1)
    )
    geodesics_ok = all(v < r_bound for v in geos)

    witness: tuple[str, int] | None = None
    for name, values, bad in (
        ("height", hs, lambda v: v <= h_bound),
        ("projection", projs, lambda v: v >= r_bound),
        ("geodesic", geos, lambda v: v >= r_bound),
    ):
        for i, v in enumerate(values):
            if bad(v):
                witness = (name, i if name != "geodesic" else i + 1)
                break
        if witness:
            break

    path, reach = _stack_path(handle, seq)
    k_prime = _k_prime(handle, path, reach)

    combined = marking_distance(seq[0], seq[-1])
    if k_prime is None:
        lower: Rational | None = None
        lower_ok: bool | None = None
    else:
        # exact: an int K' = 1 keeps the bound an int, a Fraction K' makes it one
        lower = sum(hs) - 1 if k_prime == 1 else sum(hs) / k_prime - k_prime
        lower_ok = combined >= lower

    fellow = _fellow_traveling(handle, path, geodesic_between(seq[0], seq[-1]))

    ok = (
        heights_ok
        and projections_ok
        and geodesics_ok
        and k_prime is not None
        and bool(lower_ok)
    )
    return StackCertificate(
        pieces=tuple(piece_ids),
        nu=tuple(seq),
        heights=hs,
        h_bound=h_bound,
        r_bound=r_bound,
        heights_ok=heights_ok,
        projection_values=projs,
        projections_ok=projections_ok,
        geodesic_values=geos,
        geodesics_ok=geodesics_ok,
        witness=witness,
        k_prime=k_prime,
        combined_height=combined,
        lower_bound=lower,
        lower_bound_ok=lower_ok,
        fellow_traveling=fellow,
        twisted_note=note,
        ok=ok,
        entry=steps[0].entry,
        exit=None if _twisted_end(x, steps[-1].piece) else steps[-1].exit,
        flip=flip_total,
    )


# -------------------------------------------------------------- collapse


class CollapsedStack(Record):
    """Block correspondence for one removed chain: which pieces vanished,
    which surviving slots were rewired, and the measured re-verification
    numbers for the new tube."""

    pieces: tuple[str, ...]
    certificate: StackCertificate
    left: Slot | None
    right: Slot | None
    new_identification: Identification | None
    new_marking: tuple[Slot, AbstractMarking] | None
    new_height: int | None
    sup_value: int | None
    sup_ok: bool | None
    clause_b_excesses: tuple[tuple[str, int], ...]

    def to_json(self) -> dict:
        return {
            "pieces": list(self.pieces),
            "certificate": self.certificate.to_json(),
            "left": _slot_name(self.left) if self.left else None,
            "right": _slot_name(self.right) if self.right else None,
            "new_identification": (
                self.new_identification.to_json() if self.new_identification else None
            ),
            "new_marking": (
                [_slot_name(self.new_marking[0]), self.new_marking[1].to_json()]
                if self.new_marking
                else None
            ),
            "new_height": self.new_height,
            "sup_value": self.sup_value,
            "sup_ok": self.sup_ok,
            "clause_b_excesses": [list(t) for t in self.clause_b_excesses],
        }


class CollapseResult(Record):
    collapsed: GluingGraph
    stacks: tuple[CollapsedStack, ...]
    fibered: bool
    r_prime: int
    note: str

    @property
    def ok(self) -> bool:
        return all(s.certificate.ok for s in self.stacks)

    def to_json(self, emit_correspondence: bool = False) -> dict:
        out = {
            "collapsed": self.collapsed.to_json(),
            "stacks": [s.to_json() for s in self.stacks],
            "fibered": self.fibered,
            "r_prime": self.r_prime,
            "note": self.note,
            "ok": self.ok,
        }
        if emit_correspondence:
            out["correspondence"] = [
                {
                    "stack": list(s.pieces),
                    "slots": [
                        _slot_name(t) for t in (s.left, s.right) if t is not None
                    ],
                }
                for s in self.stacks
            ]
        return out


def measured_r_bound(x: GluingGraph, denom_bound: int | None = None) -> int:
    """Smallest bound at which every decorated slot clears the projection
    clause and every compressible slot clears the meridian clause."""
    induced = induced_markings(x)
    return _r_bound(x, induced, heights(x, induced), denom_bound)


def _r_bound(
    x: GluingGraph,
    induced: dict[Slot, AbstractMarking | None],
    hts: dict[Slot, int | None],
    denom_bound: int | None,
) -> int:
    """measured_r_bound over the induced markings and heights of x."""
    best = 0
    for slot, nu in induced.items():
        if nu is None:
            continue
        best = max(best, sup_projection(x.decoration(slot), nu, denom_bound).value)
        boundary = x.boundary_of(slot)
        if boundary.compressible:
            assert boundary.disks is not None
            h = hts[slot]
            assert h is not None
            best = max(best, h - disk_distance(nu, boundary.disks))
    return best


def _stack_components(x: GluingGraph) -> list[list[str]]:
    """Connected chains of bundle pieces, each ordered so that any twisted
    piece comes last; cycles are cut at the lexicographically smallest
    piece."""
    bundle_ids = [pid for pid, _ in x.pieces if x.spec_of(pid).is_bundle]
    bundle_set = set(bundle_ids)
    neighbors: dict[str, list[str]] = {pid: [] for pid in bundle_ids}
    for pid in bundle_ids:
        for b in x.spec_of(pid).nontoroidal():
            slot = (pid, b.id)
            if not x.is_buried(slot):
                continue
            partner, _ = x.psi(slot)
            if partner[0] in bundle_set and partner[0] != pid:
                neighbors[pid].append(partner[0])

    seen: set[str] = set()
    stacks: list[list[str]] = []
    for pid in bundle_ids:
        if pid in seen:
            continue
        comp = {pid}
        frontier = [pid]
        while frontier:
            cur = frontier.pop()
            for nxt in neighbors[cur]:
                if nxt not in comp:
                    comp.add(nxt)
                    frontier.append(nxt)
        seen |= comp
        ends = sorted(p for p in comp if len(set(neighbors[p])) < 2)
        if not ends:
            start = min(comp)
        else:
            # a twisted piece or a folded slot must close the chain, so
            # start the walk from a plain end when one exists
            plain_ends = [p for p in ends if not _twisted_end(x, p)]
            start = plain_ends[0] if plain_ends else ends[0]
        order = [start]
        prev = None
        while len(order) < len(comp):
            nxt = [p for p in set(neighbors[order[-1]]) if p != prev]
            assert nxt, "bundle chain walk stalled"
            prev = order[-1]
            order.append(min(nxt))
        stacks.append(order)
    return sorted(stacks, key=lambda s: s[0])


# one removed chain: the surviving slots at its two ends, the identification
# joining them, and the free marking handed to a neighbor
_Wiring = tuple[Slot | None, Slot | None, Identification | None, tuple[Slot, AbstractMarking] | None]


def _rewired_graph(
    x: GluingGraph, certs: Sequence[StackCertificate]
) -> tuple[GluingGraph, list[_Wiring]]:
    """Remove every chain and glue its two neighbors to each other through
    the total flip; a twisted end self-glues its one neighbor, and an
    unburied far end hands its free marking to the other neighbor."""
    removed = {p for cert in certs for p in cert.pieces}
    wiring: list[_Wiring] = []
    for cert in certs:
        left = x.psi(cert.entry) if x.is_buried(cert.entry) else None
        right = x.psi(cert.exit) if cert.exit is not None and x.is_buried(cert.exit) else None
        ident: Identification | None = None
        pushed: tuple[Slot, AbstractMarking] | None = None
        if cert.exit is None:
            # the chain folds back on itself: the surviving neighbor slot
            # is glued to itself by a conjugated involution
            assert left is not None, "twisted chain with a free end is fibered"
            l_slot, m_left = left
            end = cert.pieces[-1]
            fold = _fold_slot(x, end)
            if fold is not None:
                _, phi_node = x.psi((end, fold))
            else:
                phi_node = x.spec_of(end).bundle_map
                assert phi_node is not None
            up = cert.flip.inverse().compose(m_left)
            psi_star = up.inverse().compose(phi_node).compose(up)
            ident = Identification(l_slot[0], l_slot[1], l_slot[0], l_slot[1], psi_star)
        elif left is not None and right is not None:
            l_slot, m_left = left
            r_slot, m_right = right
            psi_star = m_right.inverse().compose(cert.flip.inverse()).compose(m_left)
            ident = Identification(l_slot[0], l_slot[1], r_slot[0], r_slot[1], psi_star)
        elif left is not None:
            # far end unburied: the neighbor slot opens up, inheriting any
            # declared free-boundary marking through the chain
            l_slot, m_left = left
            free = x.lam(cert.exit)
            if free is not None:
                pushed = (l_slot, m_left.inverse().compose(cert.flip).apply(free))
        elif right is not None:
            r_slot, m_right = right
            free = x.lam(cert.entry)
            if free is not None:
                down = m_right.inverse().compose(cert.flip.inverse())
                pushed = (r_slot, down.apply(free))
        wiring.append((left[0] if left else None, right[0] if right else None, ident, pushed))

    kept = tuple(
        i
        for i in x.identifications
        if i.piece_a not in removed and i.piece_b not in removed
    )
    new_idents = [w[2] for w in wiring if w[2] is not None]
    new_markings = [w[3] for w in wiring if w[3] is not None]
    lam = tuple(m for m in x.boundary_markings if m[0][0] not in removed)
    collapsed = GluingGraph(
        manifolds=x.manifolds,
        pieces=tuple(sorted((p for p in x.pieces if p[0] not in removed))),
        identifications=kept + tuple(sorted(new_idents, key=lambda i: i.slot_a)),
        boundary_markings=lam + tuple(sorted(new_markings, key=lambda m: m[0])),
    ).validate()
    return collapsed, wiring


def _combined_bundle(
    x: GluingGraph, cert: StackCertificate
) -> tuple[GluingGraph, Identification | None, str]:
    """The one trivial bundle replacing a whole fibered chain, its exchange
    map the total flip; a cycle keeps its closing identification as the
    bundle's self-gluing."""
    assert cert.exit is not None
    handle = x.boundary_of(cert.entry).handle
    new_pid = "+".join(cert.pieces)
    spec = DecoratedManifoldSpec(
        f"B[{new_pid}]",
        TRIVIAL_IBUNDLE,
        (
            BoundarySpec("F0", handle=handle, decoration=x.decoration(cert.entry)),
            BoundarySpec("F1", handle=handle, decoration=x.decoration(cert.exit)),
        ),
        bundle_map=cert.flip,
    )
    ident = None
    note = "fibered gluing case: open bundle chain combined"
    if x.is_buried(cert.entry):
        # the closing identification pushes the F0 chart onto the F1 chart
        partner, pull = x.psi(cert.exit)
        assert partner == cert.entry
        ident = Identification(new_pid, "F0", new_pid, "F1", pull)
        note = "fibered gluing case: bundle cycle combined and self-glued"
    lam = []
    for slot, m in x.boundary_markings:
        if slot == cert.entry:
            lam.append(((new_pid, "F0"), m))
        elif slot == cert.exit:
            lam.append(((new_pid, "F1"), m))
    collapsed = GluingGraph(
        manifolds=(spec,),
        pieces=((new_pid, spec.id),),
        identifications=(ident,) if ident else (),
        boundary_markings=tuple(lam),
    ).validate()
    return collapsed, ident, note


def collapse_ibundles(
    x: GluingGraph,
    r_bound: int,
    h_bound: int,
    denom_bound: int | None = None,
) -> CollapseResult:
    """Remove every I-bundle chain, rewiring its neighbors by the composed
    chart maps; each removed chain carries a stack certificate and the new
    tube's measured combinatorics.

    In the fibered case every piece is an I-bundle and the gluing is one
    chain.  It collapses to a single trivial bundle B[...] whose exchange
    map is the chain's total flip, self-glued when the chain is a cycle; a
    fibered gluing with a twisted end is left uncollapsed."""
    x.validate()
    bundles = [x.spec_of(pid).is_bundle for pid, _ in x.pieces]
    fibered = all(bundles)
    note = ""
    if not any(bundles):
        note = "no I-bundle pieces"
    elif fibered and any(_twisted_end(x, pid) for pid, _ in x.pieces):
        note = "fibered gluing case with a twisted bundle: left uncollapsed"
    else:
        orders = _stack_components(x)
        for order in orders:
            twisted = [_twisted_end(x, p) for p in order]
            if sum(twisted) > 1 or (any(twisted) and not twisted[-1]):
                note = f"doubly-twisted stack left uncollapsed: {', '.join(order)}"
                break
    if note:
        return CollapseResult(
            collapsed=x,
            stacks=(),
            fibered=fibered,
            r_prime=measured_r_bound(x, denom_bound),
            note=note,
        )

    certs = [combine_stack(x, order, h_bound, r_bound, denom_bound) for order in orders]
    if fibered:
        assert len(certs) == 1, "connected all-bundle gluing must be one chain"
        collapsed, ident, note = _combined_bundle(x, certs[0])
        wiring = [(None, None, ident, None)]
    else:
        collapsed, wiring = _rewired_graph(x, certs)
    induced = induced_markings(collapsed)
    hts = heights(collapsed, induced)

    records = []
    for cert, (left, right, ident, pushed) in zip(certs, wiring):
        new_height = None
        excesses: list[tuple[str, int]] = []
        if ident is not None:
            new_height = hts[ident.slot_a]
            sides = {ident.slot_a, ident.slot_b}
            for slot in sorted(sides):
                boundary = collapsed.boundary_of(slot)
                if not boundary.compressible:
                    continue
                assert boundary.disks is not None
                nu = induced[slot]
                h = hts[slot]
                assert nu is not None and h is not None
                excesses.append((_slot_name(slot), h - disk_distance(nu, boundary.disks)))
        sup = sup_projection(cert.nu[0], cert.nu[-1], denom_bound).value
        records.append(
            CollapsedStack(
                pieces=cert.pieces,
                certificate=cert,
                left=left,
                right=right,
                new_identification=ident,
                new_marking=pushed,
                new_height=new_height,
                sup_value=sup,
                sup_ok=sup <= 2 * r_bound,
                clause_b_excesses=tuple(excesses),
            )
        )

    return CollapseResult(
        collapsed=collapsed,
        stacks=tuple(records),
        fibered=fibered,
        r_prime=_r_bound(collapsed, induced, hts, denom_bound),
        note=note,
    )
