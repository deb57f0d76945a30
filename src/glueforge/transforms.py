"""Stack combination and I-bundle collapse.

Stack combination pushes every decoration of an I-bundle chain into one
boundary frame and certifies the chain conditions; collapse removes the
bundle pieces and rewires their neighbors with composed chart maps.  Both
are pure: they return new values and never mutate the input graph.
Collapse reads the collapsed gluing's slot measures (`measures.slot_measures`,
the numbers `report` compares in clauses a and b) for the new tubes'
meridian excesses and for `r_prime`, the least R passing both clauses.

The certificate measures how far the concatenated geodesic of a stack is
from a geodesic, in one direct scan (`_k_prime`).  Quasigeodesic constants
are plain ratios: K' is the max over sub-intervals of (edge length)/
(endpoint distance), so length <= K'*d holds exactly and the
additive-slack-1 form length <= K'*d + 1 holds a fortiori.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from .errors import ValidationError
from .gluing import (
    BoundarySpec,
    DecoratedManifoldSpec,
    GluingGraph,
    Identification,
    Slot,
    SlotMap,
    TRIVIAL_IBUNDLE,
    _slot_name,
    components,
)
from .measures import slot_measures
from .record import Record
from .surface import (
    AbstractMarking,
    BackendHandle,
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
    """One piece of a walked bundle chain: the slot the walk enters
    through, the slot it leaves through (None on a terminal twisted piece),
    and the exchange map pulling exit data into the entry chart."""

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


def _stacks(x: GluingGraph) -> list[list[_StackStep]]:
    """Each chain of bundle pieces as the steps of one walk along psi, the
    chains in the order of their first pieces.

    A walk starts at the least end of its chain that no twisted piece or
    folded slot closes, else at the least end; a cycle starts at its least
    piece.  The first piece leaves toward its least bundle neighbour,
    through its first slot in boundary order that leads there, and a lone
    piece through its fold, if it has one; every trivial piece is entered
    through its other slot.  From each exit slot psi leads into the next
    piece's entry slot.  The walk stops at a closing piece, at a slot that
    leads to no other bundle piece, or back at its start."""
    bundle_ids = [pid for pid, _ in x.pieces if x.spec_of(pid).is_bundle]

    def onward(slot: Slot) -> Slot | None:
        """The slot of another bundle piece that psi carries slot to."""
        if x.is_buried(slot):
            partner = x.psi(slot)[0]
            if partner[0] != slot[0] and x.spec_of(partner[0]).is_bundle:
                return partner
        return None

    joins = {pid: [(b, onward((pid, b))) for b in _bundle_slots(x.spec_of(pid))] for pid in bundle_ids}
    neighbors = {pid: sorted({to[0] for _, to in joins[pid] if to}) for pid in bundle_ids}
    stacks: list[list[_StackStep]] = []
    for comp in components(bundle_ids, ((p, q) for p in bundle_ids for q in neighbors[p])):
        ends = [p for p in sorted(comp) if len(neighbors[p]) < 2]
        start = next((p for p in ends if not _twisted_end(x, p)), ends[0] if ends else min(comp))
        toward = [b for b, to in joins[start] if to and to[0] == neighbors[start][0]]
        leave = toward[0] if toward else _fold_slot(x, start)
        pid, entry = start, next((b for b, _ in joins[start] if b != leave), leave)
        steps: list[_StackStep] = []
        while True:
            spec = x.spec_of(pid)
            if spec.kind != TRIVIAL_IBUNDLE:
                steps.append(_StackStep(pid, (pid, entry), None, None))
                break
            exit_bdry = next(b for b in _bundle_slots(spec) if b != entry)
            steps.append(_StackStep(pid, (pid, entry), (pid, exit_bdry), _exchange_into(spec, entry)))
            landing = onward((pid, exit_bdry))
            if landing is None or landing[0] == start:
                break
            pid, entry = landing
        stacks.append(steps)
    return sorted(stacks, key=lambda steps: steps[0].piece)


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
    transport = handle.identity_map()
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
            attach(handle.curve_geodesic(path[-1], seg[0]))
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
    if last < 1 or handle.distances_from(path[0], [path[1], path[last]])[1] == last:
        return 1
    # the best ratio as an integer pair (num, den), compared by cross-multiplication
    best_n, best_d = 1, 1
    for i in range(last):
        cut = reach[i] + 1
        if cut > last:
            continue
        far = handle.distances_from(path[i], [path[i + 1], *path[cut:]])
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
        near = handle.distances_from(v, [*lead, direct[lo]])[-1]
        step = 1
        while near > best and (lo > 0 or hi < last):
            new_lo, new_hi = max(lo - step, 0), min(hi + step, last)
            chunk = [*lead, *direct[hi + 1 : new_hi + 1], *direct[new_lo:lo][::-1]]
            near = min(near, *handle.distances_from(v, chunk)[len(lead) :])
            lo, hi, step = new_lo, new_hi, 2 * step
        best = max(best, near)
    return best


def _certify_stack(
    x: GluingGraph,
    steps: Sequence[_StackStep],
    h_bound: int,
    r_bound: int,
    denom_bound: int | None = None,
) -> StackCertificate:
    """Verify the chain conditions for one walked I-bundle chain and
    certify the combined height against the measured quasigeodesic
    constant of the concatenated geodesic."""
    seq, flip_total, note = _nu_sequence(x, steps)
    handle = seq[0].handle

    hs = tuple(marking_distance(a, b) for a, b in zip(seq, seq[1:]))
    projs = tuple(
        sup_projection(a, b, denom_bound).value for a, b in zip(seq, seq[1:])
    )
    geos = tuple(
        marking_to_path_distance(seq[i], geodesic_between(seq[i - 1], seq[i + 1]))
        for i in range(1, len(seq) - 1)
    )
    # each chain condition once: the index in seq of its first failing
    # value, or None (deviation i is measured at marking i + 1)
    first_bad = [
        (name, next((i + start for i, v in enumerate(values) if not holds(v)), None))
        for name, values, holds, start in (
            ("height", hs, lambda v: v > h_bound, 0),
            ("projection", projs, lambda v: v < r_bound, 0),
            ("geodesic", geos, lambda v: v < r_bound, 1),
        )
    ]
    heights_ok, projections_ok, geodesics_ok = (i is None for _, i in first_bad)
    witness = next(((name, i) for name, i in first_bad if i is not None), None)

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
        pieces=tuple(step.piece for step in steps),
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
    )
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
    )
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
    fibered gluing with a twisted end is left uncollapsed.  Otherwise each
    chain has at most one twisted end, where its walk ends: a twisted
    piece or a folded slot leaves its piece one slot for the chain, so a
    chain closed at both ends would have no slot left for the rest of a
    connected gluing."""
    if not isinstance(h_bound, int) or h_bound < 0:
        raise ValidationError("height floor must be a non-negative integer")
    if not isinstance(r_bound, int) or r_bound < 1:
        raise ValidationError("combinatorics bound must be a positive integer")
    bundles = [x.spec_of(pid).is_bundle for pid, _ in x.pieces]
    fibered = all(bundles)
    note = ""
    if not any(bundles):
        note = "no I-bundle pieces"
    elif fibered and any(_twisted_end(x, pid) for pid, _ in x.pieces):
        note = "fibered gluing case with a twisted bundle: left uncollapsed"
    if note:
        collapsed, certs, wiring = x, [], []
    else:
        certs = [_certify_stack(x, steps, h_bound, r_bound, denom_bound) for steps in _stacks(x)]
        if fibered:
            assert len(certs) == 1, "connected all-bundle gluing must be one chain"
            collapsed, ident, note = _combined_bundle(x, certs[0])
            wiring = [(None, None, ident, None)]
        else:
            collapsed, wiring = _rewired_graph(x, certs)
    measures = slot_measures(collapsed, denom_bound=denom_bound)

    records = []
    for cert, (left, right, ident, pushed) in zip(certs, wiring):
        new_height = None
        excesses: list[tuple[str, int]] = []
        if ident is not None:
            new_height = measures[ident.slot_a].height
            for slot in sorted({ident.slot_a, ident.slot_b}):
                excess = measures[slot].excess
                if excess is not None:
                    excesses.append((_slot_name(slot), excess))
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
        r_prime=max((m.least_r for m in measures.values()), default=0),
        note=note,
    )
