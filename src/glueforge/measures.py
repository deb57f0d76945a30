"""Slot heights and measures, which `certify` and `transforms` read.

A slot's height is the marking distance d(mu, nu) of its decoration mu and
its induced marking nu (`gluing.induced_markings`).  `slot_measures` takes
each slot's numbers once: its height, the subsurface-projection maximum
between mu and nu, and on a compressible slot the meridian distance
d(nu, disks).  `certify` compares them with R in clauses a and b, and
`transforms` reads them for `r_prime`, the least R passing both.
"""

from __future__ import annotations

from .gluing import GluingGraph, Slot, induced_markings
from .record import Record
from .surface import AbstractMarking, ProjectionResult, disk_distance, marking_distance, sup_projection


def heights(
    x: GluingGraph, nu: dict[Slot, AbstractMarking | None] | None = None
) -> dict[Slot, int | None]:
    """Per-slot height d(mu, nu), None where nu is; both directions of each
    identification are reported through its two slots."""
    if nu is None:
        nu = induced_markings(x)
    return {
        slot: None if m is None else marking_distance(x.decoration(slot), m)
        for slot, m in nu.items()
    }


class SlotMeasure(Record):
    """What bounded combinatorics compares with R on a slot with a marking
    nu: its height d(mu, nu), the subsurface-projection maximum between mu
    and nu (clause a), and on a compressible slot the meridian distance
    d(nu, disks) (clause b: height <= disk_distance + R), else None."""

    height: int
    projection: ProjectionResult
    disk_distance: int | None

    @property
    def excess(self) -> int | None:
        """height - d(nu, disks): clause b holds exactly when R >= excess."""
        return None if self.disk_distance is None else self.height - self.disk_distance

    @property
    def least_r(self) -> int:
        """The least R at which clauses a and b hold on this slot."""
        value, excess = self.projection.value, self.excess
        return value if excess is None else max(value, excess)


def slot_measures(
    x: GluingGraph,
    nu: dict[Slot, AbstractMarking | None] | None = None,
    denom_bound: int | None = None,
) -> dict[Slot, SlotMeasure]:
    """The measure of every slot whose nu is not None, in slot order; the
    projection search takes denom_bound as `surface.sup_projection` does."""
    if nu is None:
        nu = induced_markings(x)
    out: dict[Slot, SlotMeasure] = {}
    for slot, height in heights(x, nu).items():
        if height is None:
            continue
        m, boundary = nu[slot], x.boundary_of(slot)
        assert m is not None and boundary.disks is not None
        dd = disk_distance(m, boundary.disks) if boundary.compressible else None
        out[slot] = SlotMeasure(height, sup_projection(x.decoration(slot), m, denom_bound), dd)
    return out
