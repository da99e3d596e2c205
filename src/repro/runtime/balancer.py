"""Inter-node load balancing through data migration (paper §3.2, §6).

The model's key enabler: because the runtime controls data placement, and
because the scheduler sends tasks to the data (Algorithm 2), *moving data
moves load*.  The balancer periodically samples per-process load, and when
the imbalance exceeds a threshold it migrates a slice of the busiest
process's owned region to the least-loaded process — "which will
implicitly lead to the redirection of future tasks to the newly designated
localities" (§3.2).

Moving data moves load only when the moved load outweighs the cost of
moving the data.  Each round therefore prices its slices with the
planner's :class:`~repro.sim.cluster.CostModel` (bytes × switch hops /
bandwidth) and migrates only when that is less than the wall work the
slice sheds from the busiest process in one sampling window; a round that
would not pay is declined and counted in ``balancer.declined``.

Slices are carved from box-set and interval regions (the grid-like items
where load imbalance arises in practice); items with other region schemes
are left alone.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Generator, Iterable, Iterator

from repro.items.base import DataItem
from repro.regions.base import Region
from repro.regions.bounds import ADDRESSES, NO_BOUNDS, Hull, hull_gap
from repro.regions.box import Box, BoxSetRegion
from repro.regions.interval import Interval, IntervalRegion
from repro.runtime.data_manager import Move, run_moves
from repro.sim.cluster import CostModel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.data_manager import DataItemManager
    from repro.runtime.runtime import AllScaleRuntime


def _carve_box(box: Box, want: int, toward: Hull = None) -> list[Box]:
    """Boxes covering exactly ``want`` elements of ``box`` (0 < want < size).

    Takes whole slabs along the widest axis from the low corner (with
    ``toward``: along the face :func:`_facing` picks, from that side),
    then recurses into the single one-thick slab next to them for the
    remainder; the rank drops each recursion, so the 1-D base case lands
    on ``want`` exactly.
    """
    widths = box.widths()
    face = _facing(box, toward)
    if face is None:
        axis = max(range(len(widths)), key=widths.__getitem__)
        high = False
    else:
        axis, high = face
    row = box.size() // widths[axis]
    full, rem = divmod(want, row)
    pieces: list[Box] = []
    rest = box
    if full:
        cut = box.hi[axis] - full if high else box.lo[axis] + full
        piece, rest = box.split(axis, cut)
        if high:
            piece, rest = rest, piece
        pieces.append(piece)
    if rem:
        if high:
            _, slab = rest.split(axis, rest.hi[axis] - 1)
        else:
            slab, _ = rest.split(axis, rest.lo[axis] + 1)
        pieces.extend(_carve_box(slab, rem, toward))
    return pieces


def _facing(box: Box, toward: Hull) -> tuple[int, bool] | None:
    """``(axis, high)`` of the face of ``box`` that looks at the hull
    ``toward``: the one whose outermost one-thick layer lies nearest it
    (:func:`hull_gap`), preferring a face the hull lies wholly beyond,
    then the widest axis, the lower axis and the low side; axes one
    element thick have no layer to cut.  ``None`` when ``toward`` states
    no comparable corners."""
    lo, hi = box.lo, box.hi
    if toward is None or toward is NO_BOUNDS or len(toward[1]) != len(lo):
        return None
    _space, tlo, thi = toward
    best: tuple[tuple, tuple[int, bool]] | None = None
    for k in range(len(lo)):
        if hi[k] - lo[k] < 2:
            continue
        # the whole box's gap on this axis, which the layer replaces
        own = max(0, tlo[k] - hi[k], lo[k] - thi[k])
        for high in (False, True):
            e0, e1 = (hi[k] - 1, hi[k]) if high else (lo[k], lo[k] + 1)
            beyond = tlo[k] >= hi[k] if high else thi[k] <= lo[k]
            key = (
                max(0, tlo[k] - e1, e0 - thi[k]) - own,
                not beyond,
                lo[k] - hi[k],
                k,
                high,
            )
            if best is None or key < best[0]:
                best = (key, (k, high))
    return best[1] if best is not None else None


def take_slice(
    region: Region, fraction: float, toward: Hull = None
) -> Region | None:
    """Carve ``ceil(size * fraction)`` elements of ``region`` off as a slice.

    Without ``toward`` the largest boxes (intervals: the lowest ones) go
    first and a box is cut from its low corner along its widest axis.
    ``toward`` is a hull (:meth:`Region.hull`, e.g. the adopting process's
    owned hull): the boxes nearest it (:func:`hull_gap`) go first, and
    slabs come off the side of each box that faces it (:func:`_facing`),
    so the slice lands flush against what the receiver already owns.  A
    hull with no comparable corners (``None``, ``NO_BOUNDS``, another
    rank) gives the cut without ``toward``.

    Returns ``None`` for region types without a slicing strategy or when
    the region is too small to split (the slice must leave a non-empty
    remainder behind).
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"fraction must be in (0, 1), got {fraction}")
    if isinstance(region, BoxSetRegion):
        if region.is_empty():
            return None
        target = min(region.size() - 1, math.ceil(region.size() * fraction))
        if target < 1:
            return None
        # nearest first; every gap is infinite without ``toward``
        order = sorted(
            region.boxes,
            key=lambda b: (
                hull_gap((ADDRESSES, b.lo, b.hi), toward), -b.size(), b.lo
            ),
        )
        taken: list[Box] = []
        got = 0
        for box in order:
            if got >= target:
                break
            if box.size() <= target - got:
                taken.append(box)
                got += box.size()
            else:
                taken.extend(_carve_box(box, target - got, toward))
                got = target
        result = BoxSetRegion(taken)
        if result.is_empty() or result.size() >= region.size():
            return None
        return result
    if isinstance(region, IntervalRegion):
        want = min(region.size() - 1, math.ceil(region.size() * fraction))
        if want < 1:
            return None
        intervals = sorted(
            region.intervals,
            key=lambda iv: (
                hull_gap((ADDRESSES, (iv.lo,), (iv.hi,)), toward), iv.lo
            ),
        )
        taken_ivs: list[Interval] = []
        got = 0
        for iv in intervals:
            if got >= want:
                break
            take = min(iv.size(), want - got)
            face = _facing(Box((iv.lo,), (iv.hi,)), toward)
            if face is not None and face[1]:
                taken_ivs.append(Interval(iv.hi - take, iv.hi))
            else:
                taken_ivs.append(Interval(iv.lo, iv.lo + take))
            got += take
        return IntervalRegion(taken_ivs)
    return None


def share_slices(
    share: Iterable[tuple[DataItem, Region]],
    fraction: float,
    toward: "DataItemManager | None" = None,
) -> Iterator[tuple[DataItem, Region]]:
    """The same ``fraction`` of every item's part of ``share`` (``(item,
    region)`` pairs, read one at a time), so items that sit together (a
    stencil's A and B) move together.  With ``toward``, each item's slice
    faces that manager's owned hull of the item (:func:`take_slice`).
    Items :func:`take_slice` cannot cut are left out."""
    for item, part in share:
        hull = toward.owned_region(item).hull() if toward is not None else None
        piece = take_slice(part, fraction, toward=hull)
        if piece is not None:
            yield item, piece


class LoadBalancer:
    """Periodic data-migration-based load balancing."""

    def __init__(
        self,
        runtime: "AllScaleRuntime",
        interval: float = 0.05,
        imbalance_threshold: float = 1.5,
        slice_fraction: float | None = None,
    ) -> None:
        """``slice_fraction=None`` (default) sizes each migration
        adaptively — enough to bring the busiest node down to the mean —
        which converges instead of oscillating; a fixed fraction is mostly
        useful for tests."""
        if interval <= 0:
            raise ValueError("interval must be positive")
        if imbalance_threshold <= 1.0:
            raise ValueError("imbalance_threshold must exceed 1.0")
        self.runtime = runtime
        self.interval = interval
        self.imbalance_threshold = imbalance_threshold
        self.slice_fraction = slice_fraction
        self.rebalances = 0
        self.cost = CostModel(runtime.cluster)
        self._last_busy = [0.0] * runtime.num_processes
        self._running = False
        #: bumped by every stop(); a loop spawned before it retires
        self._generation = 0

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> None:
        """Begin periodic balancing (runs while the event loop is driven)."""
        if not self._running:
            self._running = True
            self.runtime.engine.spawn(self._loop(self._generation))

    def stop(self) -> None:
        self._running = False
        self._generation += 1

    def _loop(self, generation: int) -> Generator:
        while True:
            yield self.interval
            # re-check after the sleep: a stop() during it ends this loop,
            # even when a start() has already spawned its successor
            if generation != self._generation:
                return
            yield from self.rebalance_once()

    # -- one balancing round -------------------------------------------------------

    def on_capacity_change(self) -> None:
        """Invalidate stale per-process state after a node joins.

        Without this, ``measured_load``'s zip against the construction-
        time sample vector silently truncated freshly joined processes
        out of every balancing decision — new capacity was invisible —
        and a move to a joined process had no hop count to be priced by.
        """
        current = self._performed()
        self._last_busy.extend(current[len(self._last_busy):])
        self.cost = CostModel(self.runtime.cluster)

    def _performed(self) -> list[float]:
        """Core-seconds of work each process's cores have performed so
        far: the work booked minus what is still queued on the cores."""
        return [
            node._busy_time - node.backlog() * node.num_cores
            for node in (p.node for p in self.runtime.processes)
        ]

    def measured_load(self) -> list[float]:
        """Core-seconds of work *performed* per process since the previous
        sample.

        A node books a task's full cost when the task starts on a core;
        the work performed counts it as the core works through it, so a
        long task counts in every window it runs in (an iPiC3D task of
        thousands of seconds spans hundreds of 20 s windows), not whole
        in the one it started in.  Work (not task counts) is the signal:
        equal task counts with unequal task costs are exactly the
        imbalance the balancer must detect.  Processes that joined since
        the previous sample start a fresh window (their work since join),
        so the vector always spans the *current* process count.
        """
        current = self._performed()
        if len(current) > len(self._last_busy):
            self.on_capacity_change()
        delta = [c - last for c, last in zip(current, self._last_busy)]
        self._last_busy = current
        return delta

    def rebalance_once(self) -> Generator:
        """Migrate one slice from the busiest to the idlest process if the
        imbalance warrants it and the move pays for itself.  Returns
        whether a migration happened."""
        runtime = self.runtime
        available = runtime.available_processes()
        if len(available) < 2:
            return False
        load = self.measured_load()
        # corpses and held processes report idle forever; migrating data onto
        # them would strand it, so both ends come from the available set
        busiest = max(available, key=load.__getitem__)
        idlest = min(available, key=load.__getitem__)
        mean = sum(load[pid] for pid in available) / len(available)
        if mean <= 0 or load[busiest] < self.imbalance_threshold * mean:
            return False
        if self.slice_fraction is not None:
            fraction = self.slice_fraction
        else:
            # shed exactly the excess over the mean (converges; a fixed
            # fraction oscillates between the busiest and idlest nodes)
            excess = (load[busiest] - mean) / load[busiest]
            fraction = min(0.5, max(0.05, excess))
        source = runtime.process(busiest).data_manager
        # shed the same fraction of *every* item: co-located items (e.g. a
        # stencil's two buffers) must move together, or tasks writing the
        # stay-behind buffer keep landing on the overloaded node
        slices = list(share_slices(
            (
                (item, source.owned_region(item))
                for item in sorted(source.fragments, key=lambda i: i.name)
            ),
            fraction,
        ))
        if not slices:
            return False
        nbytes = sum(item.region_bytes(piece) for item, piece in slices)
        # the move must pay within one window: the wall work the slices
        # take off the busiest process against the planner's price
        shed = fraction * load[busiest] / source.process.node.num_cores
        if not self.migration_pays(nbytes, busiest, idlest, shed):
            runtime.metrics.incr("balancer.declined")
            return False
        yield from run_moves(runtime, [
            Move(item, piece, busiest, idlest) for item, piece in slices
        ])
        runtime.metrics.incr("balancer.migrations", len(slices))
        self.rebalances += 1
        return True

    def migration_pays(
        self, nbytes: int, src: int, dst: int, shed: float
    ) -> bool:
        """Whether shipping ``nbytes`` from ``src`` to ``dst`` costs less
        than the ``shed`` wall seconds of work it takes off ``src`` in one
        sampling window."""
        return self.cost.transfer_seconds(nbytes, src, dst) < shed
