"""``pfor`` — N-dimensional parallel loops over box ranges.

The workhorse of the paper's example codes (Fig. 6b): iterate a kernel
over every point of an N-dimensional range, in parallel, with data
requirements derived per sub-range.  Implemented on top of :func:`prec`
(just like the AllScale API implements its ``pfor`` with the ``prec``
operator): the recursion parameter is a :class:`LoopPart` — an iteration
:class:`Box` and the number of leaves it must yield — and requirement
functions are evaluated on each sub-box.

A loop of size ``S`` at granularity ``g`` yields exactly ``n = max(1,
round(S / g))`` leaves, and each split hands each part its own count; a
part holding one leaf is a leaf.  The iteration partition follows the
data distribution: a split task arrives with the owner map it was placed
with (the scheduler's Algorithm-2 lookup of the first item it writes, or
that item's home map at first touch), and a part spanning cells of more
than one owner is cut at an owner boundary on its widest axis — the end
of an owner's hull nearest the proportional cut — each side getting
leaves in proportion to its cells.  So every process's block gets the
leaves its share of the loop is worth, at any process count.  A part one
process holds is cut on the widest axis so that the left side holds
``ceil(n / 2)`` of the ``n`` leaves, rounded to a whole cell: a 20-core
node at oversubscription 2 gets exactly 40 leaves, two even waves of work
per core with no partial wave left over.

Two kernel styles are supported:

* ``body(ctx, box)`` — bulk kernel over the whole sub-range; the natural
  fit for vectorized NumPy kernels (and the only style that scales);
* ``point_kernel(ctx, coord)`` — per-point kernel, convenient in examples
  and tests; wrapped into a loop over the sub-range.
"""

from __future__ import annotations

from typing import Any, Callable, NamedTuple, Sequence

from repro.api.prec import PrecFunction, default_granularity
from repro.items.base import DataItem
from repro.regions.base import Region
from repro.regions.box import Box, BoxSetRegion
from repro.runtime.runtime import AllScaleRuntime
from repro.runtime.tasks import (
    OwnerMap,
    TaskExecutionContext,
    TaskSpec,
    Treeture,
)
from repro.util.ids import fresh_id

RequirementFn = Callable[[Box], dict[DataItem, Region]]


class LoopPart(NamedTuple):
    """A sub-range of a loop and the number of leaves it must yield."""

    box: Box
    leaves: int

    @classmethod
    def of(cls, box: Box, granularity: float | None) -> "LoopPart":
        """The root part: ``round(size / granularity)`` leaves, at least one."""
        grain = max(1.0, granularity or 1.0)
        return cls(box, max(1, round(box.size() / grain)))

    def __repr__(self) -> str:
        # task names show the range only
        return repr(self.box)


def _split_box(part: LoopPart, owners: OwnerMap = ()) -> list[LoopPart]:
    """Cut ``part`` in two along its widest axis, leaf counts in proportion.

    If ``owners`` puts cells of two or more processes in the part, the cut
    is the owner boundary :func:`_owner_cut` picks, and the left side gets
    ``round(n * left.size / part.size)`` of the ``n`` leaves.  Otherwise
    the left side gets ``ceil(n / 2)`` of them and the cut sits at that
    share of the axis, rounded to the nearest whole cell (ties to even).
    Either way a side with fewer cells than leaves hands the excess to the
    other and each side keeps at least one, so the count stays exact
    whenever ``n`` does not exceed the part's size.  The owner map only
    steers the cut: any map, stale or fragmented, gives an exact tiling.
    """
    box, leaves = part
    widths = box.widths()
    axis = max(range(len(widths)), key=widths.__getitem__)
    width = widths[axis]
    share = (leaves + 1) // 2
    cut = _owner_cut(box, axis, owners, leaves, share)
    if cut is None:
        cut = box.lo[axis] + min(width - 1, max(1, round(width * share / leaves)))
    else:
        share = round(leaves * (cut - box.lo[axis]) / width)
    left, right = box.split(axis, cut)
    share = min(max(share, 1, leaves - right.size()), leaves - 1, left.size())
    return [LoopPart(left, share), LoopPart(right, leaves - share)]


def _owner_cut(
    box: Box, axis: int, owners: OwnerMap, leaves: int, share: int
) -> int | None:
    """The owner boundary to cut ``box`` at on ``axis``, if it spans cells
    of several owners: among the ends of each owner's hull of its cells in
    the box that lie strictly inside the box, the one nearest the
    proportional cut ``lo + width * share / leaves`` (ties to the lower).
    """
    spans: dict[int, tuple[int, int]] = {}
    for region, pid in owners:
        if not isinstance(region, BoxSetRegion) or region.dims != box.dims:
            continue
        for piece in region.boxes:
            cells = piece.intersect(box)
            if cells.is_empty():
                continue
            lo, hi = cells.lo[axis], cells.hi[axis]
            span = spans.get(pid)
            if span is not None:
                lo, hi = min(lo, span[0]), max(hi, span[1])
            spans[pid] = (lo, hi)
    if len(spans) < 2:
        return None
    lo, hi = box.lo[axis], box.hi[axis]
    # distances scaled by ``leaves`` keep the comparison exact
    target = lo * leaves + (hi - lo) * share
    return min(
        (end for span in spans.values() for end in span if lo < end < hi),
        key=lambda end: (abs(end * leaves - target), end),
        default=None,
    )


class _LoopRecursion(PrecFunction[LoopPart]):
    """``prec`` over loop parts whose splits follow the owner map."""

    def split_along(self, param: LoopPart, owners: OwnerMap) -> list[LoopPart]:
        return _split_box(param, owners)


def pfor_task(
    lo: Sequence[int],
    hi: Sequence[int],
    *,
    body: Callable[[TaskExecutionContext, Box], Any] | None = None,
    point_kernel: Callable[[TaskExecutionContext, tuple[int, ...]], None]
    | None = None,
    reads: RequirementFn | None = None,
    writes: RequirementFn | None = None,
    flops_per_element: float = 1.0,
    combiner: Callable[[list[Any]], Any] | None = None,
    granularity: float | None = None,
    name: str | None = None,
    body_in_virtual: bool = False,
    gpu_flops_per_element: float | None = None,
) -> TaskSpec:
    """Build the splittable task tree for a parallel loop (no submission)."""
    if (body is None) == (point_kernel is None):
        if body is None:
            raise ValueError("pfor needs exactly one of body/point_kernel")
        raise ValueError("pass either body or point_kernel, not both")
    root = Box.of(lo, hi)
    if root.is_empty():
        raise ValueError(f"empty pfor range {lo!r}..{hi!r}")
    task_name = name or fresh_id("pfor")
    user_kernel = body if body is not None else point_kernel

    if point_kernel is not None:
        def bulk_body(ctx: TaskExecutionContext, box: Box) -> Any:
            for coord in box.points():
                point_kernel(ctx, coord)
            return None

        body = bulk_body

    recursion = _LoopRecursion(
        base_test=lambda part: part.leaves <= 1,
        base=lambda ctx, part: body(ctx, part.box),
        split=_split_box,
        combine=combiner,
        reads=(lambda part: reads(part.box)) if reads is not None else None,
        writes=(lambda part: writes(part.box)) if writes is not None else None,
        cost=lambda part: flops_per_element * part.box.size(),
        size=lambda part: float(part.box.size()),
        name=task_name,
        body_in_virtual=body_in_virtual,
        gpu_cost=(
            (lambda part: gpu_flops_per_element * part.box.size())
            if gpu_flops_per_element is not None
            else None
        ),
        origin_body=user_kernel,
    )
    return recursion.task(LoopPart.of(root, granularity), granularity)


def pfor(
    runtime: AllScaleRuntime,
    lo: Sequence[int],
    hi: Sequence[int],
    *,
    origin: int = 0,
    granularity: float | None = None,
    **kwargs: Any,
) -> Treeture:
    """Schedule a parallel loop over ``[lo, hi)``; returns its treeture.

    ``yield treeture.future`` (from a simulation process) or
    ``runtime.wait(treeture)`` (from test code) acts as the loop barrier.
    """
    root = Box.of(lo, hi)
    if granularity is None:
        granularity = default_granularity(runtime, float(root.size()))
    task = pfor_task(lo, hi, granularity=granularity, **kwargs)
    return runtime.submit(task, origin=origin)
