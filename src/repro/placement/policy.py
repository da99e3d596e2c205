"""The runtime-facing half of the planner: a pinning scheduling policy."""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.items.base import DataItem
from repro.placement.plan import PlacementPlan
from repro.regions.base import Region
from repro.runtime.policies import (
    DataAwarePolicy,
    PlacementContext,
    SchedulingPolicy,
)
from repro.runtime.tasks import TaskSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.runtime import AllScaleRuntime

#: same write dominance as the plan's cost model and the online policy
_WRITE_WEIGHT = 4.0


class PlannedPolicy(SchedulingPolicy):
    """Route tasks along an offline :class:`PlacementPlan`.

    Three tiers, strongest evidence first: the plan's explicit name pin;
    the plan's *layout* (largest weighted overlap of the task's regions
    with the planned per-process ownership — catches tasks split finer
    than the plan's expansion frontier); and finally the wrapped online
    policy, so unplanned tasks behave exactly like the default runtime.

    The runtime also consults ``planned_layout`` at item registration to
    pre-distribute ownership, and the scheduler consults
    ``preferred_target`` to break requirement-coverage ties toward the
    pin — both are ignored for runtimes the plan was not sized for.
    """

    def __init__(
        self,
        plan: PlacementPlan,
        fallback: SchedulingPolicy | None = None,
    ) -> None:
        self.plan = plan
        self.fallback = fallback if fallback is not None else DataAwarePolicy()

    def reset(self) -> None:
        self.fallback.reset()

    # -- SchedulingPolicy's offline-plan hooks ----------------------------------

    def planned_layout(
        self, item: DataItem, num_processes: int
    ) -> list[Region] | None:
        """The item's planned initial ownership, if the plan applies."""
        return self.plan.layout_for(item.name, num_processes)

    def preferred_target(self, task: TaskSpec) -> int | None:
        """The plan's pin for this task name, if any."""
        return self.plan.pins.get(task.name)

    # -- SchedulingPolicy --------------------------------------------------------

    def pick_variant(self, task: TaskSpec, runtime: "AllScaleRuntime") -> str:
        return self.fallback.pick_variant(task, runtime)

    def pick_target(self, task: TaskSpec, ctx: PlacementContext) -> int:
        processes = ctx.runtime.num_processes
        pin = self.plan.pins.get(task.name)
        if pin is not None and 0 <= pin < processes:
            return pin
        pid = self._layout_vote(task, processes)
        if pid is not None:
            return pid
        return self.fallback.pick_target(task, ctx)

    def _layout_vote(self, task: TaskSpec, processes: int) -> int | None:
        best: tuple[float, int] | None = None
        for item in task.accessed_items_ordered():
            layout = self.plan.layout_for(item.name, processes)
            if layout is None:
                continue
            for kind, weight in (("w", _WRITE_WEIGHT), ("r", 1.0)):
                wanted = (
                    task.write_region(item)
                    if kind == "w"
                    else task.read_region(item)
                )
                if wanted.is_empty():
                    continue
                for pid, owned in enumerate(layout):
                    overlap = owned.intersect(wanted)
                    if overlap.is_empty():
                        continue
                    score = weight * item.region_bytes(overlap)
                    if best is None or (score, -pid) > (best[0], -best[1]):
                        best = (score, pid)
        return best[1] if best is not None else None
