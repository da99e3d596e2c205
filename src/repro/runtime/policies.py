"""Scheduling policies (paper §3.2, Algorithm 2 lines 3 and 12).

The customizable scheduling policy makes two decisions per task:

* ``pick_variant`` — run the task's sequential (leaf) variant or its
  parallel (split) variant, based on granularity;
* ``pick_target`` — where to place a task whose data requirements no
  single process covers, which is what spreads work (and therefore data)
  across the system during the initialization phase.

The default :class:`DataAwarePolicy` has every item born at the even
spread of its structural decomposition (its home map), which is how the
paper's policy achieves an even initial distribution, and then targets
the process owning the largest share of the task's write set (falling
back to the read set); for data present nowhere it derives a *home
hint* from the same decomposition.  Round-robin and random policies
leave data to be born where it is first touched; they exist for the
scheduler ablation benchmark.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.items.base import DataItem
from repro.regions.base import Region
from repro.regions.bounds import bounds_disjoint
from repro.runtime.config import MIN_TASK_SIZE
from repro.runtime.tasks import Lookup, TaskSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.runtime import AllScaleRuntime


@dataclass
class PlacementContext:
    """Everything the policy may consult when placing one task."""

    runtime: "AllScaleRuntime"
    origin: int
    #: (region_part, owner) pairs from the scheduler's index lookup,
    #: per accessed item
    lookup: Lookup = field(default_factory=dict)


class SchedulingPolicy(ABC):
    """Variant selection and task placement strategy."""

    @abstractmethod
    def pick_variant(self, task: TaskSpec, runtime: "AllScaleRuntime") -> str:
        """Return ``"split"`` or ``"leaf"`` (Algorithm 2, line 3)."""

    @abstractmethod
    def pick_target(self, task: TaskSpec, ctx: PlacementContext) -> int:
        """Return the process id to enqueue at (Algorithm 2, line 12)."""

    def reset(self) -> None:
        """Forget run-local state; invoked at runtime construction.

        Policy instances are routinely reused across runtimes (the
        scheduler-ablation benchmarks race one instance over many runs);
        any cursor or RNG state carried over would make the second run
        depend on the first.  Stateless policies inherit this no-op.
        """

    # -- offline-plan hooks (only a policy carrying a plan answers) ---------------

    def preferred_target(self, task: TaskSpec) -> int | None:
        """A pinned process for ``task``; the scheduler uses it to break
        requirement-coverage ties (Algorithm 2).  ``None``: no opinion."""
        return None

    def planned_layout(
        self, item: DataItem, num_processes: int
    ) -> list[Region] | None:
        """Initial per-process ownership of ``item``, pre-distributed at
        registration.  ``None``: leave it to placement / first touch."""
        return None

    #: allocate an item registered with neither a placement nor a planned
    #: layout at its home map (``AllScaleRuntime.register_item``); without
    #: it, data is born wherever it is first touched
    births_at_home = False

    # -- shared granularity logic ------------------------------------------------

    def _should_split(self, task: TaskSpec) -> bool:
        if not task.splittable:
            return False
        granularity = task.granularity
        if granularity is None:
            granularity = MIN_TASK_SIZE
        return task.size_hint > max(granularity, MIN_TASK_SIZE)

    def _should_offload(self, task: TaskSpec, runtime: "AllScaleRuntime") -> bool:
        """Pick the GPU variant when the device beats a CPU core end to end.

        The variant-selection freedom of Definition 2.3 / Example 2.3: a
        task offering a device implementation runs it only where the
        transfer + launch costs are amortized.
        """
        if task.gpu_flops is None:
            return False
        spec = runtime.cluster.spec
        if spec.gpus_per_node < 1:
            return False
        device = runtime.cluster.accelerators[0][0].spec
        nbytes = task.transfer_bytes()
        gpu_time = (
            2 * device.link_latency
            + nbytes / device.link_bandwidth
            + device.launch_overhead
            + task.gpu_flops / device.flops
        )
        cpu_time = task.flops / spec.flops_per_core
        return gpu_time < cpu_time


class DataAwarePolicy(SchedulingPolicy):
    """Default policy: follow the data, which is born spread evenly.

    Items are allocated at their home maps when they are registered
    (``births_at_home``), so tasks find their data owned and go to it.
    The home hint places tasks on data no one owns: items without a
    ``decompose``, blocks of failed processes, and items a wrapping
    :class:`~repro.placement.policy.PlannedPolicy` leaves unplanned.
    """

    births_at_home = True

    def pick_variant(self, task: TaskSpec, runtime: "AllScaleRuntime") -> str:
        if self._should_split(task):
            return "split"
        if self._should_offload(task, runtime):
            return "gpu"
        return "leaf"

    def pick_target(self, task: TaskSpec, ctx: PlacementContext) -> int:
        runtime = ctx.runtime
        # 1. the process owning the largest share of the write set (then
        #    the read set) — keeps tasks near their data
        shares: dict[int, float] = {}
        for item in task.accessed_items_ordered():
            weight = 4.0 if item in task.writes else 1.0
            wanted = task.accessed_region(item)
            for part, owner in ctx.lookup.get(item, ()):  # charged lookup
                overlap = part.intersect(wanted)
                if not overlap.is_empty():
                    shares[owner] = shares.get(owner, 0.0) + weight * overlap.size()
        if shares:
            best = max(shares.items(), key=lambda kv: (kv[1], -kv[0]))
            return best[0]
        # 2. nothing placed yet: structural home hint for even spreading
        hint = self._home_hint(task, runtime)
        if hint is not None:
            return hint
        # 3. no data requirements at all: keep it where it is
        return ctx.origin

    def _home_hint(self, task: TaskSpec, runtime: "AllScaleRuntime") -> int | None:
        # items in name order: the first item's home wins a tie
        best: tuple[float, int] | None = None
        for item in task.accessed_items_ordered():
            wanted = task.write_region(item)
            if wanted.is_empty():
                wanted = task.read_region(item)
            homes = runtime.home_map(item)
            if homes is None:
                continue
            hull = wanted.hull()
            for pid, home_region in enumerate(homes):
                if bounds_disjoint(hull, home_region.hull()):
                    continue
                overlap = home_region.intersect(wanted).size()
                if overlap and (best is None or overlap > best[0]):
                    best = (overlap, pid)
        return best[1] if best else None


class RoundRobinPolicy(SchedulingPolicy):
    """Ignore data placement; deal tasks out cyclically (ablation baseline)."""

    def __init__(self) -> None:
        self._next = 0

    def reset(self) -> None:
        self._next = 0

    def pick_variant(self, task: TaskSpec, runtime: "AllScaleRuntime") -> str:
        return "split" if self._should_split(task) else "leaf"

    def pick_target(self, task: TaskSpec, ctx: PlacementContext) -> int:
        target = self._next % ctx.runtime.num_processes
        self._next += 1
        return target


class RandomPolicy(SchedulingPolicy):
    """Uniformly random placement (ablation baseline)."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._rng = random.Random(seed)

    def reset(self) -> None:
        self._rng = random.Random(self.seed)

    def pick_variant(self, task: TaskSpec, runtime: "AllScaleRuntime") -> str:
        return "split" if self._should_split(task) else "leaf"

    def pick_target(self, task: TaskSpec, ctx: PlacementContext) -> int:
        return self._rng.randrange(ctx.runtime.num_processes)
