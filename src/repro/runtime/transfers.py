"""Transfer plans and the replica cache (the communication layer).

The runtimes this prototype models win back their many-small-message
overhead by *aggregating* transfers (DART-MPI's blocked one-sided
puts/gets, halo exchanges that move whole views at once).  This module
provides the two bookkeeping abstractions the optimisation layer is built
against:

* :class:`TransferPlan` — what a staging / prefetch pass *intends* to move
  versus what actually moved, per (item, region, peer, kind).  Both the
  scheduler (prefetch) and the data item manager (staging) build plans, so
  the sentinel and the static analyzer can audit planned bytes against
  moved bytes, and tests can assert that no region travels twice within
  one plan.
* :class:`ReplicaCache` — accounting of the replicated (read-only) bytes
  a process holds.  Hits and misses surface as ``comms.*`` metrics.
  There is no byte bound: as in the paper's data item manager, a replica
  stays until a writer invalidates it.

Plans are pure bookkeeping: they charge no messages and hold no locks.
The data movement itself still goes through
:class:`~repro.runtime.data_manager.DataItemManager`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.items.base import DataItem
from repro.regions.base import Region

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.data_manager import DataItemManager
    from repro.runtime.runtime import AllScaleRuntime
    from repro.runtime.tasks import TaskSpec


@dataclass(frozen=True, slots=True)
class TransferStep:
    """One planned or executed movement of a region of one item."""

    item: DataItem
    region: Region
    #: source process of the bytes (``dst`` itself for allocations)
    src: int
    #: destination process (the plan's address space)
    dst: int
    #: ``"replicate"``, ``"migrate"`` or ``"allocate"``
    kind: str
    #: payload bytes actually moved (0 for planned steps and allocations)
    nbytes: int = 0


class TransferPlan:
    """Planned-versus-moved ledger of one staging or prefetch pass."""

    __slots__ = ("dst", "purpose", "planned", "moved", "hits", "finished")

    def __init__(self, dst: int, purpose: str = "") -> None:
        self.dst = dst
        self.purpose = purpose
        self.planned: list[TransferStep] = []
        self.moved: list[TransferStep] = []
        #: reads satisfied locally without any transfer (replica reuse)
        self.hits: list[tuple[DataItem, Region]] = []
        self.finished = False

    # -- recording -----------------------------------------------------------------

    def plan(
        self, item: DataItem, region: Region, src: int, kind: str
    ) -> Region:
        """Record the intent to move ``region``; returns the not-yet-planned
        part (so one plan never *plans* the same elements twice)."""
        fresh = region.difference(self.planned_region(item))
        if not fresh.is_empty():
            self.planned.append(TransferStep(item, fresh, src, self.dst, kind))
        return fresh

    def record_moved(
        self, item: DataItem, region: Region, src: int, kind: str, nbytes: int
    ) -> None:
        if region.is_empty():
            return
        self.moved.append(TransferStep(item, region, src, self.dst, kind, nbytes))

    def record_hit(self, item: DataItem, region: Region) -> None:
        if not region.is_empty():
            self.hits.append((item, region))

    # -- views ---------------------------------------------------------------------

    def items(self) -> list[DataItem]:
        seen: list[DataItem] = []
        for step in self.planned + self.moved:
            if step.item not in seen:
                seen.append(step.item)
        for item, _region in self.hits:
            if item not in seen:
                seen.append(item)
        return seen

    def planned_region(self, item: DataItem) -> Region:
        region = item.empty_region()
        for step in self.planned:
            if step.item is item:
                region = region.union(step.region)
        return region

    def moved_region(self, item: DataItem) -> Region:
        region = item.empty_region()
        for step in self.moved:
            if step.item is item:
                region = region.union(step.region)
        return region

    def hit_region(self, item: DataItem) -> Region:
        region = item.empty_region()
        for hit_item, hit in self.hits:
            if hit_item is item:
                region = region.union(hit)
        return region

    def refetched_region(self, item: DataItem) -> Region:
        """Elements that travelled more than once within this plan.

        Legitimate only when a competing writer invalidated the first copy
        mid-staging; the determinism/property tests assert it stays empty
        on uncontended DAGs.
        """
        seen = item.empty_region()
        twice = item.empty_region()
        for step in self.moved:
            if step.item is not item or step.kind == "allocate":
                continue
            twice = twice.union(seen.intersect(step.region))
            seen = seen.union(step.region)
        return twice

    def planned_bytes(self) -> int:
        return sum(
            step.item.region_bytes(step.region)
            for step in self.planned
            if step.kind != "allocate"
        )

    def moved_bytes(self) -> int:
        return sum(step.nbytes for step in self.moved)

    def refetched_bytes(self) -> int:
        return sum(
            item.region_bytes(self.refetched_region(item))
            for item in self.items()
        )

    # -- completion ----------------------------------------------------------------

    def finish(self, runtime: "AllScaleRuntime") -> None:
        """Publish the plan's outcome (idempotent): ``comms.*`` metrics and
        the sentinel's planned-versus-moved audit."""
        if self.finished:
            return
        self.finished = True
        metrics = runtime.metrics
        metrics.incr("comms.plans")
        metrics.incr("comms.planned_bytes", self.planned_bytes())
        metrics.incr("comms.moved_bytes", self.moved_bytes())
        refetched = self.refetched_bytes()
        if refetched:
            metrics.incr("comms.refetched_bytes", refetched)
        for notify in runtime.probe.plan_finished:
            notify(self)

    def __repr__(self) -> str:
        return (
            f"TransferPlan(dst={self.dst}, purpose={self.purpose!r}, "
            f"planned={len(self.planned)}, moved={len(self.moved)}, "
            f"hits={len(self.hits)})"
        )


def plan_for_task(
    task: "TaskSpec", runtime: "AllScaleRuntime", target: int
) -> TransferPlan:
    """Build the transfer plan staging ``task`` at ``target`` implies under
    the *current* ownership state — synchronously, with no messages and no
    side effects.

    A static-audit entry point for tests, which compare it against the
    plans the data manager actually executed; neither the runtime nor the
    analyzer calls it.
    """
    plan = TransferPlan(dst=target, purpose=f"static:{task.name}")
    manager = runtime.process(target).data_manager
    index = runtime.index
    for item in task.accessed_items_ordered():
        write = task.write_region(item)
        missing = write.difference(manager.owned_region(item))
        for pid in range(runtime.num_processes):
            if missing.is_empty():
                break
            if pid == target:
                continue
            part = index.owned_region(item, pid).intersect(missing)
            if not part.is_empty():
                plan.plan(item, part, pid, "migrate")
                missing = missing.difference(part)
        if not missing.is_empty():
            plan.plan(item, missing, target, "allocate")
        read = task.read_region(item)
        present = read.intersect(manager.present_region(item))
        plan.record_hit(
            item, present.difference(manager.owned_region(item))
        )
        wanted = read.difference(manager.present_region(item)).difference(
            plan.planned_region(item)
        )
        for pid in range(runtime.num_processes):
            if wanted.is_empty():
                break
            if pid == target:
                continue
            part = index.owned_region(item, pid).intersect(wanted)
            if not part.is_empty():
                plan.plan(item, part, pid, "replicate")
                wanted = wanted.difference(part)
        if not wanted.is_empty():
            plan.plan(item, wanted, target, "allocate")
    return plan


class ReplicaCache:
    """Accounting of one process's replicated bytes.

    The cache does not store data — fragments do; it tracks *what* was
    fetched, one region per fetch.  Correctness never depends on it:
    writers invalidate replicas explicitly.
    """

    __slots__ = ("manager", "_entries")

    def __init__(self, manager: "DataItemManager") -> None:
        self.manager = manager
        self._entries: dict[DataItem, list[Region]] = {}

    @property
    def _runtime(self) -> "AllScaleRuntime":
        return self.manager.process.runtime

    def entries(self, item: DataItem) -> list[Region]:
        return list(self._entries.get(item, []))

    # -- lifecycle hooks (called by the data manager) --------------------------------

    def note_fetched(self, item: DataItem, region: Region) -> None:
        """A replica of ``region`` just landed; start tracking it."""
        replicated = region.intersect(self.manager.replica_region(item))
        if replicated.is_empty():
            return
        self.note_dropped(item, replicated)  # refreshed, not duplicated
        self._entries.setdefault(item, []).append(replicated)

    def note_dropped(self, item: DataItem, region: Region) -> None:
        """Replica bytes left the fragment (invalidation or claim)."""
        entries = self._entries.get(item)
        if not entries:
            return
        kept = [entry.difference(region) for entry in entries]
        kept = [entry for entry in kept if not entry.is_empty()]
        if kept:
            self._entries[item] = kept
        else:
            self._entries.pop(item, None)

    def forget(self, item: DataItem) -> None:
        """The item was destroyed: stop tracking all of its replicas."""
        self._entries.pop(item, None)

    def record_hit(self, item: DataItem, region: Region) -> None:
        """A read was served from already-present replicated bytes."""
        metrics = self._runtime.metrics
        metrics.incr("comms.replica_hits")
        metrics.incr("comms.replica_hit_bytes", item.region_bytes(region))

    def record_miss(self, item: DataItem, region: Region) -> None:
        metrics = self._runtime.metrics
        metrics.incr("comms.replica_misses")
        metrics.incr("comms.replica_miss_bytes", item.region_bytes(region))
