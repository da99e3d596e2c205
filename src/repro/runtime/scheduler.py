"""Inter-process task scheduling (paper §3.2, Algorithm 2).

``assign`` implements ``ASSIGN_TO_NODE``: the policy picks the variant,
then the task is dispatched to

1. a process whose owned regions cover *all* data requirements, else
2. a process covering all *write* requirements, else
3. wherever the scheduling policy chooses.

Coverage is derived from one charged hierarchical-index lookup over the
task's accessed regions (Algorithm 1), and the resulting ownership map is
handed to the policy so its placement decision reuses the same
information.  Every task takes the same lookup along to its process (the
queue entry's last slot): a split task's splitter cuts along the owners
it names, and a leaf's first staging fetches its reads from them.  Remote
dispatch ships the task closure as a network message.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator

from repro.items.base import DataItem
from repro.regions.base import Region
from repro.runtime.config import (
    COMPLETION_MESSAGE_BYTES,
    REMOTE_TASK_CPU_OVERHEAD,
    TASK_MESSAGE_BYTES,
)
from repro.runtime.policies import PlacementContext
from repro.runtime.tasks import TaskSpec, Treeture

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.runtime import AllScaleRuntime


class Scheduler:
    """Algorithm 2 plus the plumbing to move tasks between processes."""

    def __init__(self, runtime: "AllScaleRuntime") -> None:
        self.runtime = runtime
        index = runtime.index
        #: one Algorithm-1 lookup ``(item, region, origin)``, through the
        #: origin's locality cache when ``index_caching`` is on
        self._lookup = (
            index.lookup_cached if runtime.config.index_caching else index.lookup
        )

    # -- public entry -------------------------------------------------------------

    def assign(
        self,
        task: TaskSpec,
        origin: int = 0,
        after: list[Treeture] | None = None,
    ) -> Treeture:
        """Schedule ``task``; returns its treeture immediately.

        ``after`` lists treetures that must complete before the task is
        even placed — fine-grained dependencies without a global barrier
        (the AllScale API's treeture-composition style).
        """
        runtime = self.runtime
        treeture = Treeture(runtime.engine, task.name)
        if after:
            gate = runtime.engine.all_of([t.future for t in after])

            def launch(_values) -> None:
                runtime.engine.spawn(
                    self._assign_process(task, treeture, origin)
                )

            gate.add_callback(launch)
        else:
            runtime.engine.spawn(self._assign_process(task, treeture, origin))
        return treeture

    def assign_batch(
        self, tasks: list[TaskSpec], origin: int = 0
    ) -> list[Treeture]:
        """Co-schedule sibling tasks of one split as a batch.

        One charged Algorithm-1 lookup resolves the *union* of every
        sibling's accessed regions per item, each task is placed from its
        clip of that shared mapping (element-identical to a per-task
        lookup, so placement matches :meth:`assign`), and the task parcels
        travelling to the same destination coalesce into one bulk message.
        Returns the treetures in task order.
        """
        runtime = self.runtime
        treetures = [Treeture(runtime.engine, task.name) for task in tasks]
        runtime.engine.spawn(
            self._assign_batch_process(list(tasks), treetures, origin)
        )
        return treetures

    def reassign(
        self, task: TaskSpec, treeture: Treeture, variant: str, origin: int
    ) -> None:
        """Place an already-chosen ``(task, treeture, variant)`` again
        through Algorithm 2 from ``origin`` — a storm victim's queued task
        that never started, re-placed at wherever its data lives now."""
        self.runtime.engine.spawn(
            self._assign_process(task, treeture, origin, variant)
        )

    # -- ASSIGN_TO_NODE ------------------------------------------------------------

    def _assign_process(
        self,
        task: TaskSpec,
        treeture: Treeture,
        origin: int,
        variant: str | None = None,
    ) -> Generator:
        runtime = self.runtime
        if variant is None:
            variant = runtime.policy.pick_variant(task, runtime)
        lookup: dict[DataItem, list[tuple[Region, int]]] = {}
        if task.accessed_items():
            lookup = yield from self._locate_requirements(task, origin)
        target = self._choose_target(task, lookup, origin)
        # inline, not spawned: the task's dispatch events keep their order
        yield from self._dispatch_group(
            target, [(task, treeture, variant, lookup)], origin, bulk=False
        )

    def _assign_batch_process(
        self, tasks: list[TaskSpec], treetures: list[Treeture], origin: int
    ) -> Generator:
        runtime = self.runtime
        # one charged lookup per item over the union of sibling regions
        union: dict[DataItem, Region] = {}
        order: list[DataItem] = []
        for task in tasks:
            for item in task.accessed_items_ordered():
                region = task.accessed_region(item)
                if item not in union:
                    union[item] = region
                    order.append(item)
                else:
                    union[item] = union[item].union(region)
        shared: dict[DataItem, list[tuple[Region, int]]] = {}
        for item in order:
            mapping, _unresolved = yield from self._lookup(
                item, union[item], origin
            )
            shared[item] = mapping
        # place each sibling from its clip of the shared mapping, then
        # group the dispatches by destination
        groups: dict[int, list] = {}
        for task, treeture in zip(tasks, treetures):
            variant = runtime.policy.pick_variant(task, runtime)
            lookup: dict[DataItem, list[tuple[Region, int]]] = {}
            for item in task.accessed_items_ordered():
                region = task.accessed_region(item)
                pieces = []
                for part, owner in shared.get(item, ()):
                    overlap = part.intersect(region)
                    if not overlap.is_empty():
                        pieces.append((overlap, owner))
                lookup[item] = pieces
            target = self._choose_target(task, lookup, origin)
            groups.setdefault(target, []).append(
                (task, treeture, variant, lookup)
            )
        dispatchers = [
            runtime.engine.spawn(
                self._dispatch_group(target, groups[target], origin, bulk=True)
            )
            for target in sorted(groups)
        ]
        if dispatchers:
            yield runtime.engine.all_of(dispatchers)

    def _dispatch_group(
        self, target: int, entries: list, origin: int, bulk: bool
    ) -> Generator:
        """Algorithm 2's dispatch of placed ``(task, treeture, variant,
        lookup)`` entries to ``target``.  ``bulk`` picks only the wire
        accounting: a batch's parcels coalesce into one ``send_bulk``,
        charged once on the NIC, instead of a plain ``send``."""
        runtime = self.runtime
        if target != origin:
            runtime.metrics.incr("sched.remote_dispatch", len(entries))
            if bulk:
                runtime.metrics.incr("comms.batched_dispatches")
                runtime.metrics.incr("comms.batched_tasks", len(entries))
            # closure serialization at the origin, parcel decode at the
            # target — the prototype's per-task CPU cost.  Store-and-
            # forward: every closure serializes before the parcel leaves,
            # the receiver decodes (and enqueues) the tasks one by one.
            # Both are parcel work a worker interleaves between booked
            # compute, so neither waits for a core to come free
            for _ in entries:
                yield runtime.process(origin).node.interleave(
                    REMOTE_TASK_CPU_OVERHEAD
                )
            if bulk:
                yield runtime.network.send_bulk(
                    origin, target, [TASK_MESSAGE_BYTES] * len(entries)
                )
            else:
                yield runtime.network.send(origin, target, TASK_MESSAGE_BYTES)
            # the destination may have failed while the parcel travelled;
            # the tasks land at the process dispatch would pick *now*
            target = runtime._redirect_if_failed(target)
            for task, treeture, variant, lookup in entries:
                yield runtime.process(target).node.interleave(
                    REMOTE_TASK_CPU_OVERHEAD
                )
                # a storm may fail the target mid-decode: this task and
                # the rest of the parcel land at a survivor
                target = runtime._redirect_if_failed(target)
                self._maybe_prefetch(task, target, variant, lookup)
                inner = self._remote_treeture(task, target, origin, treeture)
                runtime.process(target).enqueue(task, inner, variant, lookup)
        else:
            for task, treeture, variant, lookup in entries:
                runtime.metrics.incr("sched.local_dispatch")
                self._maybe_prefetch(task, target, variant, lookup)
                runtime.process(target).enqueue(task, treeture, variant, lookup)

    def _choose_target(
        self,
        task: TaskSpec,
        lookup: dict[DataItem, list[tuple[Region, int]]],
        origin: int,
    ) -> int:
        """Algorithm 2's placement cascade over an already-charged lookup."""
        runtime = self.runtime
        # a policy holding an offline plan may pin this task; the pin wins
        # whenever it sits inside the cascade tier that would fire anyway,
        # so a plan can steer ties without weakening the coverage rules
        preferred = runtime.policy.preferred_target(task)
        if preferred is not None and not (
            0 <= preferred < runtime.num_processes
        ):
            preferred = None
        target: int | None = None
        if lookup:
            # per-item owner shares are built once and reused by both
            # coverage passes (Algorithm 2 lines 4 and 7)
            shares = {
                item: self._owner_shares(pieces)
                for item, pieces in lookup.items()
            }
            target = self._covering_all(task, shares, preferred)
            if target is None:
                target = self._covering_writes(task, shares, preferred)
        if target is None:
            if preferred is not None:
                target = preferred
            else:
                ctx = PlacementContext(runtime, origin, lookup)
                target = runtime.policy.pick_target(task, ctx)
        if not (0 <= target < runtime.num_processes):
            raise ValueError(
                f"policy chose invalid target {target} for {task.name!r}"
            )
        return runtime._redirect_if_failed(target)

    def _remote_treeture(
        self, task: TaskSpec, target: int, origin: int, treeture: Treeture
    ) -> Treeture:
        """Inner treeture whose completion travels back as a notification."""
        runtime = self.runtime
        inner = Treeture(runtime.engine, task.name)

        def forward(value: Any) -> None:
            notify = runtime.network.send(
                target, origin, COMPLETION_MESSAGE_BYTES
            )
            notify.add_callback(lambda _at: treeture.complete(value))

        inner.then(forward)
        return inner

    def _maybe_prefetch(
        self,
        task: TaskSpec,
        target: int,
        variant: str,
        lookup: dict[DataItem, list[tuple[Region, int]]],
    ) -> None:
        """Kick off replica prefetch at the target for a leaf task.

        Reuses the placement lookup, so no extra index traffic; split
        tasks are skipped — their children run elsewhere.
        """
        runtime = self.runtime
        if not runtime.config.replica_prefetch or variant == "split":
            return
        if not lookup:
            return
        runtime.process(target).data_manager.prefetch_for_task(task, lookup)

    # -- coverage from one charged lookup -----------------------------------------------

    def _locate_requirements(
        self, task: TaskSpec, origin: int
    ) -> Generator:
        lookup: dict[DataItem, list[tuple[Region, int]]] = {}
        for item in task.accessed_items_ordered():
            region = task.accessed_region(item)
            mapping, _unresolved = yield from self._lookup(item, region, origin)
            lookup[item] = mapping
        return lookup

    @staticmethod
    def _owner_shares(
        pieces: list[tuple[Region, int]]
    ) -> dict[int, Region]:
        """Union of looked-up parts per owning process, in one pass."""
        shares: dict[int, Region] = {}
        for part, owner in pieces:
            current = shares.get(owner)
            shares[owner] = part if current is None else current.union(part)
        return shares

    def _covering_all(
        self,
        task: TaskSpec,
        shares: dict[DataItem, dict[int, Region]],
        preferred: int | None = None,
    ) -> int | None:
        """Algorithm 2 line 4: a process covering every requirement."""
        return self._covering(task, shares, writes_only=False, preferred=preferred)

    def _covering_writes(
        self,
        task: TaskSpec,
        shares: dict[DataItem, dict[int, Region]],
        preferred: int | None = None,
    ) -> int | None:
        """Algorithm 2 line 7: a process covering all write requirements."""
        if not task.writes:
            return None
        return self._covering(task, shares, writes_only=True, preferred=preferred)

    def _covering(
        self,
        task: TaskSpec,
        shares: dict[DataItem, dict[int, Region]],
        writes_only: bool,
        preferred: int | None = None,
    ) -> int | None:
        candidates: set[int] | None = None
        for item in task.accessed_items_ordered():
            needed = (
                task.write_region(item)
                if writes_only
                else task.accessed_region(item)
            )
            if needed.is_empty():
                continue
            covering = {
                pid
                for pid, share in shares.get(item, {}).items()
                if share.covers(needed)
            }
            if candidates is None:
                candidates = covering
            else:
                candidates &= covering
            if not candidates:
                return None
        if not candidates:
            return None
        if preferred is not None and preferred in candidates:
            return preferred
        return min(candidates)
