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
it names, and a leaf's first staging fetches its reads from them.

Each item's part of a lookup is a :class:`~repro.runtime.tasks.Resolution`
stamped with the item's ownership epoch.  A split's children are placed
from their parent's lookup, clipped to each child, with no lookup and no
message, while that stamp is still the item's epoch and the clip
resolves the child's whole region; any other child is looked up afresh.
Remote dispatch ships the task closure as a network message.
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
from repro.runtime.tasks import (
    STALE,
    Lookup,
    Resolution,
    TaskSpec,
    Treeture,
    clip,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.runtime import AllScaleRuntime


class Scheduler:
    """Algorithm 2 plus the plumbing to move tasks between processes."""

    def __init__(self, runtime: "AllScaleRuntime") -> None:
        self.runtime = runtime
        self.index = index = runtime.index
        #: whether processes keep a locality cache of what they looked up,
        #: reused or received
        self._caching = runtime.config.index_caching
        #: one Algorithm-1 lookup ``(item, region, origin)``, through the
        #: origin's locality cache when ``index_caching`` is on
        self._lookup = index.lookup_cached if self._caching else index.lookup

    # -- public entry -------------------------------------------------------------

    def assign(
        self,
        task: TaskSpec,
        origin: int = 0,
        after: list[Treeture] | None = None,
        parent: Lookup | None = None,
    ) -> Treeture:
        """Schedule ``task``; returns its treeture immediately.

        ``after`` lists treetures that must complete before the task is
        even placed — fine-grained dependencies without a global barrier
        (the AllScale API's treeture-composition style).  ``parent`` is
        the lookup of the split that spawned ``task``, which may place it
        without a lookup of its own (:meth:`_reuse`).
        """
        runtime = self.runtime
        treeture = Treeture(runtime.engine, task.name)
        if after:
            gate = runtime.engine.all_of([t.future for t in after])

            def launch(_values) -> None:
                runtime.engine.spawn(
                    self._assign_process(task, treeture, origin, parent=parent)
                )

            gate.add_callback(launch)
        else:
            runtime.engine.spawn(
                self._assign_process(task, treeture, origin, parent=parent)
            )
        return treeture

    def assign_batch(
        self,
        tasks: list[TaskSpec],
        origin: int = 0,
        parent: Lookup | None = None,
    ) -> list[Treeture]:
        """Co-schedule sibling tasks of one split as a batch.

        Siblings that their ``parent``'s lookup places (:meth:`_reuse`)
        need no lookup; for the others one charged Algorithm-1 lookup
        resolves the *union* of their accessed regions per item, and each
        is placed from its clip of that shared mapping (element-identical
        to a per-task lookup, so placement matches :meth:`assign`).  The
        task parcels travelling to the same destination coalesce into one
        bulk message.  Returns the treetures in task order.
        """
        runtime = self.runtime
        treetures = [Treeture(runtime.engine, task.name) for task in tasks]
        runtime.engine.spawn(
            self._assign_batch_process(list(tasks), treetures, origin, parent)
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
        parent: Lookup | None = None,
    ) -> Generator:
        runtime = self.runtime
        if variant is None:
            variant = runtime.policy.pick_variant(task, runtime)
        lookup: dict[DataItem, Resolution] = {}
        if task.accessed_items():
            lookup = yield from self._locate_requirements(task, origin, parent)
        target = self._choose_target(task, lookup, origin)
        # inline, not spawned: the task's dispatch events keep their order
        yield from self._dispatch_group(
            target, [(task, treeture, variant, lookup)], origin, bulk=False
        )

    def _assign_batch_process(
        self,
        tasks: list[TaskSpec],
        treetures: list[Treeture],
        origin: int,
        parent: Lookup | None,
    ) -> Generator:
        runtime = self.runtime
        # the parent's lookup places what it can; one charged lookup per
        # item covers the union of the sibling regions it cannot
        reused: list[dict[DataItem, Resolution]] = []
        union: dict[DataItem, Region] = {}
        for task in tasks:
            found: dict[DataItem, Resolution] = {}
            for item in task.accessed_items_ordered():
                region = task.accessed_region(item)
                record = self._reuse(parent, item, region, origin)
                if record is not None:
                    found[item] = record
                else:
                    known = union.get(item)
                    union[item] = region if known is None else known.union(region)
            reused.append(found)
        shared: dict[DataItem, Resolution] = {}
        for item, region in union.items():
            shared[item] = yield from self._resolve(item, region, origin)
        # place each sibling from its records, then group the dispatches
        # by destination
        groups: dict[int, list] = {}
        for task, treeture, found in zip(tasks, treetures, reused):
            variant = runtime.policy.pick_variant(task, runtime)
            lookup: dict[DataItem, Resolution] = {}
            for item in task.accessed_items_ordered():
                record = found.get(item)
                if record is None:
                    pieces = shared[item]
                    record = Resolution(
                        clip(pieces, task.accessed_region(item)), pieces.epoch
                    )
                lookup[item] = record
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
            returns: dict[int, _ParcelReturn] = {}
            for task, treeture, variant, lookup in entries:
                yield runtime.process(target).node.interleave(
                    REMOTE_TASK_CPU_OVERHEAD
                )
                # a storm may fail the target mid-decode: this task and
                # the rest of the parcel land at a survivor
                target = runtime._redirect_if_failed(target)
                if self._caching:
                    for item, record in lookup.items():
                        self.index.learn(item, target, record.epoch, record)
                if self._prefetches(variant, lookup):
                    runtime.process(target).data_manager.prefetch_for_task(
                        task, lookup
                    )
                back = returns.get(target)
                if back is None:
                    back = returns[target] = _ParcelReturn(runtime, target, origin)
                inner = back.add(task, treeture)
                runtime.process(target).enqueue(task, inner, variant, lookup)
            for back in returns.values():
                back.seal()
        else:
            # the leaves placed here together prefetch together
            placed = [
                (task, lookup)
                for task, _treeture, variant, lookup in entries
                if self._prefetches(variant, lookup)
            ]
            if placed:
                runtime.process(target).data_manager.prefetch_for_tasks(placed)
            for task, treeture, variant, lookup in entries:
                runtime.metrics.incr("sched.local_dispatch")
                runtime.process(target).enqueue(task, treeture, variant, lookup)

    def _choose_target(
        self, task: TaskSpec, lookup: dict[DataItem, Resolution], origin: int
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

    def _prefetches(self, variant: str, lookup: dict) -> bool:
        """Whether dispatch kicks off replica prefetch for a placed task.

        Prefetch reuses the placement lookup, so no extra index traffic;
        split tasks are skipped — their children run elsewhere.
        """
        return (
            self.runtime.config.replica_prefetch
            and variant != "split"
            and bool(lookup)
        )

    # -- coverage from one charged lookup -----------------------------------------------

    def _locate_requirements(
        self, task: TaskSpec, origin: int, parent: Lookup | None
    ) -> Generator:
        lookup: dict[DataItem, Resolution] = {}
        for item in task.accessed_items_ordered():
            region = task.accessed_region(item)
            record = self._reuse(parent, item, region, origin)
            if record is None:
                record = yield from self._resolve(item, region, origin)
            lookup[item] = record
        return lookup

    def _resolve(self, item: DataItem, region: Region, origin: int) -> Generator:
        """One charged lookup of ``region``, stamped with the epoch read
        when it started, or :data:`STALE` if ownership moved before it
        ended.  Reading the epoch is free: the item's ownership version is
        the one index value every process is assumed to know, as
        :meth:`HierarchicalIndex.lookup_cached` assumes."""
        epoch = self.index.ownership_version(item)
        mapping, _unresolved = yield from self._lookup(item, region, origin)
        if self.index.ownership_version(item) != epoch:
            epoch = STALE
        return Resolution(mapping, epoch)

    def _reuse(
        self, parent: Lookup | None, item: DataItem, region: Region, origin: int
    ) -> Resolution | None:
        """The ``parent`` lookup's pieces of ``item`` clipped to ``region``,
        when they still say who owns all of it: the item's epoch is still
        the one they were stamped with, and the clip resolves the whole
        region — so it lies inside what the parent looked up, and no first
        touch is pending.  None otherwise: the caller looks up afresh."""
        pieces = parent.get(item) if parent else None
        if not isinstance(pieces, Resolution) or (
            pieces.epoch != self.index.ownership_version(item)
        ):
            return None
        record = Resolution(clip(pieces, region), pieces.epoch)
        # the pieces are disjoint, so their sizes add up to the region's
        # exactly when they cover it
        if sum(part.size() for part, _owner in record) != region.size():
            return None
        if self._caching:
            self.index.learn(item, origin, record.epoch, record, region)
        return record

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


class _ParcelReturn:
    """The completions of a parcel's tasks that landed at one process:
    they travel back to the origin together once the last of them has
    finished — one message for a plain parcel's one task, one bulk message
    for a coalesced parcel's siblings.  Only a split awaits its children,
    and it awaits all of them, so no one waits longer for a value."""

    def __init__(self, runtime: "AllScaleRuntime", target: int, origin: int):
        self.runtime = runtime
        self.target = target
        self.origin = origin
        self.pending = 0
        self.sealed = False
        self.finished: list[tuple[Treeture, Any]] = []

    def add(self, task: TaskSpec, treeture: Treeture) -> Treeture:
        """The inner treeture ``task`` completes at the target."""
        inner = Treeture(self.runtime.engine, task.name)
        self.pending += 1

        def finish(value: Any) -> None:
            self.finished.append((treeture, value))
            self.pending -= 1
            self._send()

        inner.then(finish)
        return inner

    def seal(self) -> None:
        """No more tasks of the parcel land here."""
        self.sealed = True
        self._send()

    def _send(self) -> None:
        if not self.sealed or self.pending:
            return
        finished = self.finished
        network = self.runtime.network
        if len(finished) == 1:
            notify = network.send(self.target, self.origin, COMPLETION_MESSAGE_BYTES)
        else:
            notify = network.send_bulk(
                self.target, self.origin, [COMPLETION_MESSAGE_BYTES] * len(finished)
            )

        def deliver(_at: Any) -> None:
            for treeture, value in finished:
                treeture.complete(value)

        notify.add_callback(deliver)
