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

A split's children are placed from their parent's lookup, clipped to
each child, with no lookup and no message, when the clip resolves the
child's whole region; any other child is looked up afresh.  Ownership
may have moved since the parent's lookup, and no placing process can
tell without a message.  The process a task lands on can, from its own
leaves: :meth:`Scheduler._land`, the one step that queues a dispatched
task, re-places a task whose lookup names an owner of all its writes
(Algorithm 2 line 7) when the landing process does not own them.
Remote dispatch ships the task closure as a network message.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Sequence

from repro.items.base import DataItem
from repro.regions.base import Region
from repro.runtime.config import (
    COMPLETION_MESSAGE_BYTES,
    REMOTE_TASK_CPU_OVERHEAD,
    TASK_MESSAGE_BYTES,
)
from repro.runtime.policies import PlacementContext
from repro.runtime.tasks import Lookup, OwnerMap, TaskSpec, Treeture, clip

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.runtime import AllScaleRuntime


class Scheduler:
    """Algorithm 2 plus the plumbing to move tasks between processes."""

    def __init__(self, runtime: "AllScaleRuntime") -> None:
        self.runtime = runtime
        self.index = index = runtime.index
        #: whether processes keep a locality cache of what they looked up
        #: or were handed by a task that landed there
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

    def assign_all(
        self,
        tasks: Sequence[TaskSpec],
        origins: Sequence[int],
        parent: Lookup | None = None,
    ) -> list[Treeture]:
        """Schedule ``tasks``, the ``k``-th from ``origins[k]``: a split's
        children, or a phase's roots.  Returns the treetures in task order.

        The one place placement reads ``comm_coalescing``.  Off, every task
        goes through :meth:`assign`, in task order.  On, the tasks of one
        origin are co-scheduled siblings: a group of two or more goes
        through :meth:`assign_batch`, a group of one through
        :meth:`assign`, and the groups go in order of their first task.
        """
        if not self.runtime.config.comm_coalescing:
            return [
                self.assign(task, origin, parent=parent)
                for task, origin in zip(tasks, origins)
            ]
        groups: dict[int, list[int]] = {}
        for k, origin in enumerate(origins):
            groups.setdefault(origin, []).append(k)
        placed: dict[int, Treeture] = {}
        for origin, members in groups.items():
            if len(members) == 1:
                treetures = [self.assign(tasks[members[0]], origin, parent=parent)]
            else:
                treetures = self.assign_batch(
                    [tasks[k] for k in members], origin, parent
                )
            placed.update(zip(members, treetures))
        return [placed[k] for k in range(len(tasks))]

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
        that never started, or a task that landed misplaced, re-placed at
        wherever its data lives now."""
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
        lookup: dict[DataItem, OwnerMap] = {}
        if task.accessed_items():
            lookup = yield from self._locate_requirements(task, origin, parent)
        target = self._choose_target(task, lookup, origin)
        # inline, not spawned: the task's dispatch events keep their order
        yield from self._dispatch_group(
            target, [(task, treeture, variant, lookup)], origin
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
        reused: list[dict[DataItem, OwnerMap]] = []
        union: dict[DataItem, Region] = {}
        for task in tasks:
            found: dict[DataItem, OwnerMap] = {}
            for item in task.accessed_items_ordered():
                region = task.accessed_region(item)
                pieces = self._reuse(parent, item, region)
                if pieces is not None:
                    found[item] = pieces
                else:
                    known = union.get(item)
                    union[item] = region if known is None else known.union(region)
            reused.append(found)
        shared: dict[DataItem, OwnerMap] = {}
        for item, region in union.items():
            shared[item], _unresolved = yield from self._lookup(item, region, origin)
        # place each sibling from its records, then group the dispatches
        # by destination
        groups: dict[int, list] = {}
        for task, treeture, found in zip(tasks, treetures, reused):
            variant = runtime.policy.pick_variant(task, runtime)
            lookup: dict[DataItem, OwnerMap] = {}
            for item in task.accessed_items_ordered():
                pieces = found.get(item)
                if pieces is None:
                    pieces = clip(shared[item], task.accessed_region(item))
                lookup[item] = pieces
            target = self._choose_target(task, lookup, origin)
            groups.setdefault(target, []).append(
                (task, treeture, variant, lookup)
            )
        dispatchers = [
            runtime.engine.spawn(
                self._dispatch_group(target, groups[target], origin)
            )
            for target in sorted(groups)
        ]
        if dispatchers:
            yield runtime.engine.all_of(dispatchers)

    def _dispatch_group(
        self, target: int, entries: list, origin: int
    ) -> Generator:
        """Algorithm 2's dispatch of placed ``(task, treeture, variant,
        lookup)`` entries to ``target``.  A parcel of several tasks
        travels as one ``send_bulk``, charged once on the NIC; a parcel of
        one is a plain ``send`` (the same charge), and no batch."""
        runtime = self.runtime
        bulk = len(entries) > 1
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
                if self._prefetches(variant, lookup):
                    runtime.process(target).data_manager.prefetch_for_task(
                        task, lookup
                    )
                back = returns.get(target)
                if back is None:
                    back = returns[target] = _ParcelReturn(runtime, target, origin)
                self._land(task, back.add(task, treeture), variant, lookup, target)
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
                self._land(task, treeture, variant, lookup, target)

    def _land(
        self,
        task: TaskSpec,
        treeture: Treeture,
        variant: str,
        lookup: Lookup,
        target: int,
    ) -> None:
        """Queue a dispatched task at ``target`` — the only way one gets
        there — unless ``target``'s own leaves, a local read, show the
        lookup it carries out of date: the lookup names a process owning
        all the task's writes (Algorithm 2 line 7), and ``target`` does
        not own them all.  Such a task re-places itself from ``target``
        with a fresh charged lookup (``sched.replaced``), after
        ``target``'s locality cache forgets the written items.  A queued
        task's lookup is learned there."""
        runtime = self.runtime
        if self._misplaced(task, lookup, target):
            runtime.metrics.incr("sched.replaced")
            if self._caching:
                for item in task.writes:
                    self.index.forget(item, target)
            self.reassign(task, treeture, variant, target)
            return
        if self._caching:
            for item, pieces in lookup.items():
                self.index.learn(item, target, pieces)
        runtime.process(target).enqueue(task, treeture, variant, lookup)

    def _misplaced(self, task: TaskSpec, lookup: Lookup, target: int) -> bool:
        """Whether ``target``'s own leaves miss some of ``task``'s writes
        while ``lookup`` names a process covering them all."""
        leaf = self.index.leaf
        if all(leaf(item, target).covers(w) for item, w in task.writes.items()):
            return False
        shares = {
            item: self._owner_shares(lookup.get(item, ())) for item in task.writes
        }
        return self._covering_writes(task, shares) is not None

    def _choose_target(self, task: TaskSpec, lookup: Lookup, origin: int) -> int:
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
        lookup: dict[DataItem, OwnerMap] = {}
        for item in task.accessed_items_ordered():
            region = task.accessed_region(item)
            pieces = self._reuse(parent, item, region)
            if pieces is None:
                pieces, _unresolved = yield from self._lookup(item, region, origin)
            lookup[item] = pieces
        return lookup

    @staticmethod
    def _reuse(
        parent: Lookup | None, item: DataItem, region: Region
    ) -> OwnerMap | None:
        """The ``parent`` lookup's pieces of ``item`` clipped to ``region``,
        when the clip resolves the whole region — so it lies inside what
        the parent looked up, and no first touch is pending.  None
        otherwise: the caller looks up afresh.  The clip says who owned
        the region when the parent was placed; where the child lands
        checks it (:meth:`_land`)."""
        pieces = parent.get(item) if parent else None
        if pieces is None:
            return None
        clipped = clip(pieces, region)
        # the pieces are disjoint, so their sizes add up to the region's
        # exactly when they cover it
        if sum(part.size() for part, _owner in clipped) != region.size():
            return None
        return clipped

    @staticmethod
    def _owner_shares(pieces: OwnerMap) -> dict[int, Region]:
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
    for a coalesced parcel's siblings.  Only a split awaits its children
    and only a phase barrier its roots, each all of them, so no one waits
    longer for a value."""

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
