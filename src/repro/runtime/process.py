"""Runtime processes: per-node task queues and workers (paper §3.2).

One :class:`RuntimeProcess` per cluster node, mirroring HPX's
process-per-node deployment.  Each process owns a task queue fed by the
scheduler, a lock table, and a data item manager.  Dequeued tasks are
handled by simulation coroutines; compute lands on the node's simulated
cores, so intra-node parallelism emerges from the core timelines while
data fetches overlap execution.

A task arrives together with the variant choice the policy made
(Algorithm 2 line 3) and the lookup it was placed with: the *split*
variant spawns child tasks that are re-assigned through the scheduler,
split along the owners that lookup names and placed from it while it
still holds; the *leaf* variant stages data through the data item
manager — its first staging fetches reads from those owners — takes
region locks, executes, and completes its treeture.

The queue is longest-first: split variants start before any leaf, since
they release parallelism, then leaves by descending ``flops`` (Graham's
LPT rule), arrival order breaking ties, so equal leaves run FIFO.  §2's
*(start)* rule lets any queued task start; this picks which.

Optional work stealing ("tasks are stored within node-local queues ...
yet may be stolen by other nodes"): an idle process probes a random peer
and, if its queue is backed up, pulls the half that would start last
over the network.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
from typing import TYPE_CHECKING, Generator

from repro.runtime.config import (
    CONTROL_MESSAGE_BYTES,
    TASK_MESSAGE_BYTES,
    TASK_SPAWN_OVERHEAD,
    TASK_START_OVERHEAD,
)
from repro.runtime.data_manager import DataItemManager, StagingError
from repro.runtime.locks import LockTable
from repro.runtime.tasks import (
    Lookup,
    OwnerMap,
    TaskExecutionContext,
    TaskSpec,
    Treeture,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.runtime import AllScaleRuntime
    from repro.sim.node import SimNode

QueueEntry = tuple[TaskSpec, Treeture, str, Lookup]


class RuntimeProcess:
    """One AllScale runtime process bound to one simulated node."""

    def __init__(
        self, runtime: "AllScaleRuntime", pid: int, node: "SimNode"
    ) -> None:
        self.runtime = runtime
        self.pid = pid
        self.node = node
        self.probe = runtime.probe
        self.locks = LockTable(runtime.engine, pid=pid, probe=self.probe)
        self.data_manager = DataItemManager(self)
        #: a heap of ``(rank, arrival, entry)``: splits first, then leaves
        #: by descending flops, arrival breaking ties; each entry is a
        #: queued ``(task, treeture, variant, placement lookup)``
        self.queue: list[tuple[float, int, QueueEntry]] = []
        self._arrivals = itertools.count()
        self.active = 0
        self.failed = False
        #: draining or a storm victim, from then until it fails: it starts
        #: no queued task (they are re-placed after it departs) and leaves
        #: the available processes, but it keeps taking placements and its
        #: active tasks and transfers run to completion, so its departure
        #: barrier is reached
        self.held = False
        self.executed_leaves = 0
        self.executed_splits = 0
        self._dispatching = False
        #: a steal probe of this process's queue is in flight
        self._offloading = False
        self._slot_waiters: list = []
        self._rng = random.Random(pid)

    # -- queue ---------------------------------------------------------------------

    @property
    def max_concurrent(self) -> int:
        # leave headroom over the core count so data fetches overlap compute
        return self.node.num_cores * 2

    def enqueue(
        self,
        task: TaskSpec,
        treeture: Treeture,
        variant: str,
        lookup: Lookup | None = None,
    ) -> None:
        """Queue ``task`` to run as ``variant``, carrying the ``lookup`` it
        was placed with (a hint, kept when the entry is stolen)."""
        if self.failed:
            raise RuntimeError(
                f"task {task.name!r} dispatched to failed process {self.pid}"
            )
        for notify in self.probe.task_enqueued:
            notify(task, treeture, self.pid, variant, self.runtime.engine.now)
        self._push((task, treeture, variant, lookup or {}))
        if (
            self.runtime.config.work_stealing
            and len(self.queue) > self.max_concurrent
            and not self._offloading
        ):
            self._offloading = True
            self.runtime.engine.spawn(self._offload_to_idle_peer())
        self._kick()

    def _push(self, entry: QueueEntry) -> None:
        task, _treeture, variant, _lookup = entry
        rank = -math.inf if variant == "split" and task.splittable else -task.flops
        heapq.heappush(self.queue, (rank, next(self._arrivals), entry))

    def queue_length(self) -> int:
        return len(self.queue)

    def take_queued(self) -> list[QueueEntry]:
        """Empty the queue and return its entries in arrival order."""
        by_arrival = sorted(self.queue, key=lambda queued: queued[1])
        self.queue.clear()
        return [entry for _rank, _arrival, entry in by_arrival]

    def _kick(self) -> None:
        if not self._dispatching:
            self._dispatching = True
            self.runtime.engine.spawn(self._dispatch())

    def _dispatch(self) -> Generator:
        try:
            # a held process starts nothing, nor waits for a slot: its
            # departure barrier must see every release
            while self.queue and not self.held:
                if self.active >= self.max_concurrent:
                    yield self._slot_free()
                    continue  # the queue may be stolen, the process held
                entry = heapq.heappop(self.queue)[2]
                self.active += 1
                self.runtime.engine.spawn(self._handle(*entry))
        finally:
            self._dispatching = False

    def _slot_free(self):
        future = self.runtime.engine.future()
        self._slot_waiters.append(future)
        return future

    def _release_slot(self) -> None:
        self.active -= 1
        if self._slot_waiters:
            self._slot_waiters.pop(0).complete(None)

    # -- task handling ---------------------------------------------------------------

    def _handle(
        self, task: TaskSpec, treeture: Treeture, variant: str, lookup: Lookup
    ) -> Generator:
        slot_released = False
        try:
            yield self.node.execute(TASK_START_OVERHEAD)
            if variant == "split" and task.splittable:
                children = task.splitter(  # type: ignore[misc]
                    self._split_owners(task, lookup)
                )
                if not children:
                    raise RuntimeError(
                        f"splitter of {task.name!r} produced no children"
                    )
                yield self.node.execute(TASK_SPAWN_OVERHEAD * len(children))
                # the children are placed from this task's lookup where it
                # still says who owns their data
                child_treetures = self.runtime.scheduler.assign_all(
                    children, [self.pid] * len(children), parent=lookup
                )
                # their placements hold the lookup as long as they need
                # it; the subtree below may run far longer
                del lookup
                # a suspended parent occupies no core: free the slot before
                # awaiting children, or recursive fork-join would exhaust
                # all slots with waiting parents and deadlock
                self._release_slot()
                slot_released = True
                values = yield self.runtime.engine.all_of(
                    [t.future for t in child_treetures]
                )
                value = task.combiner(values) if task.combiner else values
                self.executed_splits += 1
                self.runtime.metrics.incr("proc.splits")
                treeture.complete(value)
            else:
                leaf = self._run_leaf(
                    task, treeture, lookup, offload=(variant == "gpu")
                )
                del lookup  # the leaf drops it after its first staging
                yield from leaf
        finally:
            if not slot_released:
                self._release_slot()

    def _split_owners(self, task: TaskSpec, lookup: Lookup) -> OwnerMap:
        """The owner map a split task's splitter cuts along: the placement
        lookup's pieces of the first item the task writes, or that item's
        home map when the lookup found nothing of it owned (first touch).
        No new index traffic: the lookup was charged to place the task."""
        for item in task.accessed_items_ordered():
            if task.write_region(item).is_empty():
                continue
            pieces = lookup.get(item)
            if pieces:
                return pieces
            homes = self.runtime.home_map(item)
            return [(home, pid) for pid, home in enumerate(homes or ())]
        return ()

    def _run_leaf(
        self,
        task: TaskSpec,
        treeture: Treeture,
        lookup: Lookup | None,
        offload: bool = False,
    ) -> Generator:
        probe = self.probe
        engine = self.runtime.engine
        for notify in probe.task_start:
            notify(task, treeture, self.pid, engine.now)
        # stage data and take region locks.  Between staging completing and
        # the locks being granted other processes run, so the premises can
        # be invalidated again (a remote read copies the write set, seen
        # from the copy's cut on; a migration steals staged ownership) —
        # hence stage, lock, then *re-verify under lock* and restage on
        # failure.  A failed round holds the locks for zero simulated time,
        # so no deadlock can form through it.  A write-intent reservation
        # covers the whole staging window: a writer pulling ownership
        # defers to older intents, so writers that pull each other's rows
        # stop stealing each other's staged ownership (``writer_straddle``).
        # The first staging fetches reads from the owners the placement
        # lookup named; a restage looks up afresh.
        intents = {
            item: task.write_region(item)
            for item in task.accessed_items_ordered()
            if not task.write_region(item).is_empty()
        }
        if intents:
            self.runtime.register_write_intent(task, intents)
        try:
            for _attempt in range(16):
                yield from self.data_manager.ensure_for_task(task, lookup)
                lookup = None  # a restage looks up afresh
                for notify in probe.task_data_ready:
                    notify(task, treeture, self.pid, engine.now)
                # take region locks; queue behind conflicting holders
                while not self.locks.try_acquire(task, task.reads, task.writes):
                    self.runtime.metrics.incr("proc.lock_waits")
                    yield self.locks.released.wait()
                if self.data_manager.requirements_hold(task):
                    break
                self.locks.release(task)
                self.runtime.metrics.incr("proc.restages")
            else:
                # nothing ran since the failed verification: it fails alike
                raise StagingError(
                    *self.data_manager.unmet_requirement(task), self.pid, task,
                    "broken under lock on every restage (requirement thrashing?)",
                )
        finally:
            # the verified locks take over protection from here
            if intents:
                self.runtime.clear_write_intent(task)
        # the verified locks protect the whole execution window from here
        for notify in probe.task_locks_held:
            notify(task, treeture, self.pid, engine.now)
        try:
            devices = self.runtime.cluster.accelerators[self.pid]
            if offload and devices and task.gpu_flops is not None:
                # GPU variant: ship the accessed data across the link, run
                # the kernel, bring the written data back
                device = min(devices, key=lambda d: d._compute_free_at)
                inbound = sum(
                    item.region_bytes(task.accessed_region(item))
                    for item in task.accessed_items()
                )
                outbound = sum(
                    item.region_bytes(task.write_region(item))
                    for item in task.accessed_items()
                )
                yield device.transfer(inbound)
                yield device.launch(task.gpu_flops)
                yield device.transfer(outbound)
                self.runtime.metrics.incr("proc.gpu_offloads")
            else:
                cost = self.node.flops_to_seconds(task.flops)
                if cost > 0:
                    yield self.node.execute(cost)
            value = None
            if task.body is not None and (
                self.runtime.config.functional
                or task.body_in_virtual
            ):
                context = TaskExecutionContext(
                    self.pid,
                    task,
                    {
                        item: self.data_manager.fragment(item)
                        for item in task.accessed_items()
                    },
                )
                value = task.body(context)
        finally:
            self.locks.release(task)
        self.executed_leaves += 1
        self.runtime.metrics.incr("proc.leaves")
        for notify in probe.task_finish:
            notify(task, treeture, self.pid, engine.now)
        treeture.complete(value)

    # -- work stealing -----------------------------------------------------------------

    def _offload_to_idle_peer(self) -> Generator:
        """Let an idle peer steal the half of this backed-up queue that
        would start last, the short end of the order; the thief queues
        it under the same order.

        The paper's node-local queues "may be stolen by other nodes"; in
        the event-driven simulation the transfer is initiated when queue
        pressure appears (an idle node cannot wake itself), but the costs
        and the effect — half the queue moves, with per-task transfer
        messages — are those of a steal.  One probe is in flight per
        process at a time, so a burst of enqueues is offered once.
        """
        try:
            runtime = self.runtime
            if runtime.num_processes < 2:
                return
            probe = self._rng.randrange(runtime.num_processes - 1)
            if probe >= self.pid:
                probe += 1
            thief = runtime.process(probe)
            if thief.failed or thief.held:
                return  # corpses and departing processes don't steal
            # steal handshake: probe + response
            yield runtime.network.send(probe, self.pid, CONTROL_MESSAGE_BYTES)
            if thief.failed or thief.held:
                return  # the peer left while the probe travelled
            if thief.active > 0 or thief.queue_length() > 0:
                return  # peer is busy; nothing moves
            if self.queue_length() < 2:
                return
            loot_count = self.queue_length() // 2
            self.queue.sort()  # a sorted list is a heap
            loot = self.queue[-loot_count:]
            del self.queue[-loot_count:]
            yield runtime.network.send(
                self.pid, probe, TASK_MESSAGE_BYTES * loot_count
            )
            runtime.metrics.incr("proc.steals")
            runtime.metrics.incr("proc.stolen_tasks", loot_count)
            for _rank, _arrival, entry in loot:
                thief._push(entry)
            thief._kick()
        finally:
            self._offloading = False

    def __repr__(self) -> str:
        return (
            f"RuntimeProcess(pid={self.pid}, queued={len(self.queue)}, "
            f"active={self.active})"
        )
