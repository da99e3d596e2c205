"""The data item manager (paper §3.2).

One manager per runtime process.  It maintains the process's fragments,
tells the region of each item the process *owns* (the authoritative copy)
from what it merely *replicates* (read-only halo data), and implements the
data movement a task's requirements demand before it may start.  The owned
region is not stored here: it *is* the process's leaf of the hierarchical
index, and every ownership change writes only through
:meth:`~repro.runtime.index.HierarchicalIndex.update_ownership`.

* **allocate** — the *(init)* rule: first-touch allocation of data present
  nowhere;
* **migrate in** — the *(migrate)* rule and the one executor of every
  ownership move (:class:`Move`): ownership (and the bytes) move from
  another process, blocked while the source holds any lock on the region
  exactly as the formal guard requires, or from stable storage;
* **replicate in** — the *(replicate)* rule: a read-only copy is fetched;
  blocked only by the source's *write* locks;
* **replica invalidation** — enforcing the start rule's ``D ∩ Dw = ∅``
  premise (and thereby the exclusive-writes property): before a write
  executes, all remote replicas of the written region are dropped.

All message sizes and bookkeeping costs go through the simulated network
and node cores, so data management overhead shows up in benchmark time.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, Generator, Iterable, NamedTuple

from repro.items.base import DataItem, Fragment, FragmentPayload
from repro.regions.base import Region
from repro.regions.bounds import bounds_disjoint
from repro.runtime.config import CONTROL_MESSAGE_BYTES, FRAGMENT_OP_OVERHEAD
from repro.runtime.tasks import Lookup, OwnerMap, TaskSpec, clip
from repro.runtime.transfers import ReplicaCache, TransferPlan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.process import RuntimeProcess
    from repro.runtime.runtime import AllScaleRuntime
    from repro.sim.engine import Future, SimEngine

#: finished transfer plans kept per process for audits and property tests
PLAN_LOG_LIMIT = 128


def _union(regions: list[Region]) -> Region:
    """Union of a non-empty list of regions, folded left to right."""
    out = regions[0]
    for region in regions[1:]:
        out = out.union(region)
    return out


def _by_owner(
    mapping: list[tuple[Region, int]], pid: int
) -> dict[int, list[Region]]:
    """Looked-up parts grouped per owning peer, ``pid``'s own and empty
    parts left out."""
    grouped: dict[int, list[Region]] = {}
    for part, owner in mapping:
        if owner != pid and not part.is_empty():
            grouped.setdefault(owner, []).append(part)
    return grouped


class Move(NamedTuple):
    """One ownership move: ``region`` of ``item`` goes from ``src`` — a
    live pid, or a checkpoint payload (stable storage) — to ``dst``.  Every
    redistribution planner returns these; :func:`run_moves` and
    :func:`run_stored_moves` run them."""

    item: DataItem
    region: Region
    src: int | FragmentPayload
    dst: int


class StagingError(RuntimeError):
    """Process ``pid`` could not bring ``region`` of ``item`` into place for
    ``task`` (``None``: a move outside any task); ``why`` says why."""

    def __init__(
        self, item: DataItem, region: Region, pid: int, task: object, why: str
    ) -> None:
        name = f" for task {task.name!r}" if isinstance(task, TaskSpec) else ""
        super().__init__(
            f"process {pid} could not stage {region.size()} elements of "
            f"{item.name!r}{name}: {why}"
        )
        self.item, self.region, self.pid, self.task = item, region, pid, task


def cut_payload(
    item: DataItem, payload: FragmentPayload, region: Region
) -> FragmentPayload:
    """The sub-``region`` of a checkpointed payload."""
    staging = item.new_fragment(
        item.empty_region(), functional=payload.data is not None
    )
    staging.insert(payload)
    return staging.extract(region)


def _guard_holds(
    peer: "RuntimeProcess", item: DataItem, region: Region, locked: Callable
) -> bool:
    """The source guard: ``locked`` finds no lock on ``region`` at ``peer``,
    and none of its bytes are in flight there."""
    return not (
        locked(item, region)
        or peer.data_manager.in_flight_region(item).overlaps(region)
    )


def _at_source(
    peer: "RuntimeProcess", item: DataItem, region: Region, writes_only: bool
) -> Generator:
    """Wait until the *(migrate)* guard holds at ``peer`` — the *(replicate)*
    one, blocked by write locks only, if ``writes_only`` — then charge the
    source's fragment-op overhead and start over unless it still holds.
    Returns what ``peer`` then holds of ``region`` (owned bytes for a move,
    present ones for a copy) for the caller to cut with no yield in
    between; if it holds none, returns that at once, uncharged."""
    locks, source = peer.locks, peer.data_manager
    locked = locks.write_locked if writes_only else locks.any_locked
    holds = source.present_region if writes_only else source.owned_region
    while True:
        while locked(item, region):
            yield locks.released.wait()
        while source.in_flight_region(item).overlaps(region):
            yield source.in_flight.wait()
        if holds(item).intersect(region).is_empty():
            return item.empty_region()
        yield peer.node.interleave(FRAGMENT_OP_OVERHEAD)
        if _guard_holds(peer, item, region, locked):
            return holds(item).intersect(region)


def run_moves(runtime: "AllScaleRuntime", moves: Iterable[Move]) -> Generator:
    """Run moves from live sources one after another, each drawn from the
    planner once the one before it has landed; returns the bytes moved."""
    moved = 0
    for item, region, src, dst in moves:
        manager = runtime.process(dst).data_manager
        moved += yield from manager.migrate_in(item, region, src)
    return moved


def run_stored_moves(
    runtime: "AllScaleRuntime", moves: Iterable[Move]
) -> Generator:
    """Run moves from stable storage all at once; returns the bytes moved.

    Each move is claimed as the planner yields it, so the planner's later
    choices see every earlier claim, and the bytes start travelling only
    once every move is claimed."""
    engine = runtime.engine
    landings = [
        runtime.process(dst).data_manager.claim_stored(item, region, src)
        for item, region, src, dst in moves
    ]
    moved = yield engine.all_of([engine.spawn(land) for land in landings])
    return sum(moved)


class Signal:
    """Wake-all: the futures waiting for the next change of one piece of
    bookkeeping; whoever changes it calls :meth:`fire`."""

    def __init__(self, engine: "SimEngine") -> None:
        self.engine = engine
        self._waiters: list["Future"] = []

    def wait(self) -> "Future":
        """Future completing at the next :meth:`fire`."""
        future = self.engine.future()
        self._waiters.append(future)
        return future

    def fire(self) -> None:
        waiters, self._waiters = self._waiters, []
        for waiter in waiters:
            waiter.complete(None)


class TransferMarkers(Signal):
    """Per-item regions one kind of transfer has on the wire towards a
    process; its waiters wake at each :meth:`clear` (or node failure).

    One of the bookkeeping tables the happens-before monitor watches:
    reads announce ``table_read``, changes ``table_publish``.
    """

    def __init__(self, manager: "DataItemManager", kind: str) -> None:
        super().__init__(manager.process.runtime.engine)
        self.manager = manager
        self.probe = manager.probe
        self.kind = kind
        self.regions: dict[DataItem, Region] = {}

    def __bool__(self) -> bool:
        return bool(self.regions)

    def region(self, item: DataItem) -> Region:
        for notify in self.probe.table_read:
            notify((self.kind, self.manager.pid, item.name), None)
        region = self.regions.get(item)
        return region if region is not None else item.empty_region()

    def mark(self, item: DataItem, region: Region) -> None:
        self._publish(item, region)
        self.regions[item] = self.region(item).union(region)

    def clear(self, item: DataItem, region: Region) -> None:
        self._publish(item, region)
        remaining = self.region(item).difference(region)
        if remaining.is_empty():
            self.regions.pop(item, None)
        else:
            self.regions[item] = remaining
        self.fire()

    def _publish(self, item: DataItem, region: Region) -> None:
        for notify in self.probe.table_publish:
            notify((self.kind, self.manager.pid, item.name), region)


class DataItemManager:
    """Fragments, ownership, and replicas of one address space."""

    def __init__(self, process: "RuntimeProcess") -> None:
        self.process = process
        self.probe = process.runtime.probe
        self.index = process.runtime.index
        self.fragments: dict[DataItem, Fragment] = {}
        # regions whose ownership already arrived here but whose bytes are
        # still on the wire; tasks must not touch them until they land
        self.in_flight = TransferMarkers(self, "inflight")
        self.in_flight_region = self.in_flight.region
        # replica regions some fetch already put on the wire towards this
        # process; concurrent stagers wait instead of fetching them again,
        # so each element travels at most once per demand epoch whether or
        # not coalescing is enabled
        self.fetching = TransferMarkers(self, "fetching")
        self.fetching_region = self.fetching.region
        # live moves towards this process between their control message
        # and the handover (the guard wait at the source): a departure's
        # barrier waits for them, or the handover would meet a corpse;
        # ``handed_over`` wakes as each hands over or gives up
        self.incoming_moves = 0
        self.handed_over = Signal(process.runtime.engine)
        self.replica_cache = ReplicaCache(self)
        self.plan_log: deque[TransferPlan] = deque(maxlen=PLAN_LOG_LIMIT)

    # -- basic views --------------------------------------------------------------

    @property
    def pid(self) -> int:
        return self.process.pid

    def fragment(self, item: DataItem) -> Fragment:
        fragment = self.fragments.get(item)
        if fragment is None:
            fragment = item.new_fragment(
                item.empty_region(),
                functional=self.process.runtime.config.functional,
            )
            self.fragments[item] = fragment
        return fragment

    def owned_region(self, item: DataItem) -> Region:
        return self.index.leaf(item, self.process.pid)

    def present_region(self, item: DataItem) -> Region:
        return self.fragment(item).region

    def replica_region(self, item: DataItem) -> Region:
        return self.present_region(item).difference(self.owned_region(item))

    # -- ownership changes (synchronous bookkeeping) --------------------------------

    def allocate(self, item: DataItem, region: Region) -> None:
        """First-touch allocation — the *(init)* transition.

        Atomic claim: whatever became owned anywhere since the caller's
        lookup is excluded synchronously (the index root cover is the
        global ownership union, maintained without yields), so concurrent
        first touches can never create overlapping ownership.
        """
        if region.is_empty():
            return
        runtime = self.process.runtime
        index = runtime.index
        global_cover = index.covered(item, index.levels, 0).difference(
            self.owned_region(item)
        )
        region = region.difference(global_cover)
        if region.is_empty():
            return
        fragment = self.fragment(item)
        grown = fragment.region.union(region)
        added_bytes = item.region_bytes(region.difference(fragment.region))
        # charge the memory budget *before* touching the fragment: a
        # MemoryExhaustedError must not leave present-but-unowned bytes
        self.process.node.allocate(added_bytes)
        fragment.resize(grown)
        for notify in self.probe.frag_write:
            notify(self.pid, item, region, "allocate", None)
        self._take_ownership(item, region)
        runtime.metrics.incr("dm.allocations")
        runtime.metrics.incr("dm.allocated_bytes", added_bytes)

    def _take_ownership(self, item: DataItem, region: Region) -> None:
        """The ownership handover every gain of ``region`` goes through:
        own it, stop counting it as a replica here (a replica orphaned by
        a node failure, or one held before a migration, is now owned) and
        write the grown leaf to the index."""
        owned = self.owned_region(item).union(region)
        self.process.runtime.unregister_replica(item, self.pid, region)
        self.replica_cache.note_dropped(item, region)
        self.index.update_ownership(item, self.pid, owned)

    def export_owned(self, item: DataItem, part: Region) -> FragmentPayload:
        """Cut owned ``part`` out for a migration; caller charges the transfer."""
        owned = self.owned_region(item)
        fragment = self.fragment(item)
        payload = fragment.extract(part)
        for notify in self.probe.frag_write:
            notify(self.pid, item, part, "migrate-out", payload)
        fragment.resize(fragment.region.difference(part))
        self.process.node.free(item.region_bytes(part))
        self.index.update_ownership(item, self.pid, owned.difference(part))
        self.process.runtime.metrics.incr("dm.exports")
        return payload

    def _splice(
        self, item: DataItem, payload: FragmentPayload, kind: str
    ) -> None:
        """Grow the fragment by an arrived payload (the one place payload
        bytes enter this address space)."""
        fragment = self.fragment(item)
        added = payload.region.difference(fragment.region)
        self.process.node.allocate(item.region_bytes(added))
        for notify in self.probe.frag_write:
            notify(self.pid, item, payload.region, kind, payload)
        fragment.insert(payload)

    def import_owned(self, item: DataItem, payload: FragmentPayload) -> None:
        """Splice migrated-in data; ownership follows the data."""
        self._splice(item, payload, "migrate-in")
        self._take_ownership(item, payload.region)
        self.process.runtime.metrics.incr("dm.imports")

    def insert_replica(self, item: DataItem, payload: FragmentPayload) -> None:
        """Splice what a landed replica still has registered here (an
        invalidation or an ownership gain in transit drops the rest)."""
        runtime = self.process.runtime
        registered = runtime.replica_holders(item).get(self.pid)
        kept = payload.region.intersect(registered or item.empty_region())
        if not kept.is_empty():
            if not kept.same_elements(payload.region):
                payload = cut_payload(item, payload, kept)
            self._splice(item, payload, "replica-in")
        runtime.metrics.incr("dm.replicas_fetched")

    def drop_replica(self, item: DataItem, region: Region) -> None:
        """Invalidate replicas of ``region`` here, landed or on the wire."""
        self.process.runtime.unregister_replica(item, self.pid, region)
        victim = self.replica_region(item).intersect(region)
        if victim.is_empty():
            return
        fragment = self.fragment(item)
        for notify in self.probe.frag_write:
            notify(self.pid, item, victim, "invalidate", None)
        fragment.resize(fragment.region.difference(victim))
        self.process.node.free(item.region_bytes(victim))
        self.replica_cache.note_dropped(item, victim)
        self.process.runtime.metrics.incr("dm.replicas_dropped")

    # -- requirement satisfaction (simulation processes) --------------------------------

    def requirements_hold(self, task: TaskSpec) -> bool:
        """Do the *start* rule's data premises hold here, right now?  The
        check ``RuntimeProcess._run_leaf`` runs under lock: no yields, no
        side effects, so a failed one holds the locks for no time."""
        return self.unmet_requirement(task) is None

    def unmet_requirement(self, task: TaskSpec) -> tuple[DataItem, Region] | None:
        """The first item and elements failing a premise; ``None``: none."""
        runtime = self.process.runtime
        for item in task.accessed_items_ordered():
            write = task.write_region(item)
            if not write.is_empty():
                if not self.owned_region(item).covers(write):
                    return item, write.difference(self.owned_region(item))
                hull = write.hull()
                for pid, region in runtime.replica_holders(item).items():
                    if (
                        pid != self.pid
                        and not bounds_disjoint(hull, region.hull())
                        and region.overlaps(write)
                    ):
                        return item, region.intersect(write)
            accessed = task.accessed_region(item)
            if not self.present_region(item).covers(accessed):
                return item, accessed.difference(self.present_region(item))
            if self.in_flight_region(item).overlaps(accessed):
                return item, accessed.intersect(self.in_flight_region(item))
        return None

    def ensure_for_task(
        self, task: TaskSpec, hint: Lookup | None = None
    ) -> Generator:
        """Bring all data ``task`` requires into this address space.

        The write set ends up owned here exclusively; the read set is at
        least replicated here.  Drives migrations, replications, replica
        invalidations and allocations; completes when the *start* rule's
        data premises hold locally.  ``hint`` is the lookup that placed
        the task: missing reads are first fetched from the owners it
        names (:meth:`_fetch_replicas`).  Every pass builds a
        :class:`~repro.runtime.transfers.TransferPlan` so planned bytes
        can be audited against moved bytes.
        """
        runtime = self.process.runtime
        plan = TransferPlan(dst=self.pid, purpose=task.name)
        for item in task.accessed_items_ordered():
            write = task.write_region(item)
            if not write.is_empty():
                yield from self._acquire_ownership(
                    item, write, task=task, plan=plan
                )
                # exclusive writes: no replicas of the write set elsewhere
                yield from runtime.invalidate_replicas(item, write, self.pid)
            read = task.read_region(item)
            if not read.is_empty():
                reused = read.intersect(self.present_region(item)).difference(
                    self.owned_region(item)
                )
                if not reused.is_empty():
                    # read served from an already-present replica
                    self.replica_cache.record_hit(item, reused)
                    plan.record_hit(item, reused)
            missing = read.difference(self.present_region(item))
            if not missing.is_empty():
                self.replica_cache.record_miss(item, missing)
                yield from self._fetch_replicas(
                    item,
                    missing,
                    task=task,
                    plan=plan,
                    hint=hint.get(item, ()) if hint else (),
                )
            # data whose ownership arrived but whose bytes are still on
            # the wire is not usable yet
            accessed = task.accessed_region(item)
            while self.in_flight_region(item).overlaps(accessed):
                yield self.in_flight.wait()
        self._finish_plan(plan)

    def _finish_plan(self, plan: TransferPlan) -> None:
        if not (plan.planned or plan.moved or plan.hits):
            return
        plan.finish(self.process.runtime)
        self.plan_log.append(plan)

    def _acquire_ownership(
        self,
        item: DataItem,
        region: Region,
        task: object = None,
        plan: TransferPlan | None = None,
    ) -> Generator:
        runtime = self.process.runtime
        for _attempt in range(8):
            missing = region.difference(self.owned_region(item))
            if missing.is_empty():
                return
            # defer to older staging writers instead of stealing their
            # freshly migrated ownership back (livelock otherwise)
            while runtime.write_intent_blocked(item, missing, task):
                yield runtime.intents.wait()
            missing = region.difference(self.owned_region(item))
            if missing.is_empty():
                return
            mapping, unresolved = yield from runtime.index.lookup(
                item, missing, self.pid
            )
            # parts already owned here (a lost race) are re-checked by the
            # next attempt; coalescing moves all of one peer's parts as one
            # migration, per-message mode moves them piece by piece
            if runtime.config.comm_coalescing:
                grouped = _by_owner(mapping, self.pid)
                moves = [(_union(grouped[pid]), pid) for pid in sorted(grouped)]
            else:
                moves = [entry for entry in mapping if entry[1] != self.pid]
            for part, owner in moves:
                if plan is not None:
                    plan.plan(item, part, owner, "migrate")
                yield from self.migrate_in(item, part, owner, plan=plan)
            if not unresolved.is_empty():
                # present nowhere: first-touch allocation (init rule).
                # Allocate at fragment granularity — the whole not-yet-
                # initialized part of this process's home block — so the
                # initialization phase produces one big fragment per
                # process instead of one sliver per task.
                grab = unresolved
                homes = runtime.home_map(item)
                if homes is not None:
                    top = runtime.index.covered(
                        item, runtime.index.levels, 0
                    )
                    uninitialized = homes[self.pid].difference(top)
                    grab = grab.union(uninitialized)
                yield from self._first_touch(item, unresolved, grab, plan)
        missing = region.difference(self.owned_region(item))
        if not missing.is_empty():
            raise StagingError(
                item, missing, self.pid, task,
                "lost it again on every attempt (ownership thrashing?)",
            )

    def _first_touch(
        self,
        item: DataItem,
        unresolved: Region,
        grab: Region,
        plan: TransferPlan | None,
    ) -> Generator:
        """Allocate ``grab`` here, a superset of the ``unresolved`` part a
        stager found present nowhere; the plan accounts for ``unresolved``.
        """
        if plan is not None:
            plan.plan(item, unresolved, self.pid, "allocate")
        yield self.process.node.interleave(FRAGMENT_OP_OVERHEAD)
        before = self.owned_region(item)
        self.allocate(item, grab)
        if plan is not None:
            gained = (
                self.owned_region(item).difference(before).intersect(unresolved)
            )
            plan.record_moved(item, gained, self.pid, "allocate", 0)

    def migrate_in(
        self,
        item: DataItem,
        region: Region,
        src: int,
        plan: TransferPlan | None = None,
    ) -> Generator:
        """The one executor of the *(migrate)* rule, for a live source
        (stable storage: :meth:`claim_stored`): ``region`` of ``item``
        moves here from process ``src``.  Returns the bytes moved.

        The source is asked with a control message, and its bytes leave
        only once its guard holds at the cut (:func:`_at_source`).
        Ownership is then handed over and the region marked in flight here
        with no yield in between, so no element is ever owned by no
        process — a window in which a concurrent first touch could
        re-allocate it; tasks and replica fetches wait on the marker until
        the payload lands.
        """
        runtime = self.process.runtime
        peer = runtime.process(src)
        self.incoming_moves += 1
        try:
            yield runtime.network.send(self.pid, src, CONTROL_MESSAGE_BYTES)
            part = yield from _at_source(peer, item, region, writes_only=False)
            if part.is_empty():
                return 0  # someone else migrated it away meanwhile
            if self.process.failed:  # refused before the export: src keeps its bytes
                raise StagingError(item, part, self.pid, None, "it is not alive")
            payload = peer.data_manager.export_owned(item, part)
            # atomic handover: ownership (and the index) move now
            self._own(item, payload.region)
        finally:
            # handed over (the in-flight marker takes over) or given up
            self.incoming_moves -= 1
            self.handed_over.fire()
        yield from self._land_from(src, item, payload)
        runtime.metrics.incr("dm.migrations")
        runtime.metrics.incr("dm.migrated_bytes", payload.nbytes)
        if plan is not None:
            plan.record_moved(
                item, payload.region, src, "migrate", payload.nbytes
            )
        return payload.nbytes

    def claim_stored(
        self, item: DataItem, region: Region, payload: FragmentPayload
    ) -> Generator:
        """A move from stable storage, whose bytes are always there: own
        ``region`` here and mark it in flight *now*, then return the
        generator that ships it from the checkpoint ``payload`` and lands
        it (its result is the bytes moved)."""
        if self.process.failed:
            raise StagingError(item, region, self.pid, None, "it is not alive")
        self._own(item, region)
        origin = (self.pid + 1) % self.process.runtime.num_processes
        payload = cut_payload(item, payload, region)
        return self._land_from(origin, item, payload)

    def _own(self, item: DataItem, region: Region) -> None:
        """The handover: own ``region`` and mark it in flight, no yield."""
        self._take_ownership(item, region)
        self.in_flight.mark(item, region)

    def _land_from(
        self, origin: int, item: DataItem, payload: FragmentPayload
    ) -> Generator:
        """Ship an owned, in-flight ``payload`` from ``origin`` and land it;
        the in-flight marker clears last."""
        try:
            yield self.process.runtime.network.send(
                origin, self.pid, max(1, payload.nbytes)
            )
            yield from self._land_migration(item, payload)
        finally:
            self.in_flight.clear(item, payload.region)
        return payload.nbytes

    def _land_migration(
        self, item: DataItem, payload: FragmentPayload
    ) -> Generator:
        """Splice an arrived migration payload — unless this node died.

        A node can fail while a payload addressed to it is still on the
        wire; the failure already dropped the destination's ownership (the
        region reads as present nowhere, recoverable from a checkpoint),
        so the late payload must be *dead-lettered*.  Splicing it would
        resurrect bytes on a corpse: a fragment no one owns, invisible to
        the index — silent data corruption the sentinel's coherence scan
        flags immediately.
        """
        if self.process.failed:
            self.process.runtime.metrics.incr("dm.dead_letter_payloads")
            return
        yield self.process.node.interleave(FRAGMENT_OP_OVERHEAD)
        if self.process.failed:
            # died during the splice overhead window
            self.process.runtime.metrics.incr("dm.dead_letter_payloads")
            return
        self._store_payload(item, payload)

    def _store_payload(self, item: DataItem, payload: FragmentPayload) -> None:
        """Splice arrived bytes into the fragment (ownership already here)."""
        self._splice(item, payload, "migrate-land")
        self.process.runtime.metrics.incr("dm.imports")

    def _fetch_replicas(
        self,
        item: DataItem,
        missing: Region,
        task: object = None,
        plan: TransferPlan | None = None,
        hint: OwnerMap = (),
    ) -> Generator:
        """Replicate ``missing`` of ``item`` here — up to five attempts,
        each from a fresh lookup, then an ownership pull.

        ``hint``, the pieces the task's placement lookup found, buys one
        extra attempt first, without a lookup: each owner it names is asked
        for what is missing of its pieces, and serves only what it still
        holds.  Whatever that leaves missing goes to the fresh attempts.
        """
        want = missing
        # rows migrating to this very process are owned here already: a
        # lookup would name this process and find no peer to fetch from,
        # so wait for them to land first
        while self.in_flight_region(item).overlaps(missing):
            yield self.in_flight.wait()
            missing = want.difference(self.present_region(item))
            if missing.is_empty():
                return
        if hint and (yield from self._fetch_round(item, want, plan, hint)):
            return
        for _attempt in range(5):
            if (yield from self._fetch_round(item, want, plan)):
                return
        missing = want.difference(self.present_region(item))
        if missing.is_empty():
            return
        yield from self._escalate_fetch(item, missing, task, plan)

    def _fetch_round(
        self,
        item: DataItem,
        want: Region,
        plan: TransferPlan | None,
        hint: OwnerMap | None = None,
    ) -> Generator:
        """One attempt of :meth:`_fetch_replicas`: fetch what is missing of
        ``want`` from the owners ``hint`` names (``None``: a fresh lookup
        finds them).  Returns True when nothing was missing."""
        runtime = self.process.runtime
        missing = want.difference(self.present_region(item))
        if missing.is_empty():
            return True
        # fetch dedup: whoever marked an overlapping region already has
        # those bytes on the wire towards this process — wait for them to
        # land instead of moving the same elements twice
        while self.fetching_region(item).overlaps(missing):
            yield self.fetching.wait()
            missing = want.difference(self.present_region(item))
            if missing.is_empty():
                return True
        unresolved = item.empty_region()
        if hint is not None:
            mapping = [
                (part, owner)
                for part, owner in clip(hint, missing)
                if owner != self.pid
            ]
            if not mapping:
                return False  # the hint names no peer for what is missing
            missing = _union([part for part, _owner in mapping])
        self.fetching.mark(item, missing)
        try:
            if hint is None:
                version = runtime.index.ownership_version(item)
                mapping, unresolved = yield from runtime.index.lookup(
                    item, missing, self.pid
                )
                if runtime.index.ownership_version(item) != version:
                    # ownership moved while the lookup ran, and its
                    # escalation never re-reads this process's own leaf:
                    # "present nowhere" may already be claimed (by storm
                    # recovery, possibly for this very process).  The next
                    # attempt looks it up again.
                    unresolved = item.empty_region()
            if runtime.config.comm_coalescing:
                # one bulk fetch per owning peer, all peers in parallel
                # (single fan-out, ``all_of`` join)
                grouped = _by_owner(mapping, self.pid)
                if grouped:
                    engine = runtime.engine
                    yield engine.all_of([
                        engine.spawn(self._fetch_from_peer(
                            item, grouped[owner], owner, plan, bulk=True
                        ))
                        for owner in sorted(grouped)
                    ])
            else:
                # the paper prototype: one request + one payload per piece
                for part, owner in mapping:
                    if owner != self.pid:
                        yield from self._fetch_from_peer(
                            item, [part], owner, plan, bulk=False
                        )
            if not unresolved.is_empty():
                # reading data never written nor initialized: surface it
                # as a zero-initialized first touch.  allocate() claims
                # atomically; anything claimed elsewhere meanwhile is
                # re-fetched on the next attempt.
                yield from self._first_touch(item, unresolved, unresolved, plan)
                runtime.metrics.incr("dm.uninitialized_reads")
        finally:
            self.fetching.clear(item, missing)
        return False

    def _escalate_fetch(
        self,
        item: DataItem,
        missing: Region,
        task: object = None,
        plan: TransferPlan | None = None,
    ) -> Generator:
        """Escalate a starved replica fetch to an ownership migration.

        Every replica fetch lost the race against concurrent ownership
        migration (an aggressive load balancer can keep a region moving
        faster than one fetch round-trip).  Ownership handover is atomic
        at export time, so a pull cannot be outrun the way a copy can.
        """
        self.process.runtime.metrics.incr("dm.read_escalations")
        yield from self._acquire_ownership(item, missing, task=task, plan=plan)

    def _fetch_from_peer(
        self,
        item: DataItem,
        parts: list[Region],
        owner: int,
        plan: TransferPlan | None,
        bulk: bool,
    ) -> Generator:
        """One replica fetch from one peer — the *(replicate)* rule.

        One control request, then every piece of ``parts`` the peer still
        holds once its guard holds (:func:`_at_source`) is cut, registered
        here as a replica, and comes back as one payload.  ``bulk`` picks
        only the wire accounting: one ``send_bulk`` of the per-piece sizes,
        charged once on the NIC and announced as ``coalesced_transfer``,
        instead of a plain ``send``.
        """
        runtime = self.process.runtime
        network = runtime.network
        peer = runtime.process(owner)
        region = _union(parts)
        if plan is not None:
            plan.plan(item, region, owner, "replicate")
        yield network.send(self.pid, owner, CONTROL_MESSAGE_BYTES)
        # the data may have moved away while we waited; take what is
        # still there and leave the rest to the stager's next attempt
        held = yield from _at_source(peer, item, region, writes_only=True)
        pieces = [part.intersect(held) for part in parts]
        pieces = [piece for piece in pieces if not piece.is_empty()]
        if not pieces:
            # "not here" is a reply too
            yield network.send(owner, self.pid, CONTROL_MESSAGE_BYTES)
            return
        union = _union(pieces)
        for notify in self.probe.frag_read:
            notify(owner, item, union, "replica-read")
        payload = peer.data_manager.fragment(item).extract(union)
        # the copy exists from its cut: a writer verifying its locks while
        # the bytes travel sees it, and its invalidation reaches them
        runtime.register_replica(
            item, self.pid, union.difference(self.owned_region(item))
        )
        if bulk:
            sizes = [item.region_bytes(piece) for piece in pieces]
            for notify in self.probe.coalesced_transfer:
                notify(owner, self.pid, item, payload, pieces, sizes)
            yield network.send_bulk(
                owner, self.pid, sizes if payload.nbytes else [1]
            )
        else:
            yield network.send(owner, self.pid, max(1, payload.nbytes))
        yield self.process.node.interleave(FRAGMENT_OP_OVERHEAD)
        self.insert_replica(item, payload)
        self.replica_cache.note_fetched(item, payload.region)
        runtime.metrics.incr("dm.replicated_bytes", payload.nbytes)
        if bulk:
            runtime.metrics.incr("comms.coalesced_fetches")
            runtime.metrics.incr("comms.coalesced_parts", len(pieces))
        if plan is not None:
            plan.record_moved(
                item, payload.region, owner, "replicate", payload.nbytes
            )

    # -- replica prefetch (scheduler-initiated) ----------------------------------------

    def prefetch_for_task(self, task: TaskSpec, lookup: Lookup) -> None:
        """Fire-and-forget prefetch of ``task``'s remote read-only pieces.

        Launched by the scheduler right after placement, reusing the
        Algorithm-1 lookup it already charged, so the transfers overlap
        the task's dispatch instead of serializing into its staging loop.
        """
        self.prefetch_for_tasks([(task, lookup)])

    def prefetch_for_tasks(self, placed: list[tuple[TaskSpec, Lookup]]) -> None:
        """:meth:`prefetch_for_task` for ``(task, lookup)`` pairs placed
        here together: they share one fetch per owning peer."""
        self.process.runtime.engine.spawn(self._prefetch(placed))

    def _prefetch(self, placed: list[tuple[TaskSpec, Lookup]]) -> Generator:
        runtime = self.process.runtime
        engine = runtime.engine
        plan = TransferPlan(dst=self.pid, purpose=f"prefetch:{placed[0][0].name}")
        fetchers: list = []
        marked: list[tuple[DataItem, Region]] = []
        items = sorted(
            {item for task, _lookup in placed for item in task.accessed_items()},
            key=lambda item: item.name,
        )
        for item in items:
            taken = (
                self.present_region(item)
                .union(self.fetching_region(item))
                .union(self.in_flight_region(item))
            )
            grouped: dict[int, list[Region]] = {}
            for task, lookup in placed:
                readonly = task.read_region(item).difference(
                    task.write_region(item)
                )
                if readonly.is_empty():
                    continue
                missing = readonly.difference(taken)
                if missing.is_empty():
                    continue
                for owner, parts in _by_owner(
                    clip(lookup.get(item, ()), missing), self.pid
                ).items():
                    grouped.setdefault(owner, []).extend(parts)
                    taken = taken.union(_union(parts))
            if not grouped:
                continue
            covered = _union([p for parts in grouped.values() for p in parts])
            self.fetching.mark(item, covered)
            marked.append((item, covered))
            fetchers.extend(
                engine.spawn(self._fetch_from_peer(
                    item, grouped[owner], owner, plan, bulk=True
                ))
                for owner in sorted(grouped)
            )
        if not fetchers:
            return
        runtime.metrics.incr("comms.prefetches")
        try:
            yield engine.all_of(fetchers)
        finally:
            for item, covered in marked:
                self.fetching.clear(item, covered)
        runtime.metrics.incr("comms.prefetched_bytes", plan.moved_bytes())
        self._finish_plan(plan)

    def __repr__(self) -> str:
        return (
            f"DataItemManager(pid={self.pid}, items={len(self.fragments)})"
        )
