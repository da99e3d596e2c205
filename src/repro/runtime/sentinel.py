"""Online runtime invariant sentinel (§2.5 properties, enforced in vivo).

The formal layer proves five properties of the execution model
(:mod:`repro.model.properties`); this module checks their runtime-level
analogues *while the implementation runs*, at the transition points where
a scheduler, lock-table, index, or resilience bug would violate them:

=====================  =====================================================
§2.5 property          runtime-level check (hook point)
=====================  =====================================================
single execution       each submitted :class:`TaskSpec` enters leaf
                       execution at most once (``task_start``)
satisfied reqs.        at dispatch the executing process owns the write
                       set, holds all accessed data locally, covers it
                       with its own locks, and nothing is still in flight
                       (``task_locks_held``)
exclusive writes       a granted write hold never overlaps another owner's
                       hold in any process's :class:`LockTable`, and no
                       remote address space holds bytes of the written
                       region (``task_locks_held`` / periodic scan)
data preservation      the global owned coverage of every live item never
                       shrinks except through *destroy* or node failure,
                       and every fragment payload carries exactly
                       ``region_bytes(payload.region)`` bytes across
                       migrations, checkpoints, and restores
                       (periodic scan / ``frag_write`` / ``restore``)
termination            the engine draining with queued/active tasks, held
                       locks, or in-flight data is a detectable wedge
                       (:meth:`RuntimeSentinel.check_terminal`; ``wait()``
                       already raises on a drained-but-incomplete queue)
=====================  =====================================================

Ownership is stored once, as each process's leaf of the hierarchical index
(the data managers read it), so the scan checks the index's own shape:
leaves pairwise disjoint and every inner node the union of its children.

The hook points are events of the runtime's probe
(:mod:`repro.runtime.probe`); the sentinel is one of its subscribers.  It
is opt-in and always-on once attached: it also registers as a
:class:`~repro.sim.engine.SimEngine` listener and runs a full coherence
scan every ``scan_stride`` events plus at every ``barrier`` event
(``runtime.wait``).  Violations become structured :class:`Violation` reports (item,
region, holders, simulated timestamp, task provenance), surface as
``sentinel.*`` counters in ``runtime.metrics``, and — in strict mode —
raise :class:`SentinelViolationError` at the exact event that broke the
invariant.

Enable it per-runtime (``RuntimeSentinel(runtime).attach()``), process-wide
(:func:`enable_globally`, used by the ``--sentinel`` bench flag), or for a
whole test run (``REPRO_SENTINEL=1``, consumed by ``tests/conftest.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.items.base import DataItem, FragmentPayload
from repro.regions.bounds import bounds_disjoint, corner_bounds
from repro.runtime.probe import Enablement
from repro.runtime.resilience import Checkpoint, lost_region

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.runtime import AllScaleRuntime
    from repro.runtime.tasks import TaskSpec, Treeture


class SentinelViolationError(AssertionError):
    """A runtime-level §2.5 invariant does not hold (strict mode)."""


@dataclass(frozen=True)
class Violation:
    """Structured report of one failed runtime invariant check."""

    #: which invariant failed: ``single_execution``, ``satisfied_requirements``,
    #: ``exclusive_writes``, ``lock_table_race``, ``data_preservation``,
    #: ``payload_bytes``, ``index_coherence``, ``replica_coherence``,
    #: ``transfer_plan``, ``termination``
    check: str
    message: str
    #: simulated time at which the violation was observed
    sim_time: float
    #: name of the data item involved, if any
    item: str | None = None
    #: offending region (repr'd lazily by the caller), if any
    region: Any = None
    #: ``(pid, owner-name, "W"/"R")`` triples of the holds involved
    holders: tuple = ()
    #: provenance: task name(s) active at the violating process
    task: str | None = None

    def __str__(self) -> str:
        parts = [f"[{self.check}] t={self.sim_time:.6g}s: {self.message}"]
        if self.item is not None:
            parts.append(f"item={self.item!r}")
        if self.region is not None:
            parts.append(f"region={self.region!r}")
        if self.holders:
            parts.append(f"holders={list(self.holders)!r}")
        if self.task is not None:
            parts.append(f"task={self.task!r}")
        return " ".join(parts)


@dataclass
class SentinelConfig:
    """Behaviour knobs of the sentinel."""

    #: raise :class:`SentinelViolationError` at the first violation
    strict: bool = True
    #: run the full coherence scan every N engine events (0 disables the
    #: periodic scan; barrier scans in ``runtime.wait`` still run)
    scan_stride: int = 4096
    #: deep-verify every Nth leaf-task dispatch (requirements and double
    #: grants at ``task_locks_held``); the cheap hooks (single execution,
    #: payload bytes) always run.  1 = exhaustive (the test default).
    task_stride: int = 1

    @classmethod
    def bench_profile(cls) -> "SentinelConfig":
        """Low-overhead profile for performance runs (``--sentinel``).

        Samples the per-task deep verification and spaces the periodic
        scans out, the same trade production race detectors make; the
        barrier scans in ``runtime.wait`` still verify every invariant
        over the final state of each run.
        """
        return cls(strict=False, scan_stride=65536, task_stride=16)


class RuntimeSentinel:
    """Continuously validates one runtime against the §2.5 properties."""

    def __init__(
        self,
        runtime: "AllScaleRuntime",
        config: SentinelConfig | None = None,
    ) -> None:
        self.runtime = runtime
        self.config = config or SentinelConfig()
        self.violations: list[Violation] = []
        #: total individual invariant checks evaluated
        self.checks = 0
        #: full coherence scans executed
        self.scans = 0
        self._events_seen = 0
        self._tasks_seen = 0
        #: items currently tracked (registered and not destroyed)
        self._items: set[DataItem] = set()
        #: id(task) -> (task ref, pid) — the ref pins the id
        self._started: dict[int, tuple[Any, int]] = {}
        #: per-item global owned coverage at the last consistent observation
        self._coverage: dict[DataItem, Any] = {}
        #: id(snapshot) -> (snapshot ref, {item name: (region, bytes)})
        self._checkpoints: dict[int, tuple[Any, dict[str, tuple[Any, int]]]] = {}

    # -- lifecycle -----------------------------------------------------------------

    def attach(self) -> "RuntimeSentinel":
        """Subscribe to the runtime's probe and event loop; returns self."""
        runtime = self.runtime
        attached = runtime.probe.observer(RuntimeSentinel)
        if attached is self:
            return self
        if attached is not None:
            raise RuntimeError("runtime already has a sentinel attached")
        runtime.probe.attach(self)
        runtime.engine.add_listener(self._on_event)
        for item in runtime.items:
            self.on_item_registered(item)
        return self

    def detach(self) -> None:
        """Unsubscribe (a no-op when not attached)."""
        self.runtime.engine.remove_listener(self._on_event)
        self.runtime.probe.detach(self)

    # -- reporting -----------------------------------------------------------------

    def _report(
        self,
        check: str,
        message: str,
        *,
        item: DataItem | None = None,
        region: Any = None,
        holders: tuple = (),
        task: str | None = None,
    ) -> None:
        violation = Violation(
            check=check,
            message=message,
            sim_time=self.runtime.now,
            item=item.name if item is not None else None,
            region=region,
            holders=holders,
            task=task,
        )
        self.violations.append(violation)
        metrics = self.runtime.metrics
        metrics.incr("sentinel.violations")
        metrics.incr(f"sentinel.violations.{check}")
        if self.config.strict:
            raise SentinelViolationError(str(violation))

    def _check(self) -> None:
        self.checks += 1

    def report_lines(self) -> list[str]:
        lines = [
            f"sentinel: {self.checks} checks, {self.scans} scans, "
            f"{len(self.violations)} violation(s)"
        ]
        lines.extend(f"  {v}" for v in self.violations)
        return lines

    def _active_tasks(self, pid: int) -> str | None:
        """Provenance: names of tasks currently holding locks at ``pid``."""
        names = sorted(
            {
                getattr(h.owner, "name", repr(h.owner))
                for h in self.runtime.process(pid).locks._holds
            }
        )
        return ", ".join(names) if names else None

    @staticmethod
    def _hold_info(pid: int, hold) -> tuple:
        return (pid, getattr(hold.owner, "name", repr(hold.owner)),
                "W" if hold.write else "R")

    # -- event-loop hook -----------------------------------------------------------

    def _on_event(self) -> None:
        stride = self.config.scan_stride
        if stride <= 0:
            return
        self._events_seen += 1
        if self._events_seen % stride == 0:
            self.verify_all()

    # -- item lifecycle hooks --------------------------------------------------------

    def on_item_registered(self, item: DataItem) -> None:
        self._items.add(item)
        self._coverage.setdefault(item, item.empty_region())

    def on_item_destroyed(self, item: DataItem) -> None:
        """Sanctioned coverage drop: the *destroy* action."""
        self._items.discard(item)
        self._coverage.pop(item, None)

    def on_process_failed(self, pid: int) -> None:
        """Sanctioned coverage drop: a crashed node loses its data."""
        for item in self._items:
            self._coverage[item] = self._global_owned(item)

    # -- task lifecycle hooks --------------------------------------------------------

    def on_task_start(
        self, task: "TaskSpec", treeture: "Treeture | None", pid: int,
        now: float,
    ) -> None:
        """Single execution: no task enters leaf execution twice."""
        self._check()
        previous = self._started.get(id(task))
        if previous is not None:
            self._report(
                "single_execution",
                f"task {task.name!r} started at process {pid} but already "
                f"started at process {previous[1]}",
                task=task.name,
            )
            return
        self._started[id(task)] = (task, pid)

    def on_task_locks_held(
        self, task: "TaskSpec", treeture: "Treeture | None", pid: int,
        now: float,
    ) -> None:
        """The start rule, observed under the task's verified locks."""
        self._tasks_seen += 1
        stride = self.config.task_stride
        if stride > 1 and self._tasks_seen % stride:
            return
        self._check_fresh_grant(pid, task)
        self._check_requirements(task, pid)

    def _check_requirements(self, task: "TaskSpec", pid: int) -> None:
        """Satisfied requirements + exclusive writes at the start rule."""
        runtime = self.runtime
        manager = runtime.process(pid).data_manager
        locks = runtime.process(pid).locks
        for item in task.accessed_items_ordered():
            self._check()
            write = task.write_region(item)
            accessed = task.accessed_region(item)
            if not write.is_empty():
                write_bounds = corner_bounds(write)
                if not manager.owned_region(item).covers(write):
                    self._report(
                        "satisfied_requirements",
                        f"task {task.name!r} executing at process {pid} "
                        "without owning its write set",
                        item=item,
                        region=write.difference(manager.owned_region(item)),
                        task=task.name,
                    )
                for other, region in runtime.replica_holders(item).items():
                    if other == pid:
                        continue
                    if bounds_disjoint(write_bounds, corner_bounds(region)):
                        continue
                    if region.overlaps(write):
                        self._report(
                            "exclusive_writes",
                            f"write set of {task.name!r} (process {pid}) is "
                            f"replicated at process {other}",
                            item=item,
                            region=region.intersect(write),
                            task=task.name,
                        )
                # cross-process lock exclusion on the write set
                for other_proc in runtime.processes:
                    if other_proc.pid == pid:
                        continue
                    for hold in other_proc.locks._holds:
                        if hold.item is not item:
                            continue
                        if bounds_disjoint(
                            write_bounds, corner_bounds(hold.region)
                        ):
                            continue
                        if hold.region.overlaps(write):
                            self._report(
                                "exclusive_writes",
                                f"write set of {task.name!r} (process {pid}) "
                                f"is locked at process {other_proc.pid}",
                                item=item,
                                region=hold.region.intersect(write),
                                holders=(self._hold_info(other_proc.pid, hold),),
                                task=task.name,
                            )
            if not manager.present_region(item).covers(accessed):
                self._report(
                    "satisfied_requirements",
                    f"task {task.name!r} executing at process {pid} with "
                    "accessed data absent",
                    item=item,
                    region=accessed.difference(manager.present_region(item)),
                    task=task.name,
                )
            if manager.in_flight_region(item).overlaps(accessed):
                self._report(
                    "satisfied_requirements",
                    f"task {task.name!r} executing at process {pid} while "
                    "its data is still in flight",
                    item=item,
                    region=manager.in_flight_region(item).intersect(accessed),
                    task=task.name,
                )
            # the task's own locks must pin the accessed region
            held_read = item.empty_region()
            held_write = item.empty_region()
            for hold in locks._holds:
                if hold.owner is task and hold.item is item:
                    if hold.write:
                        held_write = held_write.union(hold.region)
                    else:
                        held_read = held_read.union(hold.region)
            if not held_write.covers(write):
                self._report(
                    "satisfied_requirements",
                    f"task {task.name!r} executing at process {pid} without "
                    "a write lock on its write set",
                    item=item,
                    region=write.difference(held_write),
                    task=task.name,
                )
            if not held_write.union(held_read).covers(accessed):
                self._report(
                    "satisfied_requirements",
                    f"task {task.name!r} executing at process {pid} without "
                    "locks covering its accessed set",
                    item=item,
                    region=accessed.difference(held_write.union(held_read)),
                    task=task.name,
                )

    def on_task_finish(
        self, task: "TaskSpec", treeture: "Treeture | None", pid: int,
        now: float,
    ) -> None:
        self._check()

    def _check_fresh_grant(self, pid: int, owner: object) -> None:
        """Double-grant detection: a fresh grant never conflicts locally.

        Cross-process exclusion is deliberately *not* checked here — a
        transient grant that fails requirement re-verification is released
        within the same event; :meth:`_check_requirements` and the
        periodic scan check it, which only observe settled states.
        """
        self._check()
        table = self.runtime.process(pid).locks
        for hold in table._holds:
            if hold.owner is not owner:
                continue
            hold_bounds = corner_bounds(hold.region)
            for other in table._holds:
                if other.owner is owner or hold.item is not other.item:
                    continue
                if not (hold.write or other.write):
                    continue
                if bounds_disjoint(hold_bounds, corner_bounds(other.region)):
                    continue
                if hold.region.overlaps(other.region):
                    self._report(
                        "lock_table_race",
                        f"lock table of process {pid} granted overlapping "
                        "holds to distinct owners",
                        item=hold.item,
                        region=hold.region.intersect(other.region),
                        holders=(
                            self._hold_info(pid, hold),
                            self._hold_info(pid, other),
                        ),
                        task=getattr(owner, "name", None),
                    )

    # -- data-movement hooks ----------------------------------------------------------

    def on_frag_write(
        self, pid: int, item: DataItem, region: Any, kind: str,
        payload: FragmentPayload | None,
    ) -> None:
        if payload is not None:
            direction = "export" if kind == "migrate-out" else "import"
            self._check_payload(direction, pid, item, payload)

    def _check_payload(
        self, direction: str, pid: int, item: DataItem, payload: FragmentPayload
    ) -> None:
        """Byte accounting: a payload carries exactly its region's bytes."""
        self._check()
        expected = item.region_bytes(payload.region)
        if payload.nbytes != expected:
            self._report(
                "payload_bytes",
                f"{direction} at process {pid} carries {payload.nbytes} bytes "
                f"for a {expected}-byte region",
                item=item,
                region=payload.region,
                task=self._active_tasks(pid),
            )

    def on_coalesced_transfer(
        self,
        src: int,
        dst: int,
        item: DataItem,
        payload: FragmentPayload,
        pieces: list,
        sizes: list[int],
    ) -> None:
        """Byte preservation over a coalesced bulk payload.

        The constituent pieces must be pairwise disjoint, their union must
        be exactly the payload's region, and the per-piece byte sizes must
        sum to the payload's bytes — i.e. coalescing moved the very same
        elements the individual messages would have, once each.
        """
        self._check()
        union = item.empty_region()
        for i, piece in enumerate(pieces):
            if union.overlaps(piece):
                self._report(
                    "payload_bytes",
                    f"coalesced transfer {src}->{dst} carries overlapping "
                    "constituent pieces",
                    item=item,
                    region=union.intersect(piece),
                )
            union = union.union(piece)
            expected = item.region_bytes(piece)
            if i < len(sizes) and sizes[i] != expected:
                self._report(
                    "payload_bytes",
                    f"coalesced transfer {src}->{dst} accounts {sizes[i]} "
                    f"bytes for a {expected}-byte constituent",
                    item=item,
                    region=piece,
                )
        if not union.same_elements(payload.region):
            self._report(
                "payload_bytes",
                f"coalesced transfer {src}->{dst} payload region is not the "
                "union of its constituent pieces",
                item=item,
                region=union.difference(payload.region).union(
                    payload.region.difference(union)
                ),
            )
        expected_total = item.region_bytes(payload.region)
        if sum(sizes) != expected_total or payload.nbytes != expected_total:
            self._report(
                "payload_bytes",
                f"coalesced transfer {src}->{dst} carries {payload.nbytes} "
                f"payload bytes billed as {sum(sizes)} for a "
                f"{expected_total}-byte region",
                item=item,
                region=payload.region,
            )

    def on_plan_finished(self, plan) -> None:
        """Audit a finished transfer plan: moved ⊆ planned, bytes honest.

        Re-fetches (the same elements moved twice within one plan, e.g.
        after a competing writer invalidated a fresh replica) are legal
        and surface as ``comms.refetched_bytes`` — only movement that was
        never planned at all, or misaccounted bytes, is a violation.
        """
        for step in plan.moved:
            if step.kind == "allocate":
                continue
            self._check()
            expected = step.item.region_bytes(step.region)
            if step.nbytes != expected:
                self._report(
                    "transfer_plan",
                    f"plan {plan.purpose!r} recorded {step.nbytes} bytes "
                    f"moved for a {expected}-byte region",
                    item=step.item,
                    region=step.region,
                    task=plan.purpose,
                )
        for item in plan.items():
            self._check()
            stray = plan.moved_region(item).difference(
                plan.planned_region(item)
            )
            if not stray.is_empty():
                self._report(
                    "transfer_plan",
                    f"plan {plan.purpose!r} moved data it never planned",
                    item=item,
                    region=stray,
                    task=plan.purpose,
                )

    # -- resilience hooks ---------------------------------------------------------------

    def on_checkpoint(self, snapshot: "Checkpoint") -> None:
        """Record what the checkpoint must preserve, byte-accounted."""
        self._check()
        recorded: dict[str, tuple[Any, int]] = {}
        by_name = {item.name: item for item in self.runtime.items}
        for name, entries in snapshot.payloads.items():
            item = by_name.get(name)
            if item is None:
                continue
            region = item.empty_region()
            total = 0
            for _pid, payload in entries:
                region = region.union(payload.region)
                total += payload.nbytes
            recorded[name] = (region, total)
        self._checkpoints[id(snapshot)] = (snapshot, recorded)

    def on_restore(self, snapshot: "Checkpoint") -> None:
        """Data preservation across restore: nothing checkpointed is lost."""
        entry = self._checkpoints.get(id(snapshot))
        by_name = {item.name: item for item in self.runtime.items}
        for name, entries in snapshot.payloads.items():
            item = by_name.get(name)
            if item is None:
                continue
            self._check()
            region = item.empty_region()
            total = 0
            for _pid, payload in entries:
                region = region.union(payload.region)
                total += payload.nbytes
            if entry is not None:
                recorded_region, recorded_bytes = entry[1].get(
                    name, (item.empty_region(), 0)
                )
                lost = recorded_region.difference(region)
                if not lost.is_empty() or total != recorded_bytes:
                    self._report(
                        "data_preservation",
                        f"restore of {name!r} received {total} bytes over "
                        f"{region.size()} elements but the checkpoint "
                        f"recorded {recorded_bytes} bytes over "
                        f"{recorded_region.size()} elements",
                        item=item,
                        region=lost,
                    )
            present = item.empty_region()
            for process in self.runtime.processes:
                present = present.union(
                    process.data_manager.present_region(item)
                )
            missing = region.difference(present)
            if not missing.is_empty():
                self._report(
                    "data_preservation",
                    f"{missing.size()} restored element(s) of {name!r} are "
                    "present nowhere after the restore",
                    item=item,
                    region=missing,
                )

    def on_recovery(self, snapshot: "Checkpoint") -> None:
        """Partial restart after node loss: nothing checkpointed stays lost.

        Unlike a full restore, recovery touches only the lost regions —
        survivors keep their (newer) data — so the check is: every element
        the checkpoint *originally* covered is owned again (not lost, in
        :func:`~repro.runtime.resilience.lost_region`'s one sense).
        Comparing against the coverage recorded at checkpoint time (not
        the snapshot's current content) catches checkpoint payloads that
        were dropped or corrupted in between.
        """
        entry = self._checkpoints.get(id(snapshot))
        by_name = {item.name: item for item in self.runtime.items}
        names = set(snapshot.payloads)
        if entry is not None:
            names |= set(entry[1])
        for name in sorted(names):
            item = by_name.get(name)
            if item is None:
                continue
            self._check()
            if entry is not None:
                expected = entry[1].get(name, (item.empty_region(), 0))[0]
            else:
                expected = item.empty_region()
                for _pid, payload in snapshot.payloads.get(name, []):
                    expected = expected.union(payload.region)
            missing = lost_region(self.runtime, item, expected)
            if not missing.is_empty():
                self._report(
                    "data_preservation",
                    f"{missing.size()} checkpointed element(s) of {name!r} "
                    "remain lost after recovery",
                    item=item,
                    region=missing,
                )

    # -- full coherence scan -------------------------------------------------------------

    def _global_owned(self, item: DataItem):
        region = item.empty_region()
        for process in self.runtime.processes:
            region = region.union(process.data_manager.owned_region(item))
        return region

    def verify_all(self) -> None:
        """One full scan of every cross-component invariant.

        Runs at every ``scan_stride`` engine events, at each ``barrier``
        event (``wait()``), and on demand (tests, fixture teardown).  Scans observe
        only event-boundary states, which the runtime keeps transiently
        consistent (ownership handover is atomic, transient lock grants
        never cross a yield).
        """
        self.scans += 1
        self.runtime.metrics.incr("sentinel.scans")
        self._scan_items()
        self._scan_locks()

    on_barrier = verify_all

    def _scan_items(self) -> None:
        runtime = self.runtime
        index = runtime.index
        for item in sorted(self._items, key=lambda i: i.name):
            self._check()
            seen = item.empty_region()
            for process in runtime.processes:
                manager = process.data_manager
                owned = manager.owned_region(item)
                # pairwise-disjoint ownership (exclusive writes substrate)
                overlap = seen.intersect(owned)
                if not overlap.is_empty():
                    self._report(
                        "index_coherence",
                        f"ownership overlaps between processes at {process.pid}",
                        item=item,
                        region=overlap,
                    )
                seen = seen.union(owned)
                # owned bytes are present unless still in flight
                missing = owned.difference(manager.present_region(item))
                if not missing.difference(
                    manager.in_flight_region(item)
                ).is_empty():
                    self._report(
                        "data_preservation",
                        f"process {process.pid} owns data it neither holds "
                        "nor awaits",
                        item=item,
                        region=missing,
                    )
                # present replicas ⊆ registered ⊆ present ∪ being fetched
                registered = runtime.replica_holders(item).get(
                    process.pid, item.empty_region()
                )
                actual = manager.replica_region(item)
                stray = actual.difference(registered).union(
                    registered.difference(actual.union(manager.fetching_region(item)))
                )
                if not stray.is_empty():
                    self._report(
                        "replica_coherence",
                        f"replica registry for process {process.pid} "
                        "disagrees with its fragment",
                        item=item,
                        region=stray,
                    )
            # hierarchy internal consistency: every level is the union of
            # its children; the root is the global coverage
            for level in range(2, index.levels + 1):
                span = 1 << (level - 1)
                for root in range(0, runtime.num_processes, span):
                    left, right = index.children_of(level, root)
                    merged = index.covered(item, level - 1, left)
                    if right < index.num_processes:
                        merged = merged.union(
                            index.covered(item, level - 1, right)
                        )
                    node = index.covered(item, level, root)
                    if not node.same_elements(merged):
                        self._report(
                            "index_coherence",
                            f"index node (level {level}, root {root}) is not "
                            "the union of its children",
                            item=item,
                        )
            # data preservation: global coverage is monotone between
            # sanctioned drops (destroy, node failure)
            previous = self._coverage.get(item)
            if previous is not None:
                lost = previous.difference(seen)
                if not lost.is_empty():
                    self._report(
                        "data_preservation",
                        f"{lost.size()} element(s) vanished without an "
                        "explicit destroy or node failure",
                        item=item,
                        region=lost,
                    )
            self._coverage[item] = seen

    def _scan_locks(self) -> None:
        """Reader/writer exclusion within and across all lock tables."""
        runtime = self.runtime
        all_holds: list[tuple[int, Any, Any]] = []
        for process in runtime.processes:
            for hold in process.locks._holds:
                all_holds.append(
                    (process.pid, hold, corner_bounds(hold.region))
                )
        for i, (pid_a, a, bounds_a) in enumerate(all_holds):
            self._check()
            item_a, owner_a, write_a = a.item, a.owner, a.write
            for pid_b, b, bounds_b in all_holds[i + 1:]:
                if item_a is not b.item:
                    continue
                if owner_a is b.owner and pid_a == pid_b:
                    continue
                if not (write_a or b.write):
                    continue
                if bounds_disjoint(bounds_a, bounds_b):
                    continue
                if a.region.overlaps(b.region):
                    check = (
                        "lock_table_race" if pid_a == pid_b
                        else "exclusive_writes"
                    )
                    self._report(
                        check,
                        "conflicting lock holds "
                        + (
                            f"within process {pid_a}"
                            if pid_a == pid_b
                            else f"across processes {pid_a} and {pid_b}"
                        ),
                        item=a.item,
                        region=a.region.intersect(b.region),
                        holders=(
                            self._hold_info(pid_a, a),
                            self._hold_info(pid_b, b),
                        ),
                    )

    # -- termination analogue --------------------------------------------------------

    def check_terminal(self) -> None:
        """Assert the runtime is quiescent: no queued/active work, no locks,
        no in-flight data (Def. 2.11's terminal shape, runtime level)."""
        runtime = self.runtime
        for process in runtime.processes:
            self._check()
            if process.queue or process.active:
                self._report(
                    "termination",
                    f"process {process.pid} still has "
                    f"{len(process.queue)} queued / {process.active} active "
                    "task(s) at a supposed barrier",
                )
            if process.locks.active_holds:
                self._report(
                    "termination",
                    f"process {process.pid} still holds "
                    f"{process.locks.active_holds} lock(s)",
                    task=self._active_tasks(process.pid),
                )
            for item in self._items:
                if not process.data_manager.in_flight_region(item).is_empty():
                    self._report(
                        "termination",
                        f"process {process.pid} still awaits in-flight data",
                        item=item,
                    )


# -- process-wide enablement (bench --sentinel, REPRO_SENTINEL=1) ---------------

ENABLEMENT: Enablement[SentinelConfig, RuntimeSentinel] = Enablement(
    "REPRO_SENTINEL",
    lambda value: SentinelConfig(),
    lambda runtime, config: RuntimeSentinel(runtime, config).attach(),
)
enable_globally = ENABLEMENT.enable_globally
disable_globally = ENABLEMENT.disable_globally
reset_global = ENABLEMENT.reset_global
global_config = ENABLEMENT.global_config
drain_created = ENABLEMENT.drain_created
attach_from_global = ENABLEMENT.attach_from_global
