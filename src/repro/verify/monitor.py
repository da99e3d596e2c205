"""Happens-before monitor: vector clocks, race sanitizer, DPOR footprints.

One :class:`VerifyMonitor` observes one simulation run.  It plugs into the
engine through :meth:`~repro.sim.engine.SimEngine.set_hb` (event
attribution, coroutine lifecycle, future causality), and the same call
subscribes it to the probe (:mod:`repro.runtime.probe`) of every runtime
riding that engine — those built before it was installed and those born
mid-run — for the protocol-layer events: bookkeeping-table reads and
publishes, fragment accesses, ownership updates and task bodies.

**Thread model.**  Logical threads are the spawned generator coroutines
(tasks, staging passes, balancer rounds, fetchers) plus thread 0 for the
driver.  A plain scheduled callback executes on the thread that scheduled
it — an *actor-style* modeling choice: callbacks of one thread are
artificially totally ordered with that thread's later actions, which can
only hide races (never invent them).  Since callbacks in this codebase are
almost exclusively future completions whose interesting effects happen in
the resumed coroutine (a proper thread), the approximation is tight in
practice.

**Sync edges.**  Protocol guards synchronize through flags rather than
locks (write intents, the replica registry, in-flight / fetching markers,
lock-table queries, index covers).  Each publishing site emits
``table_publish`` (:meth:`VerifyMonitor.sync_release`) and each observing
guard ``table_read`` (:meth:`VerifyMonitor.sync_acquire`) on a shared key,
creating the
release→acquire edge vector-clock race detection needs.  Both calls also
record a dependence footprint op, which is what the DPOR layer uses as its
independence relation: two events are independent unless their footprints
share a key with at least one writer (and, for region-tagged ops,
overlapping regions).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.analysis.findings import Finding

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.items.base import DataItem
    from repro.regions.base import Region
    from repro.runtime.tasks import TaskSpec, Treeture
    from repro.sim.engine import Future

VectorClock = dict[int, int]

#: one dependence-footprint operation: (key, is_write, region-or-None)
FootprintOp = tuple[tuple, bool, "Region | None"]


def _merge(dst: VectorClock, src: VectorClock) -> None:
    for tid, k in src.items():
        if dst.get(tid, 0) < k:
            dst[tid] = k


def ops_conflict(a: list[FootprintOp], b: list[FootprintOp]) -> bool:
    """Do two events' footprints contain a dependent (non-commuting) pair?"""
    for key_a, write_a, region_a in a:
        for key_b, write_b, region_b in b:
            if key_a != key_b or not (write_a or write_b):
                continue
            if (
                region_a is None
                or region_b is None
                or region_a.overlaps(region_b)
            ):
                return True
    return False


class _Access:
    """One recorded fragment access in the race-detection shadow."""

    __slots__ = ("region", "write", "tid", "epoch", "note", "pid", "logical")

    def __init__(
        self,
        region: "Region",
        write: bool,
        tid: int,
        epoch: int,
        note: str,
        pid: int,
        logical: bool,
    ) -> None:
        self.region = region
        self.write = write
        self.tid = tid
        self.epoch = epoch
        self.note = note
        self.pid = pid
        self.logical = logical


class VerifyMonitor:
    """Vector-clock happens-before state for one controlled run."""

    def __init__(self) -> None:
        # -- thread / clock state ------------------------------------------------
        self._next_tid = 1
        self.clocks: dict[int, VectorClock] = {0: {0: 1}}
        #: context stack of thread ids; [0] outside any coroutine
        self._stack: list[int] = [0]
        #: id(gen) -> thread id for live coroutines
        self._gen_threads: dict[int, int] = {}
        #: pending event seq -> thread that scheduled it
        self._event_thread: dict[int, int] = {}
        #: id(future) -> (clock snapshot at completion, future ref — the
        #: strong ref pins the id against reuse)
        self._future_clocks: dict[int, tuple[VectorClock, Any]] = {}
        #: id(future) -> causality accumulated before completion (all_of)
        self._future_pending: dict[int, VectorClock] = {}
        #: sync key -> published clock (release side)
        self._sync: dict[tuple, VectorClock] = {}
        # -- execution record (DPOR input) ---------------------------------------
        #: executed event seqs, in order
        self.exec_order: list[int] = []
        #: seq -> position in :attr:`exec_order`
        self.exec_index: dict[int, int] = {}
        #: seq -> dependence footprint of that event
        self.footprints: dict[int, list[FootprintOp]] = {}
        #: seq -> seq of the event during which it was scheduled; the DPOR
        #: layer folds descendants' footprints into their ancestors so a
        #: "shell" event (one that merely resumes a coroutine) carries the
        #: dependence of the work it unleashes
        self.parents: dict[int, int] = {}
        self._cur_seq: int | None = None
        self._cur_ops: list[FootprintOp] | None = None
        self._cur_seen: set[tuple] | None = None
        # -- race sanitizer ------------------------------------------------------
        #: item name -> recorded accesses
        self._shadow: dict[str, list[_Access]] = {}
        self.races: list[Finding] = []
        self._race_keys: set[tuple] = set()

    # -- engine-side happens-before hooks (SimEngine.set_hb) ---------------------

    def on_scheduled(self, seq: int) -> None:
        self._event_thread[seq] = self._stack[-1]
        if self._cur_seq is not None:
            self.parents[seq] = self._cur_seq

    def on_event(self, seq: int) -> None:
        tid = self._event_thread.pop(seq, 0)
        clock = self.clocks.get(tid)
        if clock is None:
            clock = self.clocks[tid] = {}
        clock[tid] = clock.get(tid, 0) + 1
        self._stack = [tid]
        self._cur_seq = seq
        self.exec_index[seq] = len(self.exec_order)
        self.exec_order.append(seq)
        ops: list[FootprintOp] = []
        self.footprints[seq] = ops
        self._cur_ops = ops
        self._cur_seen = set()

    def on_spawn(self, gid: int) -> None:
        tid = self._next_tid
        self._next_tid = tid + 1
        self.clocks[tid] = dict(self.clocks[self._stack[-1]])
        self._gen_threads[gid] = tid

    def on_resume(self, gid: int) -> None:
        tid = self._gen_threads.get(gid)
        if tid is None:
            tid = self._next_tid
            self._next_tid = tid + 1
            self.clocks[tid] = {}
            self._gen_threads[gid] = tid
        clock = self.clocks[tid]
        _merge(clock, self.clocks[self._stack[-1]])
        clock[tid] = clock.get(tid, 0) + 1
        self._stack.append(tid)

    def on_suspend(self, gid: int, finished: bool = False) -> None:
        tid = self._stack.pop()
        # the resumer continues inline after the yield: genuine program order
        _merge(self.clocks[self._stack[-1]], self.clocks[tid])
        if finished:
            self._gen_threads.pop(gid, None)

    def on_future_complete(self, future: "Future") -> None:
        pending = self._future_pending.pop(id(future), None)
        ctx = self.clocks[self._stack[-1]]
        if pending is not None:
            # an all_of join depends on *every* input's completer
            _merge(ctx, pending)
        self._future_clocks[id(future)] = (dict(ctx), future)

    def on_future_read(self, future: "Future") -> None:
        entry = self._future_clocks.get(id(future))
        if entry is not None and entry[1] is future:
            _merge(self.clocks[self._stack[-1]], entry[0])

    def note_future_dep(self, future: "Future") -> None:
        pending = self._future_pending.setdefault(id(future), {})
        _merge(pending, self.clocks[self._stack[-1]])

    # -- runtime-side instrumentation (probe subscriptions) -----------------------

    def op(
        self, key: tuple, write: bool, region: "Region | None" = None
    ) -> None:
        """Record one dependence-footprint op for the executing event."""
        ops = self._cur_ops
        if ops is None:
            return  # setup phase, outside any event
        dedup = (key, write, id(region))
        seen = self._cur_seen
        if seen is not None:
            if dedup in seen:
                return
            seen.add(dedup)
        ops.append((key, write, region))

    def sync_release(
        self, key: tuple, region: "Region | None" = None
    ) -> None:
        """Publish the current context's clock on ``key`` (a write op)."""
        self.op(key, True, region)
        published = self._sync.get(key)
        if published is None:
            published = self._sync[key] = {}
        _merge(published, self.clocks[self._stack[-1]])

    def sync_acquire(
        self, key: tuple, region: "Region | None" = None
    ) -> None:
        """Observe state published on ``key`` (a read op + clock join)."""
        self.op(key, False, region)
        published = self._sync.get(key)
        if published is not None:
            _merge(self.clocks[self._stack[-1]], published)

    def frag_read(
        self, pid: int, item: "DataItem", region: "Region", note: str
    ) -> None:
        self._access(pid, item, region, False, note)

    def frag_write(
        self, pid: int, item: "DataItem", region: "Region", note: str,
        payload: object = None,
    ) -> None:
        self._access(pid, item, region, True, note)

    on_table_read = sync_acquire
    on_table_publish = sync_release
    on_frag_read = frag_read
    on_frag_write = frag_write

    def on_ownership_update(
        self, item: "DataItem", pid: int, region: "Region"
    ) -> None:
        self.sync_release(("own", item.name))

    def on_task_locks_held(
        self, task: "TaskSpec", treeture: "Treeture", pid: int, now: float
    ) -> None:
        """The task body's accesses, recorded while its verified locks are
        held (they protect the whole execution window)."""
        note = f"task:{task.name}"
        for item in task.accessed_items_ordered():
            write = task.write_region(item)
            if not write.is_empty():
                self._access(pid, item, write, True, note)
            read = task.read_region(item).difference(write)
            if not read.is_empty():
                self._access(pid, item, read, False, note)

    # -- race detection -----------------------------------------------------------

    def _access(
        self,
        pid: int,
        item: "DataItem",
        region: "Region",
        write: bool,
        note: str,
    ) -> None:
        if region.is_empty():
            return
        self.op(("frag", item.name), write, region)
        # *logical* writes change the item's value (task bodies, zero-init
        # first touch); copy-maintenance writes (replica/migration splices,
        # invalidations) only move existing values between address spaces.
        # A racing pair is reported only when a logical writer is involved:
        # copies racing reads or each other cannot corrupt the model state,
        # and the per-element shadow is shared across all processes' copies.
        logical = write and (note.startswith("task:") or note == "allocate")
        tid = self._stack[-1]
        clock = self.clocks[tid]
        records = self._shadow.setdefault(item.name, [])
        for record in records:
            if record.tid == tid:
                continue
            if not ((write and logical) or (record.write and record.logical)):
                continue
            if clock.get(record.tid, 0) >= record.epoch:
                continue  # ordered: record happens-before this access
            if region.overlaps(record.region):
                self._report_race(item, region, record, write, note, pid)
        epoch = clock.get(tid, 0)
        fresh = _Access(region, write, tid, epoch, note, pid, logical)
        # same-thread records covered by the new access are superseded for
        # every future ordering check; prune them to bound the shadow
        records[:] = [
            r
            for r in records
            if not (r.tid == tid and r.write == write and region.covers(r.region))
        ]
        records.append(fresh)

    def _report_race(
        self,
        item: "DataItem",
        region: "Region",
        record: _Access,
        write: bool,
        note: str,
        pid: int,
    ) -> None:
        kind = "write-write" if (write and record.write) else "read-write"
        first, second = sorted([record.note, note])
        key = (kind, item.name, first, second)
        if key in self._race_keys:
            return
        self._race_keys.add(key)
        overlap = region.intersect(record.region)
        self.races.append(
            Finding(
                check=f"race.{kind}",
                severity="error",
                message=(
                    f"unordered {kind} pair on {item.name!r}: "
                    f"{record.note} (pid {record.pid}) vs {note} (pid {pid}) "
                    f"overlap {overlap.size()} elements"
                ),
                item=item.name,
                region=str(overlap),
            )
        )
