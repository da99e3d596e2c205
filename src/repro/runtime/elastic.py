"""Elastic cluster membership: scale-out, graceful drain, failure storms.

The paper's model is presented over a static set of runtime processes
(§3.2); its outlook names "dynamic environments" as the motivation for
routing every data access through the runtime.  This module supplies the
dynamics: nodes *join* a running computation (ownership subtrees and a
share of the data migrate to them), *leave* gracefully (queued tasks,
replicas, and owned regions evacuate before departure), or *fail in
correlated storms* (checkpoint/restore re-materializes the lost regions
on the survivors).

All three operations are simulation coroutines — their control messages,
payload transfers, and fragment splices ride the same simulated network
and cores as everything else, so elasticity overhead is visible in
benchmark time.  A :class:`ChurnController` replays a deterministic
schedule of :class:`ChurnEvent`\\ s against a live runtime; the churn
bench and the fault-injection test matrix both drive it.

Metrics published under ``elastic.*``:

* ``elastic.joins`` / ``elastic.drains`` / ``elastic.failures`` — event
  counts (``elastic.churn_events`` totals them);
* ``elastic.join_migrated_bytes`` — bytes seeded onto joining nodes;
* ``elastic.evacuated_bytes`` — bytes moved off departing nodes
  (replicas dropped in place are counted separately as
  ``elastic.dropped_replica_bytes`` — copies need no evacuation);
* ``elastic.restored_bytes`` — checkpoint bytes re-materialized after a
  storm;
* ``elastic.recovery_time`` / ``elastic.drain_time`` — stats (seconds).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Generator

from repro.runtime.balancer import take_slice
from repro.runtime.config import TASK_MESSAGE_BYTES
from repro.runtime.resilience import Checkpoint, ResilienceManager, lost_region

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.runtime import AllScaleRuntime


# -- scale-out --------------------------------------------------------------------


def scale_out(
    runtime: "AllScaleRuntime",
    cores: int | None = None,
    flops_per_core: float | None = None,
    memory_bytes: float | None = None,
    gpus: int | None = None,
    share: float | None = None,
) -> Generator:
    """Join one node mid-run and seed it with a share of the data.

    The cluster grows (:meth:`AllScaleRuntime.add_process` — possibly a
    heterogeneous node), then for every item a slice of the *largest*
    owner's region migrates to the newcomer so future tasks have a
    reason to land there (§3.2: moving data moves load).  ``share``
    defaults to ``1/P`` of the donor's region — an equal share of the
    enlarged cluster.  Items whose region scheme has no slicing strategy
    stay put; the balancer and first-touch spreading pick those up.

    Returns the new pid (via ``return`` — drive with ``yield from``).
    """
    pid = runtime.add_process(
        cores=cores,
        flops_per_core=flops_per_core,
        memory_bytes=memory_bytes,
        gpus=gpus,
    )
    runtime.metrics.incr("elastic.joins")
    runtime.metrics.incr("elastic.churn_events")
    fraction = share if share is not None else 1.0 / runtime.num_processes
    newcomer = runtime.process(pid).data_manager
    seeded = 0
    for item in runtime.items:
        donors = [
            p
            for p in runtime.processes
            if p.pid != pid
            and not p.failed
            and not p.data_manager.owned_region(item).is_empty()
        ]
        if not donors:
            continue
        donor = max(
            donors,
            key=lambda p: (p.data_manager.owned_region(item).size(), -p.pid),
        )
        owned = donor.data_manager.owned_region(item)
        piece = take_slice(owned, fraction)
        if piece is None:
            continue
        before = newcomer.owned_region(item)
        yield from newcomer._migrate_in(item, piece, donor.pid)
        gained = newcomer.owned_region(item).difference(before)
        seeded += item.region_bytes(gained)
    runtime.metrics.incr("elastic.join_migrated_bytes", seeded)
    return pid


# -- graceful scale-in --------------------------------------------------------------


def drain(runtime: "AllScaleRuntime", pid: int) -> Generator:
    """Gracefully remove process ``pid`` from a running computation.

    Three-stage protocol, each stage a fixpoint loop:

    1. **Task quiesce** — queued tasks forward to the redirect target
       (one task-message charge each); active tasks run to completion;
       in-flight and fetching transfers land.  The ``draining`` flag set
       up front makes the scheduler, balancer, and stealers route around
       the node meanwhile, and late-arriving parcels self-forward.
    2. **Data evacuation** — replicas are dropped in place (they are
       copies; the owners still hold the bytes), then every owned
       region migrates to the remaining available processes round-robin
       through the ordinary *(migrate)* rule, index updates included.
    3. **Departure** — once nothing is queued, running, in flight, or
       owned, the process is retired through :meth:`fail_process`
       (failing an *empty* node loses nothing; it re-baselines the
       sentinel and makes every later dispatch treat the pid as gone).

    Suspended split parents (awaiting children placed elsewhere) hold no
    core slot, no locks, and no data; their combining continuation is
    allowed to outlive the departure, like a future returned from a
    departed locality.  Returns the evacuated byte count.
    """
    process = runtime.process(pid)
    if process.failed:
        raise RuntimeError(f"process {pid} already failed; cannot drain")
    if process.draining:
        raise RuntimeError(f"process {pid} is already draining")
    others = [q for q in runtime.alive_processes() if q != pid]
    if not others:
        raise RuntimeError(
            f"process {pid} is the last one alive; nowhere to evacuate"
        )
    manager = process.data_manager
    t0 = runtime.now
    process.draining = True
    runtime.metrics.incr("elastic.drains")
    runtime.metrics.incr("elastic.churn_events")

    # stage 1: task quiesce
    while True:
        if process.queue:
            target = runtime._redirect_if_failed(pid)
            if target != pid:
                task, treeture, variant = process.queue.popleft()
                yield runtime.network.send(pid, target, TASK_MESSAGE_BYTES)
                # a storm may fail the target while the task travels
                if runtime.process(target).failed:
                    target = runtime._redirect_if_failed(target)
                runtime.process(target).enqueue(task, treeture, variant)
                runtime.metrics.incr("elastic.evacuated_tasks")
                continue
            # every peer is draining too: run the leftovers locally
            process._kick()
            yield process._slot_free()
            continue
        if process.active:
            yield process._slot_free()
            continue
        if manager.in_flight:
            yield manager.in_flight.change()
            continue
        if manager.fetching:
            yield manager.fetching.change()
            continue
        break

    # stage 2: data evacuation
    dropped = 0
    for item in list(manager.fragments):
        replica = manager.replica_region(item)
        if not replica.is_empty():
            dropped += item.region_bytes(replica)
            manager.drop_replica(item, replica)
    runtime.metrics.incr("elastic.dropped_replica_bytes", dropped)
    evacuated = 0
    while True:
        pending = sorted(
            (
                item
                for item in runtime.items
                if not manager.owned_region(item).is_empty()
            ),
            key=lambda item: item.name,
        )
        if not pending:
            break
        targets = [q for q in runtime.available_processes() if q != pid]
        if not targets:
            # everything else is draining as well; hand the data to any
            # survivor — its own drain will move it on
            targets = [q for q in runtime.alive_processes() if q != pid]
        if not targets:
            raise RuntimeError(
                f"process {pid}: no survivor left to evacuate data to"
            )
        for cursor, item in enumerate(pending):
            owned = manager.owned_region(item)
            if owned.is_empty():
                continue  # a concurrent migration beat us to it
            dst = runtime.process(targets[cursor % len(targets)])
            yield from dst.data_manager._migrate_in(item, owned, pid)
            remaining = manager.owned_region(item)
            evacuated += item.region_bytes(owned.difference(remaining))
    runtime.metrics.incr("elastic.evacuated_bytes", evacuated)

    # stage 3: departure — re-quiesce first (a task can slip in while the
    # data moves only in the everyone-drains corner, but be thorough)
    while process.queue or process.active:
        process._kick()
        yield process._slot_free()
    runtime.fail_process(pid)
    runtime.metrics.observe("elastic.drain_time", runtime.now - t0)
    return evacuated


# -- failure storms -----------------------------------------------------------------


def failure_storm(
    runtime: "AllScaleRuntime",
    victims: list[int],
    snapshot: Checkpoint | None = None,
    resilience: ResilienceManager | None = None,
    poll: float = 1e-5,
) -> Generator:
    """Correlated loss of several nodes at one instant, then recovery.

    Waits until every victim is simultaneously at a task barrier — the
    failure model's premise — polling with exponential backoff starting
    at ``poll`` simulated seconds (so millisecond-scale apps see a tight
    barrier while hour-scale apps don't drown the calendar in poll
    events), then fails them all at the same timestamp, and
    re-materializes the
    lost regions from ``snapshot`` onto the survivors.  Without a
    snapshot a checkpoint is taken at the barrier right before the
    storm, which models perfect (zero-loss) recovery; passing an older
    periodic checkpoint models the standard roll-back-the-lost-share
    semantics.

    Returns the recovery time in simulated seconds (also published as
    the ``elastic.recovery_time`` stat).
    """
    resilience = resilience or ResilienceManager(runtime)
    targets = sorted(set(victims))
    alive = set(runtime.alive_processes())
    for pid in targets:
        if pid not in alive:
            raise ValueError(f"storm victim {pid} is not alive")
    if not alive - set(targets):
        raise ValueError("a storm must leave at least one survivor")

    def _busy(pid: int) -> bool:
        victim = runtime.process(pid)
        manager = victim.data_manager
        return bool(
            victim.queue
            or victim.active
            or manager.in_flight
            or manager.fetching
        )

    def _holds(pid: int) -> str:
        victim = runtime.process(pid)
        manager = victim.data_manager
        moving = sorted(
            item.name
            for item in {*manager.in_flight.regions, *manager.fetching.regions}
        )
        return (
            f"pid {pid}: {len(victim.queue)} queued, {victim.active} active, "
            f"items in transfer {moving}"
        )

    while True:
        delay = poll
        while any(_busy(pid) for pid in targets):
            yield delay
            delay = min(delay * 2.0, 1.0)
            # the poll was the last pending event: nothing can ever idle
            # the victims, so re-arming would spin forever
            if runtime.engine.pending_events == 0 and any(
                _busy(pid) for pid in targets
            ):
                raise RuntimeError(
                    "storm victims never reach the barrier, event queue "
                    "drained: "
                    + "; ".join(_holds(pid) for pid in targets if _busy(pid))
                )
        if snapshot is not None:
            break
        # checkpoint on demand — it streams to stable storage in simulated
        # time, so tasks can land on a victim meanwhile; re-verify the
        # barrier afterwards (synchronously) and retry if one did
        snapshot = yield from resilience.checkpoint()
        if not any(_busy(pid) for pid in targets):
            break
        snapshot = None

    t0 = runtime.now
    for pid in targets:
        runtime.fail_process(pid)
    runtime.metrics.incr("elastic.failures", len(targets))
    runtime.metrics.incr("elastic.churn_events")

    # what recovery will restore: checkpointed bytes now present nowhere
    restored = 0
    by_name = {item.name: item for item in runtime.items}
    for item_name, entries in snapshot.payloads.items():
        item = by_name.get(item_name)
        if item is None:
            continue
        lost = lost_region(runtime, item, item.full_region)
        if lost.is_empty():
            continue
        for _pid, payload in entries:
            restored += item.region_bytes(payload.region.intersect(lost))
    yield from resilience.recover_lost_data(snapshot)
    recovery_time = runtime.now - t0
    runtime.metrics.observe("elastic.recovery_time", recovery_time)
    runtime.metrics.incr("elastic.restored_bytes", restored)
    return recovery_time


# -- churn schedules ----------------------------------------------------------------


@dataclass(frozen=True)
class ChurnEvent:
    """One membership change in a deterministic churn schedule."""

    #: simulated time at which the event fires
    at: float
    #: ``"join"`` | ``"drain"`` | ``"storm"``
    kind: str
    #: nodes joining / draining / failing together
    count: int = 1
    #: heterogeneous joiners: per-core speed of the new node(s)
    flops_per_core: float | None = None
    #: heterogeneous joiners: core count of the new node(s)
    cores: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("join", "drain", "storm"):
            raise ValueError(f"unknown churn event kind {self.kind!r}")
        if self.at < 0:
            raise ValueError("event time must be >= 0")
        if self.count < 1:
            raise ValueError("event count must be >= 1")


@dataclass
class ChurnController:
    """Replays a :class:`ChurnEvent` schedule against a live runtime.

    Victim selection is deterministic: drains and storms take the
    *highest* available pids not in ``protect`` (pid 0 is protected by
    default — apps submit from it), clamped so at least one protected or
    lower pid survives.  An optional periodic checkpointer keeps a
    rolling snapshot; storms recover from the most recent one (or
    checkpoint on demand when none exists yet).
    """

    runtime: "AllScaleRuntime"
    events: list[ChurnEvent]
    #: pids never chosen as drain/storm victims
    protect: tuple[int, ...] = (0,)
    #: seconds between rolling checkpoints (None = checkpoint on demand)
    checkpoint_interval: float | None = None
    snapshot: Checkpoint | None = None
    #: (time, kind, pid) log of applied membership changes
    log: list[tuple[float, str, int]] = field(default_factory=list)
    _future: object = None
    _running: bool = False

    def start(self):
        """Spawn the schedule (and checkpointer) as simulation processes."""
        if self._future is not None:
            raise RuntimeError("churn controller already started")
        self._running = True
        self.resilience = ResilienceManager(self.runtime)
        if self.checkpoint_interval is not None:
            self.runtime.spawn(self._checkpointer())
        self._future = self.runtime.spawn(self._run())
        return self._future

    def stop(self) -> None:
        """Let the checkpointer wind down (the schedule always completes)."""
        self._running = False

    @property
    def done(self) -> bool:
        return self._future is not None and self._future.done

    def _victims(self, count: int) -> list[int]:
        candidates = [
            pid
            for pid in self.runtime.available_processes()
            if pid not in self.protect
        ]
        return candidates[-count:] if count < len(candidates) else candidates[1:]

    def _checkpointer(self) -> Generator:
        while self._running:
            yield self.checkpoint_interval
            if not self._running:
                return
            self.snapshot = yield from self.resilience.checkpoint()

    def _run(self) -> Generator:
        runtime = self.runtime
        for event in sorted(self.events, key=lambda e: e.at):
            wait = event.at - runtime.now
            if wait > 0:
                yield wait
            if event.kind == "join":
                for _ in range(event.count):
                    pid = yield from scale_out(
                        runtime,
                        cores=event.cores,
                        flops_per_core=event.flops_per_core,
                    )
                    self.log.append((runtime.now, "join", pid))
            elif event.kind == "drain":
                for pid in reversed(self._victims(event.count)):
                    yield from drain(runtime, pid)
                    self.log.append((runtime.now, "drain", pid))
            else:  # storm
                victims = self._victims(event.count)
                if not victims:
                    continue
                snapshot = self.snapshot  # rolling, or on-demand if None
                yield from failure_storm(
                    runtime,
                    victims,
                    snapshot=snapshot,
                    resilience=self.resilience,
                )
                for pid in victims:
                    self.log.append((runtime.now, "storm", pid))
        self._running = False
