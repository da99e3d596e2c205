"""Elastic cluster membership: scale-out, graceful drain, failure storms.

The paper's model is presented over a static set of runtime processes
(§3.2); its outlook names "dynamic environments" as the motivation for
routing every data access through the runtime.  This module supplies the
dynamics: nodes *join* a running computation, *leave* gracefully, or
*fail in correlated storms*.  A drain is a storm without the loss: both
hold their processes (no queued task starts), settle them on one
barrier, and depart through one step that fails them and re-places
their queued tasks through Algorithm 2; a drain evacuates the owned data
before it departs, a storm re-materializes the lost regions on the
survivors from a checkpoint after.  The data each change moves is a
redistribution: a planner returns moves that keep a process's items
together, and the one *(migrate)* executor runs them
(``docs/runtime.md``, "Redistribution").

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
* ``elastic.replaced_tasks`` / ``elastic.evacuated_tasks`` — tasks
  queued on storm victims / on a drained process, re-placed after the
  departure (each counter appears once it is nonzero);
* ``elastic.recovery_time`` / ``elastic.drain_time`` — stats (seconds).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Generator, Iterator

from repro.runtime.balancer import share_slices
from repro.runtime.data_manager import Move, run_moves
from repro.runtime.resilience import (
    Checkpoint,
    ResilienceManager,
    nearest,
    owned_bytes,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.process import RuntimeProcess
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
    heterogeneous node), then one donor — the process owning the most
    bytes over all items, ties to the lowest pid — hands the newcomer
    the same fraction of every item it owns, so future tasks have a
    reason to land there (§3.2: moving data moves load).
    ``share`` defaults to ``1/P`` with ``P`` the available processes
    after the join — an equal share of the enlarged cluster.  Items whose
    region scheme has no slicing strategy stay put; the balancer and
    first-touch spreading pick those up.

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
    fraction = (
        share if share is not None
        else 1.0 / len(runtime.available_processes())
    )
    donors = [p.pid for p in runtime.processes if p.pid != pid and not p.failed]
    seeded = 0
    if donors:
        donor = max(donors, key=lambda q: (owned_bytes(runtime, q), -q))
        manager = runtime.process(donor).data_manager
        # each item's slice is cut when the move before it has landed
        slices = share_slices(
            ((item, manager.owned_region(item)) for item in runtime.items),
            fraction,
        )
        seeded = yield from run_moves(runtime, (
            Move(item, piece, donor, pid) for item, piece in slices
        ))
    runtime.metrics.incr("elastic.join_migrated_bytes", seeded)
    return pid


# -- departure: one hold, one barrier, one step -----------------------------------


def _busy(process: "RuntimeProcess") -> Callable[[], object] | None:
    """What keeps held ``process`` short of its departure barrier — a task
    still runs there, a transfer still lands there, or a move towards it
    still waits at its source to hand over — as the method returning a
    future that ends it; ``None`` once the process has settled.  Its
    queue does not count: a held process starts none of it."""
    manager = process.data_manager
    if process.active:
        return process._slot_free
    if manager.in_flight:
        return manager.in_flight.wait
    if manager.fetching:
        return manager.fetching.wait
    if manager.incoming_moves:
        return manager.handed_over.wait
    return None


def _depart(
    runtime: "AllScaleRuntime",
    pids: list[int],
    counter: str,
    recovery: Generator | None = None,
):
    """The one departure step of drains and storms: take each process's
    queue, fail it (unless a storm already has), then re-place every
    queued task — none ever started — in the order it arrived, not in
    the queue's start order, through Algorithm 2 with a fresh
    lookup, counting them under ``counter``.  ``recovery`` is spawned
    between the failures and the re-placement: it claims every lost row
    before it first yields, so the tasks are placed against the adopters'
    ownership.  Returns the pids this step failed and the recovery's
    future (``None`` without one)."""
    orphans = []
    failed = []
    for pid in pids:
        process = runtime.process(pid)
        orphans.extend(process.take_queued())
        if not process.failed:
            runtime.fail_process(pid)
            failed.append(pid)
    future = runtime.engine.spawn(recovery) if recovery is not None else None
    origin = runtime._redirect_if_failed(pids[0])
    for task, treeture, variant, _owners in orphans:
        runtime.scheduler.reassign(task, treeture, variant, origin)
    if orphans:
        runtime.metrics.incr(counter, len(orphans))
    return failed, future


# -- graceful scale-in --------------------------------------------------------------


def drain(runtime: "AllScaleRuntime", pid: int) -> Generator:
    """Gracefully remove process ``pid`` from a running computation: a
    failure storm of one (:func:`failure_storm`) without the loss.

    1. **Hold** — :attr:`RuntimeProcess.held` is set: the process starts
       no queued task from here on and leaves
       :meth:`~AllScaleRuntime.available_processes`, but it keeps taking
       the placements Algorithm 2 sends it, which queue.
    2. **Settle** — its active tasks run to completion, its in-flight and
       fetching transfers land, and live moves towards it hand over
       (:func:`_busy`, the storm's barrier).
    3. **Evacuate** — replicas are dropped in place (they are copies; the
       owners still hold the bytes), then the whole owned share, every
       item, moves to the one process :func:`_evacuation` picks, so
       co-located items stay together.  Data can reach the process while
       its share moves out, so settle and evacuate repeat until it is
       settled and owns nothing.
    4. **Depart** — :func:`_depart` takes the queue, retires the process
       through :meth:`fail_process` (failing an *empty* node loses
       nothing) and re-places every queued task through Algorithm 2, so
       each lands where its data went.

    Suspended split parents (awaiting children placed elsewhere) hold no
    core slot, no locks, and no data; their combining continuation is
    allowed to outlive the departure, like a future returned from a
    departed locality.  Returns the evacuated byte count.
    """
    process = runtime.process(pid)
    if process.failed:
        raise RuntimeError(f"process {pid} already failed; cannot drain")
    if process.held:
        raise RuntimeError(f"process {pid} is already held")
    others = [q for q in runtime.alive_processes() if q != pid]
    if not others:
        raise RuntimeError(
            f"process {pid} is the last one alive; nowhere to evacuate"
        )
    manager = process.data_manager
    t0 = runtime.now
    process.held = True
    runtime.metrics.incr("elastic.drains")
    runtime.metrics.incr("elastic.churn_events")

    dropped = evacuated = 0
    while not process.failed:  # else a storm took it meanwhile
        while (busy := _busy(process)) is not None:
            yield busy()
        for item in list(manager.fragments):
            replica = manager.replica_region(item)
            if not replica.is_empty():
                dropped += item.region_bytes(replica)
                manager.drop_replica(item, replica)
        if all(manager.owned_region(item).is_empty() for item in runtime.items):
            break
        evacuated += yield from run_moves(runtime, _evacuation(runtime, pid))
    runtime.metrics.incr("elastic.dropped_replica_bytes", dropped)
    runtime.metrics.incr("elastic.evacuated_bytes", evacuated)

    _depart(runtime, [pid], "elastic.evacuated_tasks")
    runtime.metrics.observe("elastic.drain_time", runtime.now - t0)
    return evacuated


def _evacuation(runtime: "AllScaleRuntime", pid: int) -> Iterator[Move]:
    """The drain planner: ``pid``'s whole owned share, every item, to the
    available process nearest it (:func:`nearest`; ties to the fewest
    owned bytes).  The drain plans again while ``pid`` owns anything."""
    manager = runtime.process(pid).data_manager
    share = {
        item: manager.owned_region(item)
        for item in sorted(runtime.items, key=lambda item: item.name)
        if not manager.owned_region(item).is_empty()
    }
    targets = [q for q in runtime.available_processes() if q != pid]
    if not targets:
        # everything else is held as well; hand the data to any
        # survivor — its own drain will move it on
        targets = [q for q in runtime.alive_processes() if q != pid]
    if not targets:
        raise RuntimeError(f"process {pid}: no survivor left to evacuate data to")
    load = {q: owned_bytes(runtime, q) for q in targets}
    dst = nearest(runtime, targets, share, load)
    for item in share:
        owned = manager.owned_region(item)
        if not owned.is_empty():  # else a concurrent move took it
            yield Move(item, owned, pid, dst)


# -- failure storms -----------------------------------------------------------------

#: simulated seconds of a storm barrier's first poll; each further poll
#: waits twice as long, up to one second
STORM_POLL = 1e-5


def failure_storm(
    runtime: "AllScaleRuntime",
    victims: list[int],
    snapshot: Checkpoint | None = None,
    resilience: ResilienceManager | None = None,
) -> Generator:
    """Correlated loss of several nodes at one instant, then recovery.

    From the call on, every victim is *held* (:attr:`RuntimeProcess.held`,
    as a drain holds its process), so the failure model's premise — every
    victim simultaneously at a task barrier (:func:`_busy`) — is reached
    within one task's time of the schedule, however much work keeps
    arriving.  The barrier is polled with exponential backoff starting at
    :data:`STORM_POLL` simulated seconds (so millisecond-scale apps see a
    tight barrier while hour-scale apps don't drown the calendar in poll
    events).  Without a ``snapshot`` a checkpoint is taken there, once —
    a held victim cannot leave the barrier while it streams — which
    models perfect (zero-loss) recovery; passing an older periodic
    checkpoint models the standard roll-back-the-lost-share semantics.

    Then all victims depart at the same timestamp (:func:`_depart`):
    recovery re-materializes the lost regions from ``snapshot`` onto the
    survivors, and the victims' queued tasks, which never started, are
    re-placed through Algorithm 2 at their data's adopters.

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
    held = [runtime.process(pid) for pid in targets]
    for victim in held:
        victim.held = True

    def _holds(victim: "RuntimeProcess") -> str:
        manager = victim.data_manager
        moving = sorted(
            item.name
            for item in {*manager.in_flight.regions, *manager.fetching.regions}
        )
        return (
            f"pid {victim.pid}: {len(victim.queue)} queued, "
            f"{victim.active} active, items in transfer {moving}, "
            f"{manager.incoming_moves} moves waiting to hand over"
        )

    while True:
        delay = STORM_POLL
        while busy := [victim for victim in held if _busy(victim)]:
            # the poll was the last pending event: nothing can ever idle
            # the victims, so re-arming would spin forever
            if runtime.engine.pending_events == 0:
                raise RuntimeError(
                    "storm victims never reach the barrier, event queue "
                    "drained: " + "; ".join(map(_holds, busy))
                )
            yield delay
            delay = min(delay * 2.0, 1.0)
        if snapshot is not None:
            break
        # checkpoint on demand — it streams to stable storage in simulated
        # time; re-verify the barrier afterwards (synchronously) and retry
        # if a victim left it meanwhile
        snapshot = yield from resilience.checkpoint()
        if not any(_busy(victim) for victim in held):
            break
        snapshot = None

    t0 = runtime.now
    lost = resilience.recover_lost_data(snapshot)
    failed, recovery = _depart(runtime, targets, "elastic.replaced_tasks", lost)
    if failed:  # else drains departed every victim first
        runtime.metrics.incr("elastic.failures", len(failed))
        runtime.metrics.incr("elastic.churn_events")
    restored = yield recovery
    recovery_time = runtime.now - t0
    if failed:
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
