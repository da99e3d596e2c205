"""Fault-injection matrix for elastic clusters under churn.

The elastic module (scale-out, drain, failure storms) moves ownership,
replicas, and queued tasks while the application keeps running; every
cell of this matrix injects a node loss at one of the awkward moments —
mid-migration, mid-staging, mid-checkpoint, with a write intent held,
with a replica in flight — and asserts the runtime either recovers
cleanly or fails in a structured, sentinel-visible way: no hangs, no
silent data loss.

A Hypothesis sweep at the bottom replays randomized churn schedules
against a live workload under the strict sentinel; shrunk failures are
pinned as ``@example`` regressions.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.apps.stencil import (
    StencilWorkload,
    sequential_reference,
    stencil_allscale,
)
from repro.items.grid import Grid
from repro.regions.box import Box
from repro.runtime.config import RuntimeConfig
from repro.runtime.elastic import (
    ChurnController,
    ChurnEvent,
    drain,
    failure_storm,
    scale_out,
)
from repro.runtime.resilience import ResilienceManager
from repro.runtime.runtime import AllScaleRuntime
from repro.runtime.sentinel import RuntimeSentinel, SentinelConfig
from repro.runtime.tasks import TaskSpec
from repro.sim.cluster import Cluster, ClusterSpec, meggie_like_spec
from repro.sim.network import FatTreeTopology

# -- harness ------------------------------------------------------------------------


def make_runtime(nodes=4, strict_sentinel=True, cores=2):
    cluster = Cluster(
        ClusterSpec(num_nodes=nodes, cores_per_node=cores, flops_per_core=1e9)
    )
    runtime = AllScaleRuntime(cluster, RuntimeConfig(functional=True))
    # under REPRO_SENTINEL=1 the fixture's strict sentinel is already there
    if strict_sentinel and runtime.probe.observer(RuntimeSentinel) is None:
        RuntimeSentinel(runtime, SentinelConfig(strict=True)).attach()
    return runtime


def fill(runtime, grid, region, value, origin=0):
    def body(ctx):
        for box in region.boxes:
            ctx.fragment(grid).scatter(box, np.full(box.widths(), value))

    runtime.wait(
        runtime.submit(
            TaskSpec(
                name=f"fill{value}",
                writes={grid: region},
                body=body,
                size_hint=region.size(),
            ),
            origin=origin,
        )
    )


def fill_distributed(runtime, grid, value):
    """Write each owner's share from its own origin, keeping the
    placement distributed (a single full-region write would pull all
    ownership onto the writing process)."""
    for pid in runtime.alive_processes():
        region = runtime.process(pid).data_manager.owned_region(grid)
        if not region.is_empty():
            fill(runtime, grid, region, value, origin=pid)


def read_all(runtime, grid):
    def body(ctx):
        return ctx.fragment(grid).gather(Box.full(grid.shape)).copy()

    return runtime.wait(
        runtime.submit(
            TaskSpec(
                name="readback",
                reads={grid: grid.full_region},
                body=body,
                size_hint=1,
            )
        )
    )


def run_until(runtime, cond):
    """Drive the engine one event at a time until ``cond()`` holds."""
    while not cond():
        processed = runtime.engine.run(max_events=1)
        if processed == 0 and not cond():
            raise AssertionError(
                "event queue drained before the condition held"
            )
    return runtime.now


def owned_coverage(runtime, grid):
    coverage = grid.empty_region()
    for pid in runtime.alive_processes():
        coverage = coverage.union(
            runtime.process(pid).data_manager.owned_region(grid)
        )
    return coverage


def assert_clean(runtime):
    runtime.check_ownership_invariants()
    sentinel = runtime.probe.observer(RuntimeSentinel)
    if sentinel is not None:
        sentinel.verify_all()
        assert sentinel.violations == []


# -- scale-out ----------------------------------------------------------------------


class TestScaleOut:
    def test_join_seeds_ownership_share(self):
        runtime = make_runtime()
        grid = Grid((16, 16), name="g")
        runtime.register_item(grid, placement=grid.decompose(4))
        fill_distributed(runtime, grid, 3.0)

        pid = runtime.wait_process(scale_out(runtime))
        assert pid == 4
        assert runtime.num_processes == 5
        gained = runtime.process(pid).data_manager.owned_region(grid)
        assert not gained.is_empty()
        assert owned_coverage(runtime, grid).same_elements(grid.full_region)
        assert runtime.metrics.counter("elastic.joins") == 1
        assert runtime.metrics.counter("elastic.join_migrated_bytes") > 0
        assert_clean(runtime)
        # the moved bytes are intact on the newcomer
        assert np.all(read_all(runtime, grid) == 3.0)

    def test_heterogeneous_join(self):
        runtime = make_runtime()
        grid = Grid((8, 8), name="g")
        runtime.register_item(grid, placement=grid.decompose(4))
        pid = runtime.wait_process(
            scale_out(runtime, cores=6, flops_per_core=2.5e9)
        )
        node = runtime.process(pid).node
        assert node.num_cores == 6
        assert node.flops_per_core == 2.5e9
        # home maps were recomputed over the enlarged process count
        assert len(runtime.home_map(grid)) == runtime.num_processes
        assert_clean(runtime)

    def test_second_joiner_gets_an_equal_share_of_the_live_cluster(self):
        """``share`` defaults to 1/P over the processes available after
        the join.  Counting every pid ever created gave the second joiner
        of a join/drain/join cycle 1/6 of the donor here, not 1/5."""
        runtime = make_runtime()
        grid = Grid((16, 16), name="g")
        runtime.register_item(grid, placement=grid.decompose(4))
        fill_distributed(runtime, grid, 1.0)
        first = runtime.wait_process(scale_out(runtime))
        runtime.wait_process(drain(runtime, first))
        sizes = {
            pid: runtime.process(pid).data_manager.owned_region(grid).size()
            for pid in runtime.alive_processes()
        }
        # one donor: the most owned bytes, ties to the lowest pid
        donor = max(sizes, key=lambda pid: (sizes[pid], -pid))

        second = runtime.wait_process(scale_out(runtime))
        assert runtime.num_processes == 6
        assert len(runtime.available_processes()) == 5
        gained = runtime.process(second).data_manager.owned_region(grid)
        assert gained.size() == math.ceil(sizes[donor] / 5)
        assert runtime.process(donor).data_manager.owned_region(
            grid
        ).size() == sizes[donor] - gained.size()
        assert np.all(read_all(runtime, grid) == 1.0)
        assert_clean(runtime)

    def test_join_during_running_tasks(self):
        runtime = make_runtime()
        grid = Grid((16, 16), name="g")
        runtime.register_item(grid, placement=grid.decompose(4))
        fill(runtime, grid, grid.full_region, 1.0)
        treeture = runtime.submit(
            TaskSpec(
                name="work",
                writes={grid: grid.full_region},
                body=lambda ctx: None,
                flops=1e6,
                size_hint=grid.full_region.size(),
            )
        )
        done = runtime.wait_process(scale_out(runtime))
        assert done == 4
        runtime.wait(treeture)
        assert_clean(runtime)


# -- graceful drain -----------------------------------------------------------------


class TestDrain:
    def test_drain_evacuates_data_without_loss(self):
        runtime = make_runtime()
        grid = Grid((16, 16), name="g")
        runtime.register_item(grid, placement=grid.decompose(4))
        fill_distributed(runtime, grid, 7.0)
        victim = 2
        before = runtime.process(victim).data_manager.owned_region(grid)
        assert not before.is_empty()

        evacuated = runtime.wait_process(drain(runtime, victim))
        assert evacuated == grid.region_bytes(before)
        assert runtime.process(victim).failed
        assert runtime.process(victim).data_manager.owned_region(
            grid
        ).is_empty()
        assert owned_coverage(runtime, grid).same_elements(grid.full_region)
        assert np.all(read_all(runtime, grid) == 7.0)
        assert runtime.metrics.counter("elastic.drains") == 1
        assert_clean(runtime)

    def test_drain_keeps_co_located_items_together(self):
        """The whole departing share goes to one survivor, the nearest, so
        every survivor owns the same rows of both grids.  Dealing items
        round-robin over the survivors split A from B."""
        runtime = make_runtime()
        grids = [Grid((16, 16), name=name) for name in ("A", "B")]
        for grid in grids:
            runtime.register_item(grid, placement=grid.decompose(4))
            fill_distributed(runtime, grid, 4.0)
        victim = 2
        share = runtime.process(victim).data_manager.owned_region(grids[0])

        runtime.wait_process(drain(runtime, victim))
        for pid in runtime.alive_processes():
            manager = runtime.process(pid).data_manager
            a, b = (manager.owned_region(grid) for grid in grids)
            assert a.same_elements(b), pid
        # the receiver's block touches the departed one
        receivers = [
            pid
            for pid in runtime.alive_processes()
            if runtime.process(pid).data_manager.owned_region(
                grids[0]
            ).covers(share)
        ]
        assert len(receivers) == 1
        for grid in grids:
            assert np.all(read_all(runtime, grid) == 4.0)
        assert_clean(runtime)

    def test_drain_forwards_queued_tasks(self):
        runtime = make_runtime()
        grid = Grid((8, 8), name="g")
        runtime.register_item(grid, placement=grid.decompose(4))
        fill_distributed(runtime, grid, 1.0)
        victim = 3
        home = runtime.process(victim).data_manager.owned_region(grid)
        # pile more work onto the victim than its cores can start at once
        treetures = [
            runtime.submit(
                TaskSpec(
                    name=f"w{k}",
                    writes={grid: home},
                    body=lambda ctx: None,
                    flops=1e5,
                    size_hint=home.size(),
                ),
                origin=victim,
            )
            for k in range(6)
        ]
        evacuated_future = runtime.engine.spawn(drain(runtime, victim))
        for treeture in treetures:
            runtime.wait(treeture)
        runtime.run()
        assert evacuated_future.done
        assert runtime.process(victim).failed
        # every submitted task executed despite the departure
        assert sum(p.executed_leaves for p in runtime.processes) >= 6
        assert_clean(runtime)

    def test_drain_drops_replicas_in_place(self):
        runtime = make_runtime()
        grid = Grid((16, 16), name="g")
        runtime.register_item(grid, placement=grid.decompose(4))
        fill_distributed(runtime, grid, 2.0)
        victim = 1
        remote = runtime.process(0).data_manager.owned_region(grid)
        local = runtime.process(victim).data_manager.owned_region(grid)
        # a read of p0's region executed on the victim leaves a replica there
        runtime.wait(
            runtime.submit(
                TaskSpec(
                    name="reader",
                    writes={grid: local},
                    reads={grid: remote},
                    body=lambda ctx: None,
                    size_hint=local.size(),
                ),
                origin=victim,
            )
        )
        assert not runtime.process(victim).data_manager.replica_region(
            grid
        ).is_empty()
        runtime.wait_process(drain(runtime, victim))
        assert runtime.metrics.counter("elastic.dropped_replica_bytes") > 0
        # the owner still holds the bytes; nothing needed re-sending
        assert np.all(read_all(runtime, grid) == 2.0)
        assert_clean(runtime)

    def test_drain_last_survivor_rejected(self):
        runtime = make_runtime(nodes=2)
        runtime.fail_process(1)
        with pytest.raises(RuntimeError, match="last one alive"):
            runtime.wait_process(drain(runtime, 0))

    def test_double_drain_rejected(self):
        runtime = make_runtime()
        runtime.process(2).held = True
        with pytest.raises(RuntimeError, match="process 2 is already held"):
            runtime.wait_process(drain(runtime, 2))

    def test_drain_of_a_storm_victim_rejected(self):
        runtime = make_runtime()
        grid = Grid((16, 16), name="g")
        runtime.register_item(grid, placement=grid.decompose(4))
        runtime.engine.spawn(failure_storm(runtime, [2]))
        assert runtime.process(2).held
        with pytest.raises(RuntimeError, match="process 2 is already held"):
            runtime.wait_process(drain(runtime, 2))
        runtime.run()
        assert runtime.metrics.counter("runtime.node_failures") == 1

    def test_storm_on_a_draining_process_fails_it_once(self):
        """A storm takes a process whose drain waits for a long task: the
        process fails once, counts as one departure, and no data is
        lost."""
        runtime = make_runtime()
        grid = Grid((16, 16), name="g")
        runtime.register_item(grid, placement=grid.decompose(4))
        fill_distributed(runtime, grid, 3.0)
        victim = 2
        block = runtime.process(victim).data_manager.owned_region(grid)
        runtime.submit(
            TaskSpec(name="long", writes={grid: block}, flops=1e8,
                     size_hint=block.size()),
            origin=victim,
        )
        run_until(runtime, lambda: runtime.process(victim).active > 0)
        drained = runtime.engine.spawn(drain(runtime, victim))
        stormed = runtime.engine.spawn(failure_storm(runtime, [victim]))
        runtime.run()
        assert drained.done and stormed.done
        assert runtime.process(victim).failed
        assert runtime.metrics.counter("runtime.node_failures") == 1
        # the drain wakes first and departs the process; the storm, which
        # polls, then finds nothing left to fail and counts no departure
        assert runtime.metrics.counter("elastic.failures") == 0
        assert runtime.metrics.counter("elastic.churn_events") == 1
        assert runtime.metrics.counter("elastic.drains") == 1
        assert np.all(read_all(runtime, grid) == 3.0)
        assert_clean(runtime)
        with pytest.raises(RuntimeError, match="process 2 has already failed"):
            runtime.fail_process(victim)

    def test_placements_on_a_draining_process_follow_its_data(self):
        """Writes placed on a process whose drain waits behind a long task
        queue there, and are re-placed once it departs: Algorithm 2 sends
        them to the process its data was evacuated to."""
        runtime = make_runtime()
        grid = Grid((16, 16), name="g")
        runtime.register_item(grid, placement=grid.decompose(4))
        victim = 1
        block = runtime.process(victim).data_manager.owned_region(grid)
        runtime.submit(
            TaskSpec(name="long", writes={grid: block}, flops=1e8,
                     size_hint=block.size()),
            origin=victim,
        )
        run_until(runtime, lambda: runtime.process(victim).active > 0)
        runtime.engine.spawn(drain(runtime, victim))
        ran_at: dict[str, int] = {}

        def record(ctx):
            ran_at[ctx.task.name] = ctx.process_id

        treetures = [
            runtime.submit(
                TaskSpec(name=f"w{k}", writes={grid: block}, body=record,
                         size_hint=block.size()),
                origin=3,
            )
            for k in range(3)
        ]
        run_until(runtime, lambda: len(runtime.process(victim).queue) == 3)
        for treeture in treetures:
            runtime.wait(treeture)
        runtime.run()
        assert runtime.process(victim).failed
        assert runtime.process(0).data_manager.owned_region(grid).covers(block)
        assert ran_at == {"w0": 0, "w1": 0, "w2": 0}
        assert runtime.metrics.counter("elastic.evacuated_tasks") == 3
        assert_clean(runtime)

    def test_departure_replaces_orphans_in_arrival_order(self):
        """The queue starts its longest leaf first, but a departure
        re-places the queued tasks in the order they arrived."""
        runtime = make_runtime()
        grid = Grid((16, 16), name="g")
        runtime.register_item(grid, placement=grid.decompose(4))
        victim = 1
        block = runtime.process(victim).data_manager.owned_region(grid)
        runtime.submit(
            TaskSpec(name="long", writes={grid: block}, flops=1e8,
                     size_hint=block.size()),
            origin=victim,
        )
        run_until(runtime, lambda: runtime.process(victim).active > 0)
        runtime.engine.spawn(drain(runtime, victim))
        reassigned = []
        reassign = runtime.scheduler.reassign

        def record(task, *args):
            reassigned.append(task.name)
            return reassign(task, *args)

        runtime.scheduler.reassign = record
        names = [f"w{k}" for k in range(4)]
        for name, flops in zip(names, (1e3, 1e6, 1e4, 1e5)):
            runtime.submit(
                TaskSpec(name=name, writes={grid: block}, flops=flops,
                         body=lambda ctx: None, size_hint=block.size()),
                origin=3,
            )
        run_until(runtime, lambda: len(runtime.process(victim).queue) == 4)
        runtime.run()
        assert runtime.process(victim).failed
        assert reassigned == names
        assert_clean(runtime)

    def test_drain_of_a_full_one_core_process_takes_a_placement(self):
        """A held process never queues a slot waiter of its own, so the
        drain's barrier sees every slot release: with both slots of a
        1-core node busy, a placement arriving after the drain began
        neither wedges the drain nor strands the task."""
        runtime = make_runtime(cores=1)
        grid = Grid((16, 16), name="g")
        runtime.register_item(grid, placement=grid.decompose(4))
        victim = 1
        block = runtime.process(victim).data_manager.owned_region(grid)
        for k in range(2):
            runtime.submit(
                TaskSpec(name=f"long{k}", reads={grid: block}, flops=1e8,
                         size_hint=block.size()),
                origin=victim,
            )
        process = runtime.process(victim)
        run_until(runtime, lambda: process.active == 2)
        assert not process.queue
        drained = runtime.engine.spawn(drain(runtime, victim))
        late = runtime.submit(
            TaskSpec(name="late", writes={grid: block}, body=lambda ctx: None,
                     size_hint=block.size()),
            origin=3,
        )
        run_until(runtime, lambda: len(process.queue) == 1)
        runtime.run()
        assert drained.done and late.done
        assert process.failed
        assert runtime.metrics.counter("elastic.evacuated_tasks") == 1
        assert_clean(runtime)


# -- the fault matrix ---------------------------------------------------------------


class TestFaultMatrix:
    """Node loss at every awkward moment; each cell is deterministic."""

    def test_loss_mid_migration_dead_letters_payload(self):
        """The migration *destination* dies while the payload is on the wire.

        Ownership moved at export time, so the failure drops it; the late
        payload must be dead-lettered (splicing it would resurrect bytes
        on a corpse) and the region must read as present nowhere —
        recoverable from the checkpoint, not silently half-alive.
        """
        runtime = make_runtime()
        grid = Grid((16, 16), name="g")
        runtime.register_item(grid, placement=grid.decompose(4))
        fill_distributed(runtime, grid, 4.0)
        resilience = ResilienceManager(runtime)
        snapshot = runtime.wait_process(resilience.checkpoint())

        src, dst = 1, 3
        moving = runtime.process(src).data_manager.owned_region(grid)
        dst_manager = runtime.process(dst).data_manager
        # the crash loses the in-flight region AND dst's own share
        doomed = moving.union(dst_manager.owned_region(grid))
        migration = runtime.engine.spawn(
            dst_manager.migrate_in(grid, moving, src)
        )
        run_until(runtime, lambda: bool(dst_manager.in_flight))
        runtime.fail_process(dst)
        runtime.run()
        assert migration.done
        assert runtime.metrics.counter("dm.dead_letter_payloads") == 1
        # no silent survival: the moving region is present nowhere
        lost = grid.full_region
        for pid in runtime.alive_processes():
            lost = lost.difference(
                runtime.process(pid).data_manager.present_region(grid)
            )
        assert lost.same_elements(doomed)
        assert_clean(runtime)

        runtime.wait_process(resilience.recover_lost_data(snapshot))
        assert owned_coverage(runtime, grid).same_elements(grid.full_region)
        assert np.all(read_all(runtime, grid) == 4.0)
        assert_clean(runtime)

    def test_loss_mid_staging_serving_node_dies(self):
        """The node *serving* a replica fetch dies mid-stage.

        The stager either lands the replica (the payload left before the
        crash) or re-routes through a fresh lookup; either way the task
        completes — no hang — and the invariants hold.
        """
        runtime = make_runtime()
        grid = Grid((16, 16), name="g")
        runtime.register_item(grid, placement=grid.decompose(4))
        fill_distributed(runtime, grid, 5.0)
        reader, victim = 0, 2
        local = runtime.process(reader).data_manager.owned_region(grid)
        remote = runtime.process(victim).data_manager.owned_region(grid)
        manager = runtime.process(reader).data_manager
        leaves_before = sum(p.executed_leaves for p in runtime.processes)
        treeture = runtime.submit(
            TaskSpec(
                name="reader",
                writes={grid: local},
                reads={grid: remote},
                body=lambda ctx: None,
                size_hint=local.size(),
            ),
            origin=reader,
        )
        run_until(runtime, lambda: bool(manager.fetching))
        runtime.fail_process(victim)
        runtime.wait(treeture)  # raises on deadlock — the no-hang assertion
        assert (
            sum(p.executed_leaves for p in runtime.processes)
            == leaves_before + 1
        )
        assert_clean(runtime)

    def test_loss_mid_checkpoint_recovers_from_prior_snapshot(self):
        """A victim dies while the *next* checkpoint is streaming out.

        The interrupted checkpoint must still complete (it skips the
        corpse), and recovery from the last complete snapshot restores
        full coverage.
        """
        runtime = make_runtime()
        grid = Grid((16, 16), name="g")
        runtime.register_item(grid, placement=grid.decompose(4))
        fill_distributed(runtime, grid, 6.0)
        resilience = ResilienceManager(runtime)
        stable = runtime.wait_process(resilience.checkpoint())

        victim = 2
        interrupted = runtime.engine.spawn(resilience.checkpoint())
        runtime.run(until=runtime.now + 1e-6)
        assert not interrupted.done
        runtime.fail_process(victim)
        runtime.run()
        assert interrupted.done  # checkpoint finished despite the loss
        # byte-complete: every payload that reached stable storage holds
        # every byte of its region; the corpse's cut stream is not in it
        entries = interrupted.value.payloads["g"]
        assert [pid for pid, _ in entries] == [0, 1, 3]
        for _pid, payload in entries:
            assert not payload.region.is_empty()
            assert payload.nbytes == grid.region_bytes(payload.region)

        runtime.wait_process(resilience.recover_lost_data(stable))
        assert owned_coverage(runtime, grid).same_elements(grid.full_region)
        assert np.all(read_all(runtime, grid) == 6.0)
        assert_clean(runtime)

    def test_loss_with_write_intent_held(self):
        """A stager's write intent spans the victim's region when it dies.

        Recovery must not deadlock on the intent, and once the intent
        clears, writes over the recovered region proceed normally.
        """
        runtime = make_runtime()
        grid = Grid((16, 16), name="g")
        runtime.register_item(grid, placement=grid.decompose(4))
        fill_distributed(runtime, grid, 1.0)
        resilience = ResilienceManager(runtime)
        snapshot = runtime.wait_process(resilience.checkpoint())

        victim = 2
        doomed = runtime.process(victim).data_manager.owned_region(grid)
        stager = object()
        runtime.register_write_intent(stager, 1, {grid: doomed})
        runtime.fail_process(victim)
        runtime.wait_process(resilience.recover_lost_data(snapshot))
        assert owned_coverage(runtime, grid).same_elements(grid.full_region)
        # the intent survived the failure and still orders younger writers
        assert runtime.write_intent_blocked(grid, doomed, None)
        runtime.clear_write_intent(stager)
        assert not runtime.write_intent_blocked(grid, doomed, None)
        fill(runtime, grid, grid.full_region, 9.0)
        assert np.all(read_all(runtime, grid) == 9.0)
        assert_clean(runtime)

    def test_storm_with_replica_in_flight(self):
        """Correlated loss of two nodes while a replica payload is in flight.

        The storm barrier only watches its victims, so the fetch on the
        survivor keeps running; recovery re-materializes the lost regions
        and the reading task completes with checkpoint-consistent values.
        """
        runtime = make_runtime(nodes=5)
        grid = Grid((20, 16), name="g")
        runtime.register_item(grid, placement=grid.decompose(5))
        fill_distributed(runtime, grid, 8.0)
        resilience = ResilienceManager(runtime)
        snapshot = runtime.wait_process(resilience.checkpoint())

        reader = 0
        local = runtime.process(reader).data_manager.owned_region(grid)
        remote = runtime.process(2).data_manager.owned_region(grid)
        manager = runtime.process(reader).data_manager
        treeture = runtime.submit(
            TaskSpec(
                name="reader",
                writes={grid: local},
                reads={grid: remote},
                body=lambda ctx: None,
                size_hint=local.size(),
            ),
            origin=reader,
        )
        run_until(runtime, lambda: bool(manager.fetching))
        recovery = runtime.engine.spawn(
            failure_storm(
                runtime, [3, 4], snapshot=snapshot, resilience=resilience
            )
        )
        runtime.wait(treeture)
        runtime.run()
        assert recovery.done
        assert runtime.metrics.counter("elastic.failures") == 2
        assert owned_coverage(runtime, grid).same_elements(grid.full_region)
        assert np.all(read_all(runtime, grid) == 8.0)
        assert_clean(runtime)


class TestStormBarrier:
    def test_storm_on_a_wedged_victim_raises_instead_of_spinning(self):
        """A victim that can never go idle: a foreign write lock holds its
        one task forever.  The storm's idle poll is then the only pending
        event; it must raise, naming the victim and what holds it, rather
        than re-arm until ``max_events`` runs out."""
        runtime = AllScaleRuntime(
            Cluster(meggie_like_spec(3)), RuntimeConfig(functional=True)
        )
        grid = Grid((6, 4), name="g")
        runtime.register_item(grid, placement=grid.decompose(3))
        victim = 1
        block = runtime.process(victim).data_manager.owned_region(grid)
        assert runtime.process(victim).locks.try_acquire(
            object(), {}, {grid: block}
        )
        runtime.submit(
            TaskSpec(name="wedged", writes={grid: block}, size_hint=1),
            origin=victim,
        )
        runtime.engine.spawn(failure_storm(runtime, [victim]))
        with pytest.raises(RuntimeError, match="never reach the barrier") as err:
            runtime.engine.run(max_events=200_000)
        assert "pid 1: 0 queued, 1 active" in str(err.value)
        assert runtime.engine.events_processed < 200_000


class TestStormHold:
    def test_victim_receiving_tasks_checkpoints_once(self):
        """A storm holds its victim: tasks keep arriving there, none
        starts after the storm begins, so one on-demand checkpoint holds
        and the victim fails within a task's time.  Its queued tasks
        never started; after recovery they run on the survivors on the
        checkpointed values, so every increment lands exactly once."""
        runtime = make_runtime()
        grid = Grid((16, 16), name="g")
        runtime.register_item(grid, placement=grid.decompose(4))
        fill_distributed(runtime, grid, 0.0)
        victim = 3
        block = runtime.process(victim).data_manager.owned_region(grid)
        (box,) = block.boxes

        def bump(ctx):
            fragment = ctx.fragment(grid)
            fragment.scatter(box, fragment.gather(box) + 1.0)

        treetures = []

        def feeder():
            # submitted at a survivor, placed at the data: the victim
            for k in range(12):
                treetures.append(
                    runtime.submit(
                        TaskSpec(
                            name=f"bump{k}",
                            writes={grid: block},
                            body=bump,
                            flops=2e5,
                            size_hint=block.size(),
                        )
                    )
                )
                yield 5e-5

        runtime.engine.spawn(feeder())
        run_until(runtime, lambda: runtime.process(victim).active > 0)
        storm = runtime.engine.spawn(failure_storm(runtime, [victim]))
        assert runtime.process(victim).held
        assert victim not in runtime.available_processes()
        runtime.run()

        assert storm.done and runtime.process(victim).failed
        assert runtime.metrics.counter("resilience.checkpoints") == 1
        assert runtime.metrics.counter("elastic.replaced_tasks") > 0
        assert len(treetures) == 12
        assert all(treeture.future.done for treeture in treetures)
        values = read_all(runtime, grid)
        inside = np.zeros(grid.shape, dtype=bool)
        inside[box.lo[0] : box.hi[0], box.lo[1] : box.hi[1]] = True
        assert np.all(values[inside] == 12.0)
        assert np.all(values[~inside] == 0.0)
        assert runtime.metrics.counter("dm.uninitialized_reads") == 0
        assert_clean(runtime)


class TestStormMidStencil:
    """A two-node storm halfway (``0.5·T``, T the unchurned run's duration)
    through a 4-node functional stencil, on-demand checkpoint."""

    @staticmethod
    def _run(n_per_node):
        workload = StencilWorkload(
            n_per_node=n_per_node, timesteps=6, functional=True
        )
        config = RuntimeConfig(functional=True, oversubscription=2)
        total = stencil_allscale(
            Cluster(meggie_like_spec(4)), workload, config
        ).extras["runtime"].now
        storm = [ChurnEvent(at=0.5 * total, kind="storm", count=2)]
        controllers = []

        def on_runtime(runtime):
            if runtime.probe.observer(RuntimeSentinel) is None:
                RuntimeSentinel(runtime, SentinelConfig(strict=True)).attach()
            controllers.append(ChurnController(runtime, storm))
            controllers[0].start()

        result = stencil_allscale(
            Cluster(meggie_like_spec(4)), workload, config, on_runtime=on_runtime
        )
        assert controllers[0].done
        return workload, result.extras["runtime"], result.extras["final_grid"]

    def test_storm_while_a_task_parcel_decodes_reroutes_it(self):
        """The storm's barrier sees queues, active tasks and transfers, not
        a task parcel being decoded at its target; a victim failed in that
        window used to raise ``dispatched to failed process``."""
        _, runtime, _ = self._run(16)
        assert runtime.metrics.counter("elastic.failures") == 2
        assert_clean(runtime)

    def test_two_node_storm_restores_every_lost_cell(self):
        """Before recovery, 34 elements of row 64 live on a survivor only
        as replicas, and nobody owns them.  They are lost, so recovery
        must restore them."""
        workload, runtime, grid = self._run(32)
        values = np.full(grid.shape, np.nan)
        for pid in runtime.alive_processes():
            manager = runtime.process(pid).data_manager
            for box in manager.owned_region(grid).boxes:
                values[box.lo[0] : box.hi[0], box.lo[1] : box.hi[1]] = (
                    manager.fragment(grid).gather(box)
                )
        assert np.allclose(values, sequential_reference(workload, 4))
        assert runtime.metrics.counter("dm.uninitialized_reads") == 0


# -- churn controller ---------------------------------------------------------------


class TestChurnController:
    def _run_schedule(self, events):
        runtime = make_runtime()
        grid = Grid((16, 16), name="g")
        runtime.register_item(grid, placement=grid.decompose(4))
        fill_distributed(runtime, grid, 1.0)
        controller = ChurnController(runtime, events)
        controller.start()
        runtime.run()
        assert controller.done
        controller.stop()
        assert_clean(runtime)
        return runtime, controller

    def test_schedule_replay_is_deterministic(self):
        events = [
            ChurnEvent(at=0.0005, kind="join"),
            ChurnEvent(at=0.001, kind="drain"),
            ChurnEvent(at=0.002, kind="storm", count=1),
        ]
        logs, times = [], []
        for _ in range(2):
            runtime, controller = self._run_schedule(list(events))
            logs.append(list(controller.log))
            times.append(runtime.now)
        assert logs[0] == logs[1]
        assert times[0] == times[1]
        kinds = [kind for _t, kind, _pid in logs[0]]
        assert kinds == ["join", "drain", "storm"]

    def test_protected_pid_never_chosen(self):
        events = [
            ChurnEvent(at=0.0005, kind="storm", count=2),
            ChurnEvent(at=0.001, kind="drain", count=2),
        ]
        runtime, controller = self._run_schedule(events)
        assert not runtime.process(0).failed
        assert all(pid != 0 for _t, _kind, pid in controller.log)
        assert 0 in runtime.alive_processes()

    def test_storm_uses_rolling_checkpoint(self):
        runtime = make_runtime()
        grid = Grid((16, 16), name="g")
        runtime.register_item(grid, placement=grid.decompose(4))
        fill_distributed(runtime, grid, 2.0)
        controller = ChurnController(
            runtime,
            [ChurnEvent(at=0.01, kind="storm", count=1)],
            checkpoint_interval=0.002,
        )
        controller.start()
        runtime.run()
        assert controller.done
        assert controller.snapshot is not None
        assert runtime.metrics.counter("resilience.checkpoints") >= 2
        assert runtime.metrics.counter("elastic.restored_bytes") > 0
        assert owned_coverage(runtime, grid).same_elements(grid.full_region)
        assert_clean(runtime)

    @staticmethod
    def _submissions_under_two_joins(run, workload, monkeypatch):
        """``(granularity, live process count)`` per root submission of an
        app run on 3 nodes with joins at 30 % and 55 % of its duration."""
        def cluster():
            return Cluster(
                ClusterSpec(num_nodes=3, cores_per_node=2, flops_per_core=1e9)
            )

        config = RuntimeConfig(functional=False, oversubscription=2)
        total = run(cluster(), workload, config).extras["runtime"].now
        seen = []
        real_submit_all = AllScaleRuntime.submit_all

        def spy(self, tasks, origins):
            seen.extend((task.granularity, self.num_processes) for task in tasks)
            return real_submit_all(self, tasks, origins)

        monkeypatch.setattr(AllScaleRuntime, "submit_all", spy)
        joins = [
            ChurnEvent(at=total * 0.30, kind="join"),
            ChurnEvent(at=total * 0.55, kind="join"),
        ]
        run(
            cluster(),
            workload,
            config,
            on_runtime=lambda rt: ChurnController(rt, joins).start(),
        )
        assert [n for _, n in seen][0] == 3 and seen[-1][1] == 5
        return seen

    def test_stencil_regrains_each_sweep_at_the_live_process_count(
        self, monkeypatch
    ):
        from repro.apps.stencil import StencilWorkload, stencil_allscale

        seen = self._submissions_under_two_joins(
            stencil_allscale,
            StencilWorkload(n_per_node=200, timesteps=4),
            monkeypatch,
        )
        interior = 598.0 * 198.0  # 3 nodes x 200 rows, minus the border
        assert seen[2:] == [
            (interior / (n * 2 * 2), n) for n in (3, 4, 5, 5)
        ]

    def test_a_drained_stencil_regrains_with_departed_processes_counted(
        self, monkeypatch
    ):
        from repro.apps.stencil import StencilWorkload, stencil_allscale

        def cluster():
            return Cluster(
                ClusterSpec(num_nodes=3, cores_per_node=2, flops_per_core=1e9)
            )

        workload = StencilWorkload(n_per_node=200, timesteps=4)
        config = RuntimeConfig(functional=False, oversubscription=2)
        total = stencil_allscale(cluster(), workload, config).extras[
            "runtime"
        ].now
        seen = []
        real_submit_all = AllScaleRuntime.submit_all

        def spy(self, tasks, origins):
            seen.extend(
                (task.granularity, self.num_processes, len(self.alive_processes()))
                for task in tasks
            )
            return real_submit_all(self, tasks, origins)

        monkeypatch.setattr(AllScaleRuntime, "submit_all", spy)
        drain = [ChurnEvent(at=total * 0.30, kind="drain")]
        stencil_allscale(
            cluster(),
            workload,
            config,
            on_runtime=lambda rt: ChurnController(rt, drain).start(),
        )
        # the last sweeps run on two live processes, grained for three
        assert seen[-1][1:] == (3, 2)
        interior = 598.0 * 198.0
        assert {g for g, _n, _alive in seen[2:]} == {interior / (3 * 2 * 2)}

    def test_ipic3d_keeps_the_granularity_it_started_with(self, monkeypatch):
        from repro.apps.ipic3d import IPic3DWorkload, ipic3d_allscale

        seen = self._submissions_under_two_joins(
            ipic3d_allscale,
            IPic3DWorkload(
                particles_per_node=1_000_000,
                cells_per_node_side=4,
                timesteps=2,
            ),
            monkeypatch,
        )
        # 12 x 4 x 4 cells over 3 processes x 2 cores x oversubscription 2
        assert {g for g, _ in seen} == {192.0 / (3 * 2 * 2)}
        assert {n for _, n in seen} == {3, 4, 5}


# -- capacity-change-safe accessors (static-count assumption audit) -----------------


class TestCapacityChangeSafety:
    def test_cluster_add_node_heterogeneous(self):
        cluster = Cluster(
            ClusterSpec(num_nodes=3, cores_per_node=2, flops_per_core=1e9)
        )
        node_id = cluster.add_node(cores=8, flops_per_core=3e9, gpus=0)
        assert node_id == 3
        assert cluster.num_nodes == 4  # live list, not the frozen spec
        assert cluster.node(3).num_cores == 8
        assert cluster.topology.num_nodes == 4
        # the new node has a NIC pair: a send involving it prices finitely
        estimate = cluster.network.transfer_time_estimate(0, 3, 1024)
        assert 0 < estimate < float("inf")

    def test_network_rejects_topology_shrink(self):
        cluster = Cluster(
            ClusterSpec(num_nodes=4, cores_per_node=2, flops_per_core=1e9)
        )
        with pytest.raises(ValueError, match="shrank"):
            cluster.network.attach_node(
                FatTreeTopology(2, cluster.spec.switch_radix)
            )

    def test_index_grow_preserves_covers_and_caches(self):
        runtime = make_runtime(nodes=4, strict_sentinel=False)
        grid = Grid((16, 16), name="g")
        runtime.register_item(grid, placement=grid.decompose(4))
        index = runtime.index
        root_before = index.covered(grid, index.levels, 0)
        owned_before = [index.owned_region(grid, pid) for pid in range(4)]
        index.grow(6)
        assert index.num_processes == 6
        # every old leaf kept its cover; the new root covers what the old did
        for pid in range(4):
            assert index.owned_region(grid, pid).same_elements(
                owned_before[pid]
            )
        assert index.covered(grid, index.levels, 0).same_elements(root_before)
        with pytest.raises(ValueError, match="shrink"):
            index.grow(3)

    def test_add_process_refreshes_home_maps_and_balancer(self):
        runtime = make_runtime(strict_sentinel=False)
        grid = Grid((16, 16), name="g")
        runtime.register_item(grid, placement=grid.decompose(4))
        assert len(runtime.home_map(grid)) == 4
        pid = runtime.add_process()
        assert pid == 4
        assert len(runtime.home_map(grid)) == 5
        if runtime.balancer is not None:
            assert len(runtime.balancer.measured_load()) == 5

    def test_balancer_on_capacity_change_extends_sample_vector(self):
        cluster = Cluster(
            ClusterSpec(num_nodes=4, cores_per_node=2, flops_per_core=1e9)
        )
        runtime = AllScaleRuntime(
            cluster, RuntimeConfig(functional=True, load_balancing=True)
        )
        balancer = runtime.balancer
        assert balancer is not None
        assert len(balancer._last_busy) == 4
        runtime.add_process()
        assert len(balancer._last_busy) == 5
        assert len(balancer.measured_load()) == 5

    def test_service_quotas_rescale_on_capacity_change(self):
        from repro.service.core import ServiceConfig, ServiceCore, TenantConfig

        config = ServiceConfig(
            nodes=4,
            cores_per_node=2,
            tenants=[
                TenantConfig(name="a", max_node_seconds=100.0),
                TenantConfig(name="b", max_node_seconds=None),
            ],
        )
        core = ServiceCore(config)
        before = core.ledgers["a"].config.max_node_seconds
        core.add_node(cores=2)
        after = core.ledgers["a"].config.max_node_seconds
        assert after == pytest.approx(before * 10 / 8)
        assert core.ledgers["b"].config.max_node_seconds is None
        # rescaling is computed from the *configured* cap: repeating the
        # notification at unchanged capacity is idempotent
        core.on_capacity_change()
        assert core.ledgers["a"].config.max_node_seconds == pytest.approx(
            after
        )
        assert core.metrics.counter("service.capacity_changes") == 2


# -- randomized churn sweep ---------------------------------------------------------


def churn_schedules():
    event = st.builds(
        ChurnEvent,
        at=st.floats(min_value=0.0, max_value=0.004, allow_nan=False),
        kind=st.sampled_from(["join", "drain", "storm"]),
        count=st.integers(min_value=1, max_value=2),
    )
    return st.lists(event, min_size=1, max_size=3)


class TestChurnHypothesis:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(events=churn_schedules(), rounds=st.integers(1, 3))
    # regressions shrunk from development runs of this sweep:
    # a storm before any checkpoint exists exercises checkpoint-on-demand
    @example(events=[ChurnEvent(at=0.0, kind="storm", count=2)], rounds=1)
    # drain immediately followed by a storm — the storm's victim set must
    # re-resolve after the drain shrank the membership
    @example(
        events=[
            ChurnEvent(at=0.0, kind="drain"),
            ChurnEvent(at=0.0001, kind="storm", count=2),
        ],
        rounds=2,
    )
    # join then immediate storm: the newcomer is the storm's first victim
    # while its seed migration may still be landing
    @example(
        events=[
            ChurnEvent(at=0.0, kind="join"),
            ChurnEvent(at=0.00005, kind="storm", count=1),
        ],
        rounds=1,
    )
    # everyone drains at once (count exceeds the unprotected pool)
    @example(events=[ChurnEvent(at=0.0, kind="drain", count=4)], rounds=1)
    # shrunk by hypothesis: back-to-back storms while a full-grid write
    # stages — recovery must treat regions in flight to a live owner as
    # present, not lost (restoring them would double-own)
    @example(
        events=[
            ChurnEvent(at=0.0, kind="storm", count=1),
            ChurnEvent(at=0.0, kind="storm", count=1),
        ],
        rounds=1,
    )
    def test_randomized_churn_keeps_invariants(self, events, rounds):
        runtime = make_runtime()
        grid = Grid((16, 16), name="g")
        runtime.register_item(grid, placement=grid.decompose(4))

        def writer(k):
            def body(ctx):
                for box in grid.full_region.boxes:
                    ctx.fragment(grid).scatter(
                        box, np.full(box.widths(), float(k))
                    )

            return TaskSpec(
                name=f"sweep{k}",
                writes={grid: grid.full_region},
                body=body,
                flops=1e5,
                size_hint=grid.full_region.size(),
            )

        def app():
            for k in range(rounds):
                treeture = runtime.submit(writer(k), origin=0)
                yield treeture.future

        controller = ChurnController(runtime, events)
        controller.start()
        driver = runtime.engine.spawn(app())
        runtime.run()
        assert driver.done, "application hung under churn"
        assert controller.done, "churn schedule never completed"
        controller.stop()
        runtime.run()
        # strict sentinel would have raised at the violation site; the
        # closing sweep re-verifies everything end-to-end
        assert_clean(runtime)
        assert owned_coverage(runtime, grid).same_elements(grid.full_region)
        # the final sweep's values survived every membership change
        assert np.all(read_all(runtime, grid) == float(rounds - 1))
