"""One redistribution path: every change kind's planner returns moves, and
one executor (``DataItemManager.migrate_in`` / ``claim_stored``) runs them.

The parametrised test drives each of the six callers — a staging pull,
``scale_out``, ``drain``, a forced ``rebalance_once``, storm recovery and
``restore`` — under a probe subscriber that audits every ownership
update: each gain must come from the executor's handover (or from a first
touch), and from the moment an item is wholly owned, no element of it may
be owned by no live process at any update, apart from the export half of
a handover whose other half follows with no event in between.
"""

import sys

import numpy as np
import pytest

from repro.items.grid import Grid
from repro.regions.box import Box
from repro.runtime.balancer import LoadBalancer
from repro.runtime.config import RuntimeConfig
from repro.runtime.data_manager import (
    DataItemManager,
    Move,
    StagingError,
    run_stored_moves,
)
from repro.runtime.elastic import drain, failure_storm, scale_out
from repro.runtime.resilience import ResilienceManager, lost_region
from repro.runtime.runtime import AllScaleRuntime
from repro.runtime.tasks import TaskSpec
from repro.sim.cluster import Cluster, ClusterSpec

HANDOVER = DataItemManager._own.__code__
FIRST_TOUCH = DataItemManager.allocate.__code__


def make_runtime(nodes=4):
    cluster = Cluster(
        ClusterSpec(num_nodes=nodes, cores_per_node=2, flops_per_core=1e9)
    )
    return AllScaleRuntime(cluster, RuntimeConfig(functional=True))


def write(runtime, grid, region, value, origin=0, flops=0.0):
    def body(ctx):
        for box in region.boxes:
            ctx.fragment(grid).scatter(box, np.full(box.widths(), value))

    runtime.wait(runtime.submit(
        TaskSpec(
            name=f"w{value}",
            writes={grid: region},
            body=body,
            flops=flops,
            size_hint=region.size(),
        ),
        origin=origin,
    ))


def read_all(runtime, grid):
    def body(ctx):
        return ctx.fragment(grid).gather(Box.full(grid.shape)).copy()

    return runtime.wait(runtime.submit(TaskSpec(
        name="readback", reads={grid: grid.full_region}, body=body,
        size_hint=1,
    )))


def distributed_grids(runtime, value=1.0):
    """Two co-located grids, each owner's block written from its owner."""
    grids = [Grid((16, 16), name=name) for name in ("a", "b")]
    for grid in grids:
        runtime.register_item(grid, placement=grid.decompose(4))
        for pid in range(4):
            block = runtime.process(pid).data_manager.owned_region(grid)
            write(runtime, grid, block, value, origin=pid)
    return grids


class MoveAudit:
    """Probe subscriber auditing every ownership update (see module doc)."""

    def __init__(self, runtime):
        self.runtime = runtime
        self.leaves = {
            (item, process.pid): process.data_manager.owned_region(item)
            for item in runtime.items
            for process in runtime.processes
        }
        self.whole = {
            item for item in runtime.items
            if lost_region(runtime, item, item.full_region).is_empty()
        }
        self.gains = []  # code object of the step that made each gain
        self.handover = None  # (item, exported region, engine step)
        self.problems = []
        runtime.probe.attach(self)

    def on_ownership_update(self, item, pid, region):
        runtime = self.runtime
        old = self.leaves.get((item, pid), item.empty_region())
        self.leaves[item, pid] = region
        step = (runtime.engine.events_processed, runtime.now)
        gained = region.difference(old)
        if not gained.is_empty():
            self.gains.append(self._gained_by())
        if runtime.process(pid).failed:
            self.whole.discard(item)  # a failure; recovery re-claims it
            return
        lost = lost_region(runtime, item, item.full_region)
        if self.handover is not None:
            h_item, exported, h_step = self.handover
            if not (h_item is item and h_step == step
                    and gained.covers(exported)):
                self.problems.append(f"{item.name}: export not handed over")
            self.handover = None
        if item not in self.whole:
            if lost.is_empty():
                self.whole.add(item)
        elif not lost.is_empty():
            if old.difference(region).same_elements(lost):
                self.handover = (item, lost, step)
            else:
                self.problems.append(
                    f"{item.name}: {lost.size()} elements owned by no one"
                )

    @staticmethod
    def _gained_by():
        frame = sys._getframe(2)
        while frame is not None:
            if frame.f_code in (HANDOVER, FIRST_TOUCH):
                return frame.f_code
            frame = frame.f_back
        return None


# each change kind: set up on a runtime, then return the runtime to audit
# and the action that makes the change


def staging_pull(runtime, grids, monkeypatch):
    # one writer of the whole grid pulls every other owner's block
    return runtime, lambda: write(runtime, grids[0], grids[0].full_region, 2.0)


def join(runtime, grids, monkeypatch):
    return runtime, lambda: runtime.wait_process(scale_out(runtime))


def leave(runtime, grids, monkeypatch):
    return runtime, lambda: runtime.wait_process(drain(runtime, 3))


def balance(runtime, grids, monkeypatch):
    monkeypatch.setattr(LoadBalancer, "migration_pays", lambda *_: True)
    balancer = LoadBalancer(
        runtime, imbalance_threshold=1.2, slice_fraction=0.5
    )
    balancer.measured_load()
    block = runtime.process(0).data_manager.owned_region(grids[0])
    write(runtime, grids[0], block, 1.0, origin=0, flops=1e6)

    def act():
        assert runtime.wait_process(balancer.rebalance_once()) is True
        assert runtime.metrics.counter("balancer.migrations") == 2

    return runtime, act


def storm(runtime, grids, monkeypatch):
    snapshot = runtime.wait_process(ResilienceManager(runtime).checkpoint())
    return runtime, lambda: runtime.wait_process(
        failure_storm(runtime, [3], snapshot=snapshot)
    )


def restore(runtime, grids, monkeypatch):
    snapshot = runtime.wait_process(ResilienceManager(runtime).checkpoint())
    fresh = make_runtime()
    for grid in grids:
        # owned by no one: every payload is a gain (restoring onto items
        # born at their homes is tested in test_runtime_services.py)
        fresh.register_item(
            Grid(grid.shape, name=grid.name),
            placement=[grid.empty_region()] * fresh.num_processes,
        )
    return fresh, lambda: fresh.wait_process(
        ResilienceManager(fresh).restore(snapshot)
    )


@pytest.mark.parametrize(
    "change", [staging_pull, join, leave, balance, storm, restore],
    ids=lambda change: change.__name__,
)
def test_every_change_kind_moves_through_the_one_executor(
    change, monkeypatch
):
    source = make_runtime()
    runtime, act = change(source, distributed_grids(source), monkeypatch)
    audit = MoveAudit(runtime)
    act()
    assert audit.problems == []
    assert audit.handover is None
    assert HANDOVER in audit.gains
    assert all(via is not None for via in audit.gains)
    for grid in runtime.items:
        assert grid in audit.whole
        expected = 2.0 if change is staging_pull and grid.name == "a" else 1.0
        assert np.all(read_all(runtime, grid) == expected)
    runtime.check_ownership_invariants()


class TestMovesToDepartedProcesses:
    def test_payloads_of_a_departed_process_fold_onto_the_live_ones(self):
        runtime = make_runtime()
        grid = Grid((16, 16), name="g")
        runtime.register_item(grid, placement=grid.decompose(4))
        for pid in range(4):
            block = runtime.process(pid).data_manager.owned_region(grid)
            write(runtime, grid, block, float(pid + 1), origin=pid)
        expected = read_all(runtime, grid)
        snapshot = runtime.wait_process(ResilienceManager(runtime).checkpoint())

        fresh = make_runtime()
        fresh_grid = Grid((16, 16), name="g")
        fresh.register_item(fresh_grid)
        fresh.wait_process(drain(fresh, 3))
        fresh.wait_process(ResilienceManager(fresh).restore(snapshot))
        assert fresh.process(3).data_manager.owned_region(fresh_grid).is_empty()
        assert fresh.metrics.counter("dm.dead_letter_payloads") == 0
        assert np.array_equal(read_all(fresh, fresh_grid), expected)
        fresh.check_ownership_invariants()

    def test_a_move_to_a_departed_process_is_refused(self):
        runtime = make_runtime()
        grid = Grid((16, 16), name="g")
        runtime.register_item(grid, placement=grid.decompose(4))
        snapshot = runtime.wait_process(ResilienceManager(runtime).checkpoint())
        runtime.wait_process(drain(runtime, 3))
        _pid, payload = snapshot.payloads["g"][0]
        moves = [Move(grid, payload.region, payload, 3)]
        with pytest.raises(StagingError) as refused:
            runtime.wait_process(run_stored_moves(runtime, moves))
        assert refused.value.item is grid
        assert refused.value.region is payload.region
        assert refused.value.pid == 3
        assert "'g'" in str(refused.value) and "process 3" in str(refused.value)

    def test_a_live_move_whose_destination_fails_meanwhile_is_refused(self):
        runtime = make_runtime()
        grid = Grid((16, 16), name="g")
        runtime.register_item(grid, placement=grid.decompose(4))
        src, dst = 1, 3
        block = runtime.process(src).data_manager.owned_region(grid)
        # a long task at the source holds the guard shut
        runtime.submit(
            TaskSpec(name="long", writes={grid: block}, flops=1e8,
                     size_hint=block.size()),
            origin=src,
        )
        while not runtime.process(src).locks.any_locked(grid, block):
            assert runtime.engine.run(max_events=1)
        manager = runtime.process(dst).data_manager
        runtime.engine.spawn(manager.migrate_in(grid, block, src))
        runtime.engine.run(until=runtime.now + 0.01)
        runtime.fail_process(dst)
        with pytest.raises(StagingError) as refused:
            runtime.run()
        assert refused.value.pid == dst
        assert refused.value.region.same_elements(block)
        # the source keeps the bytes; only the failed process's share is lost
        kept = runtime.process(src).data_manager.owned_region(grid)
        assert kept.same_elements(block)
        lost = lost_region(runtime, grid, grid.full_region)
        assert lost.size() == block.size()
        assert not lost.overlaps(block)

    def test_a_storm_waits_for_a_move_towards_its_victim(self):
        # the same move, but the destination is a storm victim: the
        # storm's barrier waits until the move has handed over, so the
        # victim's whole share is lost together and recovered
        runtime = make_runtime()
        grid = Grid((16, 16), name="g")
        runtime.register_item(grid, placement=grid.decompose(4))
        src, dst = 1, 3
        block = runtime.process(src).data_manager.owned_region(grid)
        runtime.submit(
            TaskSpec(name="long", writes={grid: block}, flops=1e8,
                     size_hint=block.size()),
            origin=src,
        )
        while not runtime.process(src).locks.any_locked(grid, block):
            assert runtime.engine.run(max_events=1)
        manager = runtime.process(dst).data_manager
        runtime.engine.spawn(manager.migrate_in(grid, block, src))
        runtime.engine.run(until=runtime.now + 0.01)
        assert manager.incoming_moves == 1
        runtime.wait_process(failure_storm(runtime, [dst]))
        runtime.run()
        assert runtime.process(dst).failed
        assert manager.incoming_moves == 0
        assert lost_region(runtime, grid, grid.full_region).is_empty()
        runtime.check_ownership_invariants()

    def test_a_drain_waits_for_a_move_towards_its_process(self):
        # the same move towards a draining process: the drain's barrier
        # waits until the move has handed over and landed, then evacuates
        # the block with the rest of the process's share
        runtime = make_runtime()
        grid = Grid((16, 16), name="g")
        runtime.register_item(grid, placement=grid.decompose(4))
        src, dst = 1, 3
        block = runtime.process(src).data_manager.owned_region(grid)
        runtime.submit(
            TaskSpec(name="long", writes={grid: block}, flops=1e8,
                     size_hint=block.size()),
            origin=src,
        )
        while not runtime.process(src).locks.any_locked(grid, block):
            assert runtime.engine.run(max_events=1)
        manager = runtime.process(dst).data_manager
        moved = runtime.engine.spawn(manager.migrate_in(grid, block, src))
        runtime.engine.run(until=runtime.now + 0.01)
        assert manager.incoming_moves == 1
        runtime.wait_process(drain(runtime, dst))
        runtime.run()
        assert moved.value == grid.region_bytes(block)
        assert runtime.process(dst).failed
        assert manager.incoming_moves == 0
        assert runtime.metrics.counter("dm.dead_letter_payloads") == 0
        assert lost_region(runtime, grid, grid.full_region).is_empty()
        runtime.check_ownership_invariants()

    def test_a_drain_waits_for_a_move_that_starts_while_it_evacuates(self):
        # the move towards the draining process starts after the drain's
        # first settle, while its own share moves out: the drain settles
        # again before it departs, so it receives the block and evacuates
        # it in a second round
        runtime = make_runtime()
        grid = Grid((16, 16), name="g")
        runtime.register_item(grid, placement=grid.decompose(4))
        src, dst = 1, 3
        block = runtime.process(src).data_manager.owned_region(grid)
        runtime.submit(
            TaskSpec(name="long", writes={grid: block}, flops=1e8,
                     size_hint=block.size()),
            origin=src,
        )
        while not runtime.process(src).locks.any_locked(grid, block):
            assert runtime.engine.run(max_events=1)
        manager = runtime.process(dst).data_manager
        drained = runtime.engine.spawn(drain(runtime, dst))
        moved = runtime.engine.spawn(manager.migrate_in(grid, block, src))
        runtime.run()
        assert drained.done and drained.value == 2 * grid.region_bytes(block)
        assert moved.value == grid.region_bytes(block)
        assert runtime.process(dst).failed
        assert runtime.metrics.counter("dm.dead_letter_payloads") == 0
        assert lost_region(runtime, grid, grid.full_region).is_empty()
        runtime.check_ownership_invariants()
