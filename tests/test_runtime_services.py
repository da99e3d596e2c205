"""Tests for the model-enabled services: monitoring, resilience, balancing."""

import numpy as np
import pytest

from repro.items.grid import Grid
from repro.regions.box import Box
from repro.regions.interval import IntervalRegion
from repro.runtime.balancer import LoadBalancer, take_slice
from repro.runtime.config import RuntimeConfig
from repro.runtime import monitoring
from repro.runtime.resilience import ResilienceManager
from repro.runtime.runtime import AllScaleRuntime
from repro.runtime.tasks import TaskSpec
from repro.sim.cluster import Cluster, ClusterSpec


def make_runtime(nodes=2, cores=2, functional=True, **cfg):
    cluster = Cluster(
        ClusterSpec(num_nodes=nodes, cores_per_node=cores, flops_per_core=1e9)
    )
    return AllScaleRuntime(cluster, RuntimeConfig(functional=functional, **cfg))


class TestMonitoring:
    def test_report_contents(self):
        runtime = make_runtime(nodes=2)
        grid = Grid((8, 8), name="g")
        runtime.register_item(grid, placement=grid.decompose(2))
        task = TaskSpec(
            name="r",
            reads={grid: grid.full_region},
            body=lambda ctx: None,
            size_hint=64,
        )
        runtime.wait(runtime.submit(task))
        report = monitoring.report(runtime)
        assert report.total_leaves == 1
        assert report.total_messages > 0
        assert report.replications >= 1
        assert len(report.processes) == 2
        owned = sum(p.owned_bytes for p in report.processes)
        assert owned == 64 * 8
        assert any(p.replica_bytes > 0 for p in report.processes)
        assert report.load_imbalance() >= 1.0
        assert any("leaf tasks" in line for line in report.summary_lines())


class TestResilience:
    def fill_grid(self, runtime, grid, value):
        def body(ctx):
            ctx.fragment(grid).scatter(
                Box.of((0, 0), grid.shape), np.full(grid.shape, value)
            )

        runtime.wait(
            runtime.submit(
                TaskSpec(
                    name="fill",
                    writes={grid: grid.full_region},
                    body=body,
                    size_hint=grid.full_region.size(),
                )
            )
        )

    def read_grid(self, runtime, grid):
        def body(ctx):
            return ctx.fragment(grid).gather(Box.of((0, 0), grid.shape)).copy()

        return runtime.wait(
            runtime.submit(
                TaskSpec(
                    name="read",
                    reads={grid: grid.full_region},
                    body=body,
                    size_hint=grid.full_region.size(),
                )
            )
        )

    def test_checkpoint_restore_roundtrip(self):
        runtime = make_runtime(nodes=2)
        grid = Grid((6, 6), name="g")
        runtime.register_item(grid, placement=grid.decompose(2))
        self.fill_grid(runtime, grid, 3.0)
        manager = ResilienceManager(runtime)
        snapshot_future = runtime.engine.spawn(manager.checkpoint())
        runtime.run()
        snapshot = snapshot_future.value
        assert snapshot.total_bytes() == 36 * 8

        # restore into a fresh runtime with a different process count
        runtime2 = make_runtime(nodes=3)
        grid2 = Grid((6, 6), name="g")
        runtime2.register_item(grid2)
        # rename mapping: restore matches by item name
        manager2 = ResilienceManager(runtime2)
        done = runtime2.engine.spawn(manager2.restore(snapshot))
        runtime2.run()
        assert done.done
        runtime2.check_ownership_invariants()
        values = self.read_grid(runtime2, grid2)
        assert np.all(values == 3.0)

    def test_restore_lands_each_piece_at_its_current_owner(self):
        runtime = make_runtime(nodes=2)
        grid = Grid((6, 6), name="g")
        runtime.register_item(grid)
        self.fill_grid(runtime, grid, 5.0)  # consolidated at one process
        snapshot = runtime.wait_process(ResilienceManager(runtime).checkpoint())
        assert len(snapshot.payloads["g"]) == 1

        fresh = make_runtime(nodes=3)
        fresh_grid = Grid((6, 6), name="g")
        fresh.register_item(fresh_grid)  # born at its three homes
        fresh.wait_process(ResilienceManager(fresh).restore(snapshot))
        for pid, home in enumerate(fresh.home_map(fresh_grid)):
            owned = fresh.process(pid).data_manager.owned_region(fresh_grid)
            assert owned.same_elements(home)
        fresh.check_ownership_invariants()
        assert np.all(self.read_grid(fresh, fresh_grid) == 5.0)

    def test_restore_unknown_item_rejected(self):
        runtime = make_runtime(nodes=1)
        grid = Grid((4, 4), name="g")
        runtime.register_item(grid, placement=[grid.full_region])
        manager = ResilienceManager(runtime)
        snapshot_future = runtime.engine.spawn(manager.checkpoint())
        runtime.run()
        other = make_runtime(nodes=1)
        with pytest.raises(KeyError):
            gen = ResilienceManager(other).restore(snapshot_future.value)
            other.engine.spawn(gen)
            other.run()

    def test_checkpoint_is_nondestructive(self):
        runtime = make_runtime(nodes=2)
        grid = Grid((6, 6), name="g")
        runtime.register_item(grid, placement=grid.decompose(2))
        self.fill_grid(runtime, grid, 7.0)
        manager = ResilienceManager(runtime)
        runtime.engine.spawn(manager.checkpoint())
        runtime.run()
        values = self.read_grid(runtime, grid)
        assert np.all(values == 7.0)
        runtime.check_ownership_invariants()


class TestTakeSlice:
    def test_box_slice(self):
        grid = Grid((16, 8))
        region = grid.full_region
        piece = take_slice(region, 0.25)
        assert piece is not None
        assert 0 < piece.size() < region.size()
        assert region.covers(piece)

    def test_interval_slice(self):
        region = IntervalRegion.span(0, 100)
        piece = take_slice(region, 0.25)
        assert piece is not None
        assert 0 < piece.size() < 100

    def test_unsliceable_returns_none(self):
        from repro.regions.tree import TreeGeometry, TreeRegion

        region = TreeRegion.full(TreeGeometry(3))
        assert take_slice(region, 0.5) is None
        assert take_slice(IntervalRegion.span(0, 1), 0.5) is None

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            take_slice(IntervalRegion.span(0, 10), 1.5)


def load_owner(runtime, balancer, grid, flops):
    """Register ``grid`` wholly at process 0 and book twelve writers of
    ``flops`` each there, six of them after a baseline load sample."""
    runtime.register_item(
        grid, placement=[grid.full_region]
        + [grid.empty_region()] * (runtime.num_processes - 1)
    )
    for k in range(12):
        if k == 6:
            balancer.measured_load()  # baseline sample
        runtime.wait(
            runtime.submit(
                TaskSpec(
                    name=f"w{k}",
                    writes={grid: grid.full_region},
                    flops=flops,
                    size_hint=256,
                )
            )
        )


class TestLoadBalancer:
    def test_rebalance_moves_data_from_busy_to_idle(self):
        runtime = make_runtime(nodes=2, cores=1, functional=False)
        grid = Grid((32, 8), name="g")
        # everything starts at process 0 — maximal imbalance
        balancer = LoadBalancer(
            runtime, imbalance_threshold=1.2, slice_fraction=0.5
        )
        # milliseconds of work against a microsecond-priced 1 KB slice
        load_owner(runtime, balancer, grid, flops=1e6)
        done = runtime.engine.spawn(balancer.rebalance_once())
        runtime.run()
        assert done.value is True
        assert balancer.rebalances == 1
        assert runtime.metrics.counter("balancer.declined") == 0
        moved = runtime.process(1).data_manager.owned_region(grid)
        assert not moved.is_empty()
        runtime.check_ownership_invariants()
        # subsequent tasks writing the moved slice follow the data
        task = TaskSpec(
            name="follow", writes={grid: moved}, flops=1e3,
            size_hint=moved.size(),
        )
        runtime.wait(runtime.submit(task))
        assert runtime.process(1).executed_leaves == 1

    def test_round_that_does_not_pay_is_declined(self):
        runtime = make_runtime(nodes=2, cores=1, functional=False)
        grid = Grid((512, 512), name="g")
        balancer = LoadBalancer(
            runtime, imbalance_threshold=1.2, slice_fraction=0.5
        )
        # microseconds of work against a 1 MB slice: shipping it costs
        # more than the slice sheds in a window
        load_owner(runtime, balancer, grid, flops=1e3)
        net_bytes = runtime.metrics.counter("net.bytes")
        done = runtime.engine.spawn(balancer.rebalance_once())
        runtime.run()
        assert done.value is False
        assert balancer.rebalances == 0
        assert runtime.metrics.counter("balancer.declined") == 1
        assert runtime.metrics.counter("balancer.migrations") == 0
        assert runtime.metrics.counter("net.bytes") == net_bytes
        assert runtime.process(1).data_manager.owned_region(grid).is_empty()

    def test_one_task_spanning_many_windows_migrates_nothing(self):
        """The load signal is work performed, not work booked: a long task
        counts in every window it runs in, so steady work on every node
        shows no imbalance.  (Booked, pid 0's 38 s landed whole in the
        first 1 s window and its data migrated.)"""
        runtime = make_runtime(nodes=4, cores=1, functional=False)
        grid = Grid((64,), name="g")
        blocks = grid.decompose(4)
        runtime.register_item(grid, placement=blocks)
        balancer = LoadBalancer(runtime, interval=1.0)
        balancer.start()
        # pid 0 runs one 38 s task, the others forty 1 s tasks each
        work = [TaskSpec(name="long", writes={grid: blocks[0]}, flops=38e9)] + [
            TaskSpec(name=f"w{pid}.{k}", writes={grid: blocks[pid]}, flops=1e9)
            for pid in (1, 2, 3)
            for k in range(40)
        ]
        treetures = [runtime.submit(task) for task in work]
        for treeture in treetures:
            runtime.wait(treeture)
        balancer.stop()
        assert runtime.now > 40.0  # about forty windows
        assert [p.executed_leaves for p in runtime.processes] == [1, 40, 40, 40]
        assert balancer.rebalances == 0
        assert runtime.metrics.counter("balancer.migrations") == 0

    def test_a_static_blocks_imbalance_still_migrates(self):
        # Ablation E: the top quarter of the grid costs 7x per element
        from repro.bench.ablations import run_balancer

        rows = run_balancer("smoke")
        balanced, static = rows["with balancer"], rows["static blocks"]
        assert balanced["rebalances"] > 0
        assert balanced["elapsed_ms"] < 0.95 * static["elapsed_ms"]

    def test_move_to_a_joined_process_is_priced(self):
        runtime = make_runtime(
            nodes=1, cores=1, functional=False, load_balancing=True
        )
        joined = runtime.add_process()
        grid = Grid((32, 8), name="g")
        balancer = runtime.balancer
        load_owner(runtime, balancer, grid, flops=1e6)
        assert balancer.cost.transfer_seconds(1.0, 0, joined) > 0.0
        done = runtime.engine.spawn(balancer.rebalance_once())
        runtime.run()
        assert done.value is True
        moved = runtime.process(joined).data_manager.owned_region(grid)
        assert not moved.is_empty()

    def test_no_rebalance_when_even(self):
        runtime = make_runtime(nodes=2, functional=False)
        balancer = LoadBalancer(runtime)
        done = runtime.engine.spawn(balancer.rebalance_once())
        runtime.run()
        assert done.value is False

    def test_periodic_loop_start_stop(self):
        runtime = make_runtime(nodes=2, functional=False)
        balancer = LoadBalancer(runtime, interval=0.01)
        balancer.start()
        balancer.start()  # idempotent
        runtime.run(until=0.05)
        balancer.stop()
        runtime.run(until=0.2)
        assert not balancer._running

    @staticmethod
    def _counted_rounds(runtime, balancer):
        rounds = []
        rebalance_once = balancer.rebalance_once

        def counted():
            rounds.append(runtime.now)
            return rebalance_once()

        balancer.rebalance_once = counted
        return rounds

    def test_stop_ends_the_loop_before_its_next_round(self):
        runtime = make_runtime(nodes=2, functional=False)
        balancer = LoadBalancer(runtime, interval=0.01)
        rounds = self._counted_rounds(runtime, balancer)
        balancer.start()
        runtime.run(until=0.035)
        balancer.stop()
        runtime.run(until=0.2)
        # rounds at 0.01, 0.02, 0.03 only: none after stop() — a round
        # there can migrate data after a program's last barrier
        assert len(rounds) == 3

    def test_restart_within_one_interval_leaves_one_loop(self):
        runtime = make_runtime(nodes=2, functional=False)
        balancer = LoadBalancer(runtime, interval=0.01)
        rounds = self._counted_rounds(runtime, balancer)
        balancer.start()
        runtime.run(until=0.015)
        balancer.stop()
        balancer.start()
        runtime.run(until=0.1)
        balancer.stop()
        gaps = [later - earlier for earlier, later in zip(rounds, rounds[1:])]
        assert len(rounds) >= 5
        assert min(gaps) > 0.01 - 1e-9

    def test_validation(self):
        runtime = make_runtime(nodes=2)
        with pytest.raises(ValueError):
            LoadBalancer(runtime, interval=0)
        with pytest.raises(ValueError):
            LoadBalancer(runtime, imbalance_threshold=1.0)
