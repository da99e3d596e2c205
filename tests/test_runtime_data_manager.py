"""Integration tests for the data item manager and the runtime façade."""

import numpy as np
import pytest

from repro.items.grid import Grid
from repro.regions.box import Box
from repro.runtime.config import RuntimeConfig
from repro.runtime.runtime import AllScaleRuntime
from repro.runtime.tasks import TaskSpec
from repro.sim.cluster import Cluster, ClusterSpec


def make_runtime(nodes=4, cores=2, functional=True):
    cluster = Cluster(
        ClusterSpec(num_nodes=nodes, cores_per_node=cores, flops_per_core=1e9)
    )
    return AllScaleRuntime(cluster, RuntimeConfig(functional=functional))


class TestAllocation:
    def test_first_touch_allocates_and_indexes(self):
        runtime = make_runtime(nodes=2)
        grid = Grid((8, 8), name="g")
        runtime.register_item(grid, placement=[grid.empty_region()] * 2)
        manager = runtime.process(1).data_manager
        region = grid.box((0, 0), (4, 8))
        manager.allocate(grid, region)
        assert manager.owned_region(grid).same_elements(region)
        assert runtime.index.owned_region(grid, 1).same_elements(region)
        assert runtime.process(1).node.memory_used == region.size() * 8
        runtime.check_ownership_invariants()

    def test_registration_with_placement(self):
        runtime = make_runtime(nodes=4)
        grid = Grid((16, 16), name="g")
        placement = grid.decompose(4)
        runtime.register_item(grid, placement=placement)
        runtime.check_ownership_invariants()
        for pid in range(4):
            owned = runtime.process(pid).data_manager.owned_region(grid)
            assert owned.same_elements(placement[pid])

    def test_double_registration_rejected(self):
        runtime = make_runtime()
        grid = Grid((4, 4))
        runtime.register_item(grid)
        with pytest.raises(ValueError):
            runtime.register_item(grid)

    def test_bad_placement_length(self):
        runtime = make_runtime(nodes=2)
        grid = Grid((4, 4))
        with pytest.raises(ValueError):
            runtime.register_item(grid, placement=[grid.full_region])


class TestOwnershipHome:
    """Ownership is stored once: a process's owned map is its index leaf."""

    def test_owned_region_reads_the_index_leaf(self):
        runtime = make_runtime(nodes=2)
        grid = Grid((8, 8), name="g")
        runtime.register_item(grid, placement=grid.decompose(2))
        manager = runtime.process(1).data_manager
        original = runtime.index.owned_region(grid, 1)
        # ends where it started, so a REPRO_SENTINEL teardown scan is clean
        for edited in (grid.box((0, 0), (2, 2)), grid.empty_region(), original):
            runtime.index.update_ownership(grid, 1, edited)
            assert manager.owned_region(grid).same_elements(edited)
            assert manager.owned_region(grid).same_elements(
                runtime.index.owned_region(grid, 1)
            )

    def test_owned_region_read_is_unannounced(self):
        """The manager reading its own leaf is no ``table_read``: the
        happens-before monitor's event stream stays what it was."""
        runtime = make_runtime(nodes=2)
        grid = Grid((8, 8), name="g")
        runtime.register_item(grid, placement=grid.decompose(2))
        reads = []

        class Recorder:
            def on_table_read(self, key, region):
                reads.append(key)

        runtime.probe.attach(Recorder())
        assert not runtime.process(0).data_manager.owned_region(grid).is_empty()
        assert reads == []
        runtime.index.owned_region(grid, 0)
        assert reads == [("own", "g")]


class TestMigrationAndReplication:
    def run_task(self, runtime, task):
        return runtime.wait(runtime.submit(task))

    def test_write_migrates_ownership(self):
        runtime = make_runtime(nodes=2)
        grid = Grid((8, 8), name="g")
        runtime.register_item(grid, placement=grid.decompose(2))

        def body(ctx):
            ctx.fragment(grid).scatter(
                Box.of((0, 0), (8, 8)), np.ones((8, 8))
            )

        # whole-grid write must consolidate ownership at one process
        task = TaskSpec(
            name="w", writes={grid: grid.full_region}, body=body, size_hint=64
        )
        self.run_task(runtime, task)
        runtime.check_ownership_invariants()
        owners = [
            pid
            for pid in range(2)
            if not runtime.process(pid).data_manager.owned_region(grid).is_empty()
        ]
        assert len(owners) == 1
        assert runtime.metrics.counter("dm.migrations") >= 1

    def test_read_replicates_without_ownership_change(self):
        runtime = make_runtime(nodes=2)
        grid = Grid((8, 8), name="g")
        runtime.register_item(grid, placement=grid.decompose(2))
        owned_before = [
            runtime.process(pid).data_manager.owned_region(grid) for pid in range(2)
        ]

        def body(ctx):
            return float(
                ctx.fragment(grid).gather(Box.of((0, 0), (8, 8))).sum()
            )

        task = TaskSpec(
            name="r", reads={grid: grid.full_region}, body=body, size_hint=64
        )
        value = self.run_task(runtime, task)
        assert value == 0.0  # freshly allocated zeros
        runtime.check_ownership_invariants()
        for pid in range(2):
            assert runtime.process(pid).data_manager.owned_region(grid).same_elements(
                owned_before[pid]
            )
        assert runtime.metrics.counter("dm.replicas_fetched") >= 1
        assert runtime.replica_holders(grid)

    def test_write_invalidates_replicas(self):
        runtime = make_runtime(nodes=2)
        grid = Grid((8, 8), name="g")
        placement = grid.decompose(2)
        runtime.register_item(grid, placement=placement)
        # process 1 fetches a read replica of process 0's half
        manager = runtime.process(1).data_manager
        runtime.engine.spawn(manager._fetch_replicas(grid, placement[0]))
        runtime.run()
        assert 1 in runtime.replica_holders(grid)
        # a write on that region (running at its owner, process 0) must
        # invalidate the remote replica first — exclusive writes
        write = TaskSpec(
            name="w",
            writes={grid: placement[0]},
            body=lambda ctx: None,
            size_hint=32,
        )
        self.run_task(runtime, write)
        assert not runtime.replica_holders(grid)
        assert runtime.metrics.counter("dm.invalidations") >= 1
        # process 1's fragment dropped the replica but kept its own data
        assert manager.present_region(grid).same_elements(placement[1])
        runtime.check_ownership_invariants()

    def test_replica_holder_becoming_owner_is_unregistered(self):
        runtime = make_runtime(nodes=2)
        grid = Grid((8, 8), name="g")
        runtime.register_item(grid, placement=grid.decompose(2))
        read = TaskSpec(
            name="r",
            reads={grid: grid.full_region},
            body=lambda ctx: None,
            size_hint=64,
        )
        self.run_task(runtime, read)
        assert runtime.replica_holders(grid)
        write = TaskSpec(
            name="w",
            writes={grid: grid.full_region},
            body=lambda ctx: None,
            size_hint=64,
        )
        self.run_task(runtime, write)
        # the reader migrated the rest in and became sole owner; its stale
        # replica registration must be cleaned up without invalidations
        assert not runtime.replica_holders(grid)
        runtime.check_ownership_invariants()

    def test_functional_values_survive_migration(self):
        runtime = make_runtime(nodes=2)
        grid = Grid((4, 4), name="g")
        runtime.register_item(grid)
        left = grid.box((0, 0), (2, 4))

        def write_left(ctx):
            ctx.fragment(grid).scatter(Box.of((0, 0), (2, 4)), np.full((2, 4), 5.0))

        self.run_task(
            runtime,
            TaskSpec(name="w1", writes={grid: left}, body=write_left, size_hint=8),
        )

        def read_all(ctx):
            return ctx.fragment(grid).gather(Box.of((0, 0), (4, 4))).sum()

        total = self.run_task(
            runtime,
            TaskSpec(
                name="r", reads={grid: grid.full_region}, body=read_all,
                size_hint=16,
            ),
        )
        assert total == 5.0 * 8

    def test_virtual_mode_moves_bytes_not_values(self):
        runtime = make_runtime(nodes=2, functional=False)
        grid = Grid((8, 8), name="g")
        runtime.register_item(grid, placement=grid.decompose(2))
        task = TaskSpec(
            name="r", reads={grid: grid.full_region}, flops=1e3, size_hint=64
        )
        runtime.wait(runtime.submit(task))
        assert runtime.metrics.counter("dm.replicated_bytes") > 0

    def test_reads_migrating_here_wait_on_the_marker_not_on_lookups(self):
        """Rows on their way to the reader's own process are owned there
        already: the reader waits for them to land, without a lookup that
        could only name itself, and without escalating."""
        runtime = make_runtime(nodes=2)
        grid = Grid((8, 8), name="g")
        runtime.register_item(grid, placement=grid.decompose(2))
        rows = grid.decompose(2)[1]
        here = runtime.process(0).data_manager
        payload = runtime.process(1).data_manager.export_owned(grid, rows)
        landing = here.claim_stored(grid, rows, payload)
        assert here.in_flight_region(grid).same_elements(rows)
        reader = TaskSpec(name="r", reads={grid: rows}, size_hint=1)
        runtime.spawn(landing)
        runtime.wait_process(here.ensure_for_task(reader))
        assert runtime.index.lookups == 0
        assert runtime.metrics.counter("dm.read_escalations") == 0
        assert here.present_region(grid).covers(rows)
        runtime.check_ownership_invariants()


class TestDestroy:
    def test_destroy_clears_everything(self):
        runtime = make_runtime(nodes=2)
        grid = Grid((8, 8), name="g")
        runtime.register_item(grid, placement=grid.decompose(2))
        runtime.destroy_item(grid)
        assert grid not in runtime.items
        for pid in range(2):
            assert runtime.process(pid).node.memory_used == 0
            assert runtime.index.owned_region(grid, pid).is_empty()


class TestChargeRule:
    """Only task work books a core; a peer's fragment ops run ahead of it."""

    def test_replica_fetch_from_a_busy_peer_skips_its_booked_leaf(self):
        from repro.runtime.config import (
            CONTROL_MESSAGE_BYTES,
            FRAGMENT_OP_OVERHEAD,
        )

        runtime = make_runtime(nodes=2, cores=2)
        grid = Grid((8, 8), name="g")
        runtime.register_item(grid, placement=grid.decompose(2))
        for process in runtime.processes:
            for _core in range(process.node.num_cores):
                process.node.execute(1.0)  # a booked leaf on every core
        part = runtime.process(1).data_manager.owned_region(grid)
        nbytes = grid.region_bytes(part)

        def timed(steps):
            def driver():
                start = runtime.now
                yield from steps()
                return runtime.now - start

            return runtime.wait_process(driver())

        def fetch():
            yield from runtime.process(0).data_manager._fetch_from_peer(
                grid, [part], 1, None, bulk=False
            )

        def wire():
            yield runtime.network.send(0, 1, CONTROL_MESSAGE_BYTES)
            yield runtime.network.send(1, 0, nbytes)

        elapsed = timed(fetch)
        assert runtime.process(0).data_manager.present_region(grid).covers(
            part
        )
        assert elapsed == pytest.approx(
            timed(wire) + 2 * FRAGMENT_OP_OVERHEAD
        )
        assert elapsed < 1e-3  # not after the booked leaf
