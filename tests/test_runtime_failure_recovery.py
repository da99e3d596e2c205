"""Node failure and checkpoint-based recovery (paper §2.4/§6 outlook).

The model's data preservation property makes partial restart safe at task
barriers: a checkpoint captures every item's contents and distribution;
after a node crash, only the lost regions roll back to checkpoint state
while survivors keep theirs.
"""

import numpy as np
import pytest

from repro.items import KDTreeItem, synthetic_kdtree
from repro.items.grid import Grid
from repro.regions.box import Box
from repro.runtime.config import RuntimeConfig
from repro.runtime.resilience import ResilienceManager, lost_region
from repro.runtime.runtime import AllScaleRuntime
from repro.runtime.tasks import TaskSpec
from repro.sim.cluster import Cluster, ClusterSpec


def make_runtime(nodes=4):
    cluster = Cluster(
        ClusterSpec(num_nodes=nodes, cores_per_node=2, flops_per_core=1e9)
    )
    return AllScaleRuntime(cluster, RuntimeConfig(functional=True))


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


def fill_in_place(runtime, grid, value):
    """Each owner writes its own share, so the placement stays spread."""
    for pid in runtime.alive_processes():
        share = runtime.process(pid).data_manager.owned_region(grid)
        fill(runtime, grid, share, value, origin=pid)


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


class TestFailProcess:
    def test_failure_drops_data_and_index_entries(self):
        runtime = make_runtime()
        grid = Grid((8, 8), name="g")
        runtime.register_item(grid, placement=grid.decompose(4))
        lost_region = runtime.process(2).data_manager.owned_region(grid)
        runtime.fail_process(2)
        assert runtime.process(2).failed
        assert runtime.index.owned_region(grid, 2).is_empty()
        coverage = grid.empty_region()
        for pid in runtime.alive_processes():
            coverage = coverage.union(
                runtime.process(pid).data_manager.present_region(grid)
            )
        assert coverage.intersect(lost_region).is_empty()

    def test_enqueue_to_failed_process_rejected(self):
        runtime = make_runtime()
        runtime.fail_process(1)
        from repro.runtime.tasks import Treeture

        with pytest.raises(RuntimeError, match="failed process"):
            runtime.process(1).enqueue(
                TaskSpec(name="t"), Treeture(runtime.engine, "t"), "leaf"
            )

    def test_failure_requires_barrier(self):
        runtime = make_runtime()
        runtime.process(1).queue.append(("fake", None, "leaf"))
        with pytest.raises(RuntimeError, match="barrier"):
            runtime.fail_process(1)

    def test_scheduler_routes_around_failed_nodes(self):
        runtime = make_runtime()
        grid = Grid((8, 8), name="g")
        runtime.register_item(grid)
        runtime.fail_process(3)
        # the home hint for this region points at the failed process 3
        homes = runtime.home_map(grid)
        task = TaskSpec(
            name="t", writes={grid: homes[3]}, flops=1e3,
            size_hint=homes[3].size(), body=lambda ctx: None,
        )
        runtime.wait(runtime.submit(task, origin=0))
        assert runtime.process(3).executed_leaves == 0
        assert sum(p.executed_leaves for p in runtime.processes) == 1


class TestRecovery:
    def test_lost_regions_recover_from_checkpoint(self):
        runtime = make_runtime()
        grid = Grid((8, 8), name="g")
        runtime.register_item(grid, placement=grid.decompose(4))
        fill(runtime, grid, grid.full_region, 1.0)

        manager = ResilienceManager(runtime)
        snapshot_future = runtime.engine.spawn(manager.checkpoint())
        runtime.run()
        snapshot = snapshot_future.value

        # survivors advance past the checkpoint on their own region
        survivor_region = runtime.process(0).data_manager.owned_region(grid)
        fill(runtime, grid, survivor_region, 2.0)

        victim = 2
        lost_region = runtime.process(victim).data_manager.owned_region(grid)
        runtime.fail_process(victim)
        done = runtime.engine.spawn(manager.recover_lost_data(snapshot))
        runtime.run()
        assert done.done
        runtime.check_ownership_invariants()

        values = read_all(runtime, grid)
        # survivor kept its post-checkpoint state ...
        for coord in survivor_region.elements():
            assert values[coord] == 2.0
        # ... the lost region rolled back to checkpoint values
        for coord in lost_region.elements():
            assert values[coord] == 1.0
        # nothing in elems(d) is missing
        coverage = grid.empty_region()
        for pid in runtime.alive_processes():
            coverage = coverage.union(
                runtime.process(pid).data_manager.owned_region(grid)
            )
        assert coverage.same_elements(grid.full_region)

    def test_recovery_spreads_over_survivors(self):
        runtime = make_runtime()
        grid = Grid((16, 8), name="g")
        runtime.register_item(grid, placement=grid.decompose(4))
        fill(runtime, grid, grid.full_region, 5.0)
        manager = ResilienceManager(runtime)
        snapshot_future = runtime.engine.spawn(manager.checkpoint())
        runtime.run()
        runtime.fail_process(1)
        done = runtime.engine.spawn(
            manager.recover_lost_data(snapshot_future.value)
        )
        runtime.run()
        assert done.done
        assert runtime.metrics.counter("resilience.recoveries") == 1
        # work continues across the whole grid afterwards
        fill(runtime, grid, grid.full_region, 6.0)
        assert np.all(read_all(runtime, grid) == 6.0)

    def test_recovery_noop_when_nothing_lost(self):
        runtime = make_runtime()
        grid = Grid((8, 8), name="g")
        runtime.register_item(grid, placement=grid.decompose(4))
        fill(runtime, grid, grid.full_region, 1.0)
        manager = ResilienceManager(runtime)
        snapshot_future = runtime.engine.spawn(manager.checkpoint())
        runtime.run()
        before = runtime.metrics.counter("dm.imports")
        done = runtime.engine.spawn(
            manager.recover_lost_data(snapshot_future.value)
        )
        runtime.run()
        assert done.done
        assert runtime.metrics.counter("dm.imports") == before


class TestConcurrentTransfers:
    def test_checkpoint_costs_one_share_not_the_sum(self):
        """P processes each owning B bytes stream at once: the checkpoint
        takes one stream's time (B / bandwidth plus per-message
        overheads), not P of them."""
        nodes = 4
        runtime = make_runtime(nodes)
        grid = Grid((512, 512), name="g")
        runtime.register_item(grid, placement=grid.decompose(nodes))
        share = runtime.process(0).data_manager.owned_region(grid)
        one_stream = grid.region_bytes(share) / runtime.network.config.bandwidth

        start = runtime.now
        snapshot = runtime.wait_process(ResilienceManager(runtime).checkpoint())
        elapsed = runtime.now - start

        assert snapshot.total_bytes() == nodes * grid.region_bytes(share)
        assert [pid for pid, _ in snapshot.payloads["g"]] == list(range(nodes))
        # 42 µs of streaming against ~3 µs of overheads; serial is 4x
        assert one_stream <= elapsed < 1.2 * one_stream

    def test_lost_data_spreads_evenly_over_the_survivors(self):
        """Water-fill on owned bytes: after a two-victim recovery every
        survivor owns the mean to within one slice's rounding, both grids'
        rows stay together per survivor, and each kd-tree part, which
        ``take_slice`` cannot cut, lands whole on the least-loaded
        survivor."""
        nodes = 6
        runtime = make_runtime(nodes)
        a = Grid((96, 16), name="a")
        b = Grid((96, 16), name="b")
        for grid in (a, b):
            runtime.register_item(grid, placement=grid.decompose(nodes))
            fill_in_place(runtime, grid, 3.0)
        tree = KDTreeItem(
            synthetic_kdtree(2**6, depth=5, low=[0, 0], high=[1, 1]),
            name="kd",
        )
        runtime.register_item(tree, placement=tree.decompose(nodes))
        items = (a, b, tree)
        victims = (4, 5)
        lost_tree = {
            pid: runtime.process(pid).data_manager.owned_region(tree)
            for pid in victims
        }
        manager = ResilienceManager(runtime)
        snapshot = runtime.wait_process(manager.checkpoint())
        for pid in victims:
            runtime.fail_process(pid)
        runtime.wait_process(manager.recover_lost_data(snapshot))
        runtime.check_ownership_invariants()

        owned = {
            pid: {
                item: runtime.process(pid).data_manager.owned_region(item)
                for item in items
            }
            for pid in runtime.alive_processes()
        }
        loads = {
            pid: sum(item.region_bytes(region) for item, region in r.items())
            for pid, r in owned.items()
        }
        mean = sum(loads.values()) / len(loads)
        # a cut overshoots by at most one element of each item it slices
        rounding = a.bytes_per_element + b.bytes_per_element
        for pid, load in loads.items():
            assert abs(load - mean) <= rounding, (pid, load, mean)
            assert owned[pid][a].same_elements(owned[pid][b])
        # survivors 1 and 2 owned the fewest bytes (ties go to the lower
        # pid); each victim's tree part went whole to one of them
        for victim, adopter in zip(victims, (1, 2)):
            assert lost_tree[victim].difference(owned[adopter][tree]).is_empty()
        assert np.all(read_all(runtime, a) == 3.0)
        assert np.all(read_all(runtime, b) == 3.0)

    def test_recovery_owns_lost_rows_before_their_bytes_land(self):
        """At the failure instant every lost row already has an owner that
        marks it in flight, as a migration's handover does; a reader of a
        lost row waits for the checkpoint bytes instead of first-touching
        zeros."""
        runtime = make_runtime()
        grid = Grid((8, 8), name="g")
        runtime.register_item(grid, placement=grid.decompose(4))
        fill_in_place(runtime, grid, 1.0)
        manager = ResilienceManager(runtime)
        snapshot = runtime.wait_process(manager.checkpoint())
        victim = 2
        lost = runtime.process(victim).data_manager.owned_region(grid)
        runtime.fail_process(victim)

        # spawn runs the recovery up to its first yield: the claims
        done = runtime.engine.spawn(manager.recover_lost_data(snapshot))
        assert not done.done
        assert lost_region(runtime, grid, grid.full_region).is_empty()
        in_flight = grid.empty_region()
        for pid in runtime.alive_processes():
            in_flight = in_flight.union(
                runtime.process(pid).data_manager.in_flight_region(grid)
            )
        assert in_flight.same_elements(lost)

        values = read_all(runtime, grid)
        assert done.done
        for coord in lost.elements():
            assert values[coord] == 1.0
        assert runtime.metrics.counter("dm.uninitialized_reads") == 0

    def test_recovered_pieces_land_flush_against_their_adopters(self):
        """Each recovered piece is cut on the face that looks at its
        adopter: on a row-blocked grid the victim's two neighbours each
        end up owning one box.  A low-corner cut handed the upper
        neighbour the victim's middle rows, a second box apart from its
        own block."""
        runtime = make_runtime()
        grid = Grid((24, 4), name="g")
        runtime.register_item(grid, placement=grid.decompose(4))
        fill_in_place(runtime, grid, 5.0)
        victim = 1
        lost = runtime.process(victim).data_manager.owned_region(grid)
        assert lost.boxes == (Box((6, 0), (12, 4)),)
        manager = ResilienceManager(runtime)
        snapshot = runtime.wait_process(manager.checkpoint())
        runtime.fail_process(victim)
        runtime.wait_process(manager.recover_lost_data(snapshot))
        runtime.check_ownership_invariants()

        owned = {
            pid: runtime.process(pid).data_manager.owned_region(grid)
            for pid in runtime.alive_processes()
        }
        # water-fill: 32 elements (8 rows) each
        assert {pid: r.size() for pid, r in owned.items()} == {
            0: 32, 2: 32, 3: 32
        }
        assert owned[0].boxes == (Box((0, 0), (8, 4)),)
        assert owned[2].boxes == (Box((10, 0), (18, 4)),)
        assert np.all(read_all(runtime, grid) == 5.0)
