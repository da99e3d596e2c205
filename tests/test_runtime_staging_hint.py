"""A task carries its placement lookup to the process that runs it.

Algorithm 2 places a task with one charged Algorithm-1 lookup of its
requirements.  That lookup travels in the queue entry: a leaf's first
staging fetches its reads from the owners it names, so a leaf whose halo
has not moved stages with no further index traffic.  The lookup is only a
hint: a peer serves only what it still holds, answers "not here"
otherwise, and a fresh lookup then finds the new owner.
"""

import numpy as np

from repro.items.grid import Grid
from repro.regions.box import Box
from repro.runtime.config import CONTROL_MESSAGE_BYTES, RuntimeConfig
from repro.runtime.data_manager import Move, run_moves
from repro.runtime.runtime import AllScaleRuntime
from repro.runtime.tasks import TaskSpec, Treeture
from repro.sim.cluster import Cluster, ClusterSpec


def make_runtime(nodes=3, cores=2, **cfg):
    cluster = Cluster(
        ClusterSpec(num_nodes=nodes, cores_per_node=cores, flops_per_core=1e9)
    )
    return AllScaleRuntime(cluster, RuntimeConfig(**cfg))


def seeded_grid(runtime, length=24):
    """A 1-D grid spread evenly over the processes, element ``i`` = ``i``."""
    grid = Grid((length,), name="g")
    runtime.register_item(grid, placement=grid.decompose(runtime.num_processes))
    for process in runtime.processes:
        fragment = process.data_manager.fragment(grid)
        for box in process.data_manager.owned_region(grid).boxes:
            fragment.scatter(box, np.arange(box.lo[0], box.hi[0], dtype=float))
    return grid


def halo_reader(grid, lo, hi, halo):
    """Writes ``[lo, hi)`` and reads it with ``halo`` elements above;
    returns the sum of what it read."""

    def body(ctx):
        return float(ctx.fragment(grid).gather(Box.of((lo,), (hi + halo,))).sum())

    return TaskSpec(
        name=f"halo[{lo},{hi})",
        reads={grid: grid.box((lo,), (hi + halo,))},
        writes={grid: grid.box((lo,), (hi,))},
        body=body,
        size_hint=hi - lo,
    )


def sequential_sum(lo, hi):
    return float(np.arange(lo, hi, dtype=float).sum())


class TestStagingFromThePlacementLookup:
    def test_leaf_with_a_neighbour_halo_stages_without_a_lookup(self):
        runtime = make_runtime()
        grid = seeded_grid(runtime)
        task = halo_reader(grid, 0, 8, halo=2)  # halo [8, 10) is pid 1's
        value = runtime.wait(runtime.submit(task, origin=0))
        assert value == sequential_sum(0, 10)
        # the placement lookup is the only one: staging asked its owners
        assert runtime.index.lookups == 1
        assert runtime.process(0).executed_leaves == 1
        assert runtime.replica_holders(grid)[0].same_elements(
            grid.box((8,), (10,))
        )
        assert runtime.metrics.counter("dm.read_escalations") == 0

    def test_a_restage_looks_up_afresh(self):
        runtime = make_runtime()
        grid = seeded_grid(runtime)
        task = halo_reader(grid, 0, 8, halo=2)
        manager = runtime.process(0).data_manager
        hints = []
        real = manager.ensure_for_task

        def spy(task, hint=None):
            hints.append(hint)
            return real(task, hint)

        manager.ensure_for_task = spy
        real_hold = manager.requirements_hold
        verdicts = iter([False])  # fail the first verification once
        manager.requirements_hold = lambda t: next(verdicts, real_hold(t))
        assert runtime.wait(runtime.submit(task, origin=0)) == sequential_sum(
            0, 10
        )
        assert len(hints) == 2 and hints[0] and hints[1] is None
        assert runtime.metrics.counter("proc.restages") == 1

    def test_stale_hint_falls_back_to_a_fresh_lookup(self):
        runtime = make_runtime()
        grid = seeded_grid(runtime)
        task = halo_reader(grid, 0, 8, halo=2)
        # the lookup that placed the task at pid 0 ...
        lookup = {
            grid: runtime.wait_process(
                runtime.index.lookup(grid, task.accessed_region(grid), 0)
            )[0]
        }
        assert [pid for _part, pid in lookup[grid]] == [0, 1]
        # ... goes stale: the halo's block migrates to a third process
        block = grid.box((8,), (16,))
        runtime.wait_process(run_moves(runtime, [Move(grid, block, 1, 2)]))
        lookups = runtime.index.lookups
        manager = runtime.process(0).data_manager
        asked = []
        real = manager._fetch_from_peer

        def spy(item, parts, owner, plan, bulk):
            asked.append(owner)
            return real(item, parts, owner, plan, bulk)

        manager._fetch_from_peer = spy
        treeture = Treeture(runtime.engine, task.name)
        runtime.process(0).enqueue(task, treeture, "leaf", lookup)
        assert runtime.wait(treeture) == sequential_sum(0, 10)
        # pid 1 answered "not here"; one fresh lookup found pid 2
        assert asked == [1, 2]
        assert runtime.index.lookups == lookups + 1
        assert runtime.metrics.counter("dm.read_escalations") == 0
        assert set(runtime.replica_holders(grid)) == {0}
        runtime.check_ownership_invariants()

    def test_fetch_from_a_peer_that_no_longer_holds_costs_a_reply(self):
        runtime = make_runtime()
        grid = seeded_grid(runtime)
        block = grid.box((8,), (16,))
        runtime.wait_process(run_moves(runtime, [Move(grid, block, 1, 2)]))
        manager = runtime.process(0).data_manager
        before = manager.present_region(grid)
        messages = runtime.metrics.counter("net.messages")
        sent = runtime.metrics.counter("net.bytes")
        runtime.wait_process(
            manager._fetch_from_peer(grid, [block], 1, None, bulk=False)
        )
        assert runtime.metrics.counter("net.messages") == messages + 2
        assert runtime.metrics.counter("net.bytes") == sent + 2 * (
            CONTROL_MESSAGE_BYTES
        )
        assert manager.present_region(grid).same_elements(before)
        assert runtime.metrics.counter("dm.replicas_fetched") == 0


class TestTheLookupTravelsWithTheTask:
    def test_a_stolen_queue_entry_keeps_its_lookup(self):
        runtime = make_runtime(
            nodes=2, cores=1, functional=False, work_stealing=True
        )
        grid = Grid((8,), name="g")
        runtime.register_item(grid, placement=grid.decompose(2))
        tasks = [TaskSpec(name=f"t{k}", flops=5e6) for k in range(12)]
        # one distinct (and deliberately fictitious) lookup per task
        lookups = {
            task.name: {grid: [(grid.box((k % 8,), (k % 8 + 1,)), 0)]}
            for k, task in enumerate(tasks)
        }
        seen = {}
        for process in runtime.processes:
            real = process.data_manager.ensure_for_task

            def spy(task, hint=None, pid=process.pid, real=real):
                seen[task.name] = (pid, hint)
                return real(task, hint)

            process.data_manager.ensure_for_task = spy
        treetures = []
        for task in tasks:
            treeture = Treeture(runtime.engine, task.name)
            runtime.process(0).enqueue(task, treeture, "leaf", lookups[task.name])
            treetures.append(treeture)
        for treeture in treetures:
            runtime.wait(treeture)
        assert runtime.metrics.counter("proc.stolen_tasks") >= 1
        stolen = [name for name, (pid, _hint) in seen.items() if pid == 1]
        assert stolen
        for name, (_pid, hint) in seen.items():
            assert hint is lookups[name]

    def test_split_task_cuts_along_the_owners_its_lookup_names(self):
        runtime = make_runtime(functional=False)
        grid = Grid((24,), name="g")
        runtime.register_item(grid)
        received = []

        def splitter(owners):
            received.append(list(owners))
            return [TaskSpec(name="leaf", flops=1.0)]

        task = TaskSpec(
            name="split", writes={grid: grid.full_region}, splitter=splitter
        )
        pieces = [(grid.box((0,), (12,)), 2), (grid.box((12,), (24,)), 1)]
        treeture = Treeture(runtime.engine, task.name)
        runtime.process(0).enqueue(task, treeture, "split", {grid: pieces})
        runtime.wait(treeture)
        assert received == [pieces]
