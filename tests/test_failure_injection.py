"""Failure-injection tests: resource exhaustion and malformed usage.

The runtime's error surfaces must be loud and precise — silent
misbehaviour under resource pressure is how distributed systems corrupt
results.
"""

import pytest

from repro.items.grid import Grid
from repro.runtime.config import RuntimeConfig
from repro.runtime.runtime import AllScaleRuntime
from repro.runtime.tasks import TaskExecutionContext, TaskSpec
from repro.sim.cluster import Cluster, ClusterSpec
from repro.sim.node import MemoryExhaustedError


class TestMemoryPressure:
    def test_allocation_beyond_budget_raises(self):
        cluster = Cluster(
            ClusterSpec(
                num_nodes=1,
                cores_per_node=1,
                flops_per_core=1e9,
                memory_per_node=1000.0,  # 1 kB budget
            )
        )
        runtime = AllScaleRuntime(cluster, RuntimeConfig(functional=False))
        grid = Grid((64, 64), name="g")  # 32 kB item
        # nothing allocated yet: the write's first touch overruns
        runtime.register_item(grid, placement=[grid.empty_region()])
        task = TaskSpec(
            name="w", writes={grid: grid.full_region}, flops=1.0,
            size_hint=4096,
        )
        runtime.submit(task)
        with pytest.raises(MemoryExhaustedError):
            runtime.run()

    def test_budget_respected_across_items(self):
        cluster = Cluster(
            ClusterSpec(
                num_nodes=2,
                cores_per_node=1,
                flops_per_core=1e9,
                memory_per_node=20_000.0,
            )
        )
        runtime = AllScaleRuntime(cluster, RuntimeConfig(functional=False))
        # two items that fit individually per node but not together on one
        a = Grid((40, 40), name="a")  # 12.8 kB
        b = Grid((40, 40), name="b")  # 12.8 kB
        runtime.register_item(a, placement=a.decompose(2))  # 6.4 kB/node
        runtime.register_item(b, placement=b.decompose(2))
        # within budget: fine
        assert all(
            p.node.memory_used <= p.node.memory_bytes
            for p in runtime.processes
        )

    def test_destroy_frees_budget(self):
        cluster = Cluster(
            ClusterSpec(
                num_nodes=1,
                cores_per_node=1,
                flops_per_core=1e9,
                memory_per_node=40_000.0,
            )
        )
        runtime = AllScaleRuntime(cluster, RuntimeConfig(functional=False))
        for round_no in range(4):
            grid = Grid((64, 64), name=f"g{round_no}")  # 32 kB each
            runtime.register_item(grid, placement=[grid.full_region])
            runtime.destroy_item(grid)
        assert runtime.process(0).node.memory_used == 0


class TestMalformedUsage:
    def make_runtime(self):
        cluster = Cluster(
            ClusterSpec(num_nodes=2, cores_per_node=1, flops_per_core=1e9)
        )
        return AllScaleRuntime(cluster, RuntimeConfig(functional=True))

    def test_body_touching_undeclared_item_raises(self):
        runtime = self.make_runtime()
        declared = Grid((4, 4), name="declared")
        undeclared = Grid((4, 4), name="undeclared")
        runtime.register_item(declared, placement=[declared.full_region,
                                                   declared.empty_region()])
        runtime.register_item(undeclared)

        def body(ctx: TaskExecutionContext):
            ctx.fragment(undeclared)  # not in the requirement set

        task = TaskSpec(
            name="bad",
            reads={declared: declared.full_region},
            body=body,
            size_hint=16,
        )
        runtime.submit(task)
        with pytest.raises(KeyError, match="declared no requirement"):
            runtime.run()

    def test_body_reading_outside_declared_region_raises(self):
        runtime = self.make_runtime()
        grid = Grid((8, 8), name="g")
        runtime.register_item(grid, placement=grid.decompose(2))
        from repro.regions.box import Box

        def body(ctx):
            # declared only the top half; gather the whole grid
            ctx.fragment(grid).gather(Box.of((0, 0), (8, 8)))

        task = TaskSpec(
            name="overreach",
            reads={grid: grid.box((0, 0), (4, 8))},
            body=body,
            size_hint=32,
        )
        runtime.submit(task)
        with pytest.raises(KeyError, match="not covered"):
            runtime.run()

    def test_invalid_policy_target_rejected(self):
        from repro.runtime.policies import SchedulingPolicy

        class BrokenPolicy(SchedulingPolicy):
            def pick_variant(self, task, runtime):
                return "leaf"

            def pick_target(self, task, ctx):
                return 99  # out of range

        cluster = Cluster(
            ClusterSpec(num_nodes=2, cores_per_node=1, flops_per_core=1e9)
        )
        runtime = AllScaleRuntime(
            cluster, RuntimeConfig(functional=False), policy=BrokenPolicy()
        )
        # the assignment process starts eagerly, so submit itself raises
        with pytest.raises(ValueError, match="invalid target"):
            runtime.submit(TaskSpec(name="t", flops=1.0, size_hint=1))
            runtime.run()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RuntimeConfig(oversubscription=0)
        with pytest.raises(ValueError):
            RuntimeConfig(balancer_interval=0.0)
