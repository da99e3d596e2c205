"""Unit tests for the offline placement planner and its runtime policy."""

from __future__ import annotations

import pytest

from repro.apps.ipic3d import IPic3DWorkload, ipic3d_allscale, ipic3d_program
from repro.apps.stencil import StencilWorkload, stencil_allscale, stencil_program
from repro.apps.tpc import (
    TPCWorkload,
    make_problem,
    tpc_allscale,
    tpc_program,
)
from repro.items.grid import Grid
from repro.placement import (
    CostModel,
    PlacementPlan,
    PlannedPolicy,
    extract_program,
    plan_placement,
)
from repro.placement.planner import _pins
from repro.placement.extract import PlacementTask
from repro.runtime.config import RuntimeConfig
from repro.runtime.policies import PlacementContext, RandomPolicy
from repro.runtime.runtime import AllScaleRuntime
from repro.runtime.tasks import TaskSpec
from repro.sim.cluster import Cluster, ClusterSpec

NODES = 4
WORKLOAD = StencilWorkload(n_per_node=200, timesteps=2, functional=False)


def make_cluster(nodes=NODES):
    return Cluster(
        ClusterSpec(num_nodes=nodes, cores_per_node=2, flops_per_core=1e9)
    )


@pytest.fixture(scope="module")
def program():
    return stencil_program(WORKLOAD, NODES, cores_per_node=2)


@pytest.fixture(scope="module")
def plan(program):
    return plan_placement(program, make_cluster())


class TestExtract:
    def test_frontier_tasks_and_items(self, program):
        extracted = extract_program(program)
        assert extracted.label == f"stencil[{NODES}]"
        assert extracted.tasks
        assert set(extracted.items) == {"stencil.A", "stencil.B"}
        # phases arrive in submission order
        phases = [t.phase for t in extracted.tasks]
        assert phases == sorted(phases)
        # 2 init phases + one per timestep
        assert phases[-1] == 1 + WORKLOAD.timesteps

    def test_effective_regions_cover_the_sweep(self, program):
        """Frontier write regions union back to each init sweep's target."""
        extracted = extract_program(program)
        grid = extracted.items["stencil.A"]
        written = grid.empty_region()
        for task in extracted.tasks:
            if task.phase == 0:
                written = written.union(task.writes["stencil.A"])
        assert written.size() == grid.full_region.size()

    def test_ancestors_name_the_subtree_chain(self, program):
        extracted = extract_program(program)
        deep = [t for t in extracted.tasks if t.ancestors]
        assert deep
        for task in deep:
            assert task.ancestors[0].startswith(("init.stencil.", "step"))


class TestPlanner:
    def test_layouts_disjoint_and_within_item(self, plan):
        assert plan.processes == NODES
        for name, regions in plan.layouts.items():
            assert len(regions) == NODES
            total = 0
            for pid, region in enumerate(regions):
                total += region.size()
                for other in regions[pid + 1:]:
                    assert region.intersect(other).is_empty()
            assert total > 0

    def test_layout_spreads_across_processes(self, plan):
        regions = plan.layouts["stencil.A"]
        assert sum(1 for r in regions if not r.is_empty()) == NODES

    def test_pins_are_valid_processes(self, plan):
        assert plan.pins
        assert all(0 <= pid < NODES for pid in plan.pins.values())

    def test_stats_digest(self, plan):
        for key in ("tasks", "expanded", "load_max", "est_transfer_seconds"):
            assert key in plan.stats
        assert plan.stats["tasks"] > 0
        summary = plan.summary()
        assert summary["processes"] == NODES
        assert set(summary["items"]) == set(plan.layouts)

    def test_layout_for_rejects_other_process_counts(self, plan):
        assert plan.layout_for("stencil.A", NODES) is not None
        assert plan.layout_for("stencil.A", NODES + 1) is None
        assert plan.layout_for("no-such-item", NODES) is None

    def test_conflicting_pin_names_are_dropped(self):
        grid = Grid((4, 4), name="g")
        region = grid.full_region

        def task(name, flops=1.0, ancestors=()):
            return PlacementTask(
                name=name,
                path="0",
                phase=0,
                flops=flops,
                reads={},
                writes={"g": region},
                ancestors=ancestors,
            )

        tasks = [
            task("dup"),
            task("dup"),
            task("solo", ancestors=("root",)),
        ]
        pins = _pins(tasks, [0, 1, 2])
        assert "dup" not in pins
        assert pins["solo"] == 2
        assert pins["root"] == 2


class TestCostModel:
    def test_transfer_scales_with_hops(self):
        cost = CostModel(make_cluster(8))
        assert cost.transfer_seconds(1024, 3, 3) == 0.0
        assert cost.transfer_seconds(0, 0, 1) == 0.0
        near = cost.transfer_seconds(1 << 20, 0, 1)
        assert near > 0.0
        topo = make_cluster(8).topology
        if topo.switch_hops(0, 7) > topo.switch_hops(0, 1):
            assert cost.transfer_seconds(1 << 20, 0, 7) > near


class TestPlannedPolicy:
    def _runtime(self, policy):
        return AllScaleRuntime(
            make_cluster(), RuntimeConfig(functional=False), policy
        )

    def _task(self, name, **kwargs):
        defaults = dict(
            name=name, flops=1.0, size_hint=1.0, body=lambda ctx: None
        )
        defaults.update(kwargs)
        return TaskSpec(**defaults)

    def test_pin_tier_wins(self, plan):
        policy = PlannedPolicy(plan)
        runtime = self._runtime(policy)
        name, pid = next(iter(sorted(plan.pins.items())))
        ctx = PlacementContext(runtime=runtime, origin=0, lookup={})
        assert policy.pick_target(self._task(name), ctx) == pid

    def test_out_of_range_pin_is_ignored(self):
        doctored = PlacementPlan(label="x", processes=NODES)
        doctored.pins = {"t": NODES + 7}
        policy = PlannedPolicy(doctored)
        runtime = self._runtime(policy)
        ctx = PlacementContext(runtime=runtime, origin=2, lookup={})
        # no pin in range, no layouts: falls through to the online policy,
        # which keeps a requirement-free task at its origin
        assert policy.pick_target(self._task("t"), ctx) == 2

    def test_layout_vote_follows_planned_owner(self, plan):
        policy = PlannedPolicy(plan)
        runtime = self._runtime(policy)
        grid = Grid(WORKLOAD.global_shape(NODES), name="stencil.A")
        runtime.register_item(grid)
        layout = plan.layout_for("stencil.A", NODES)
        for pid, owned in enumerate(layout):
            if owned.is_empty():
                continue
            task = self._task(f"unpinned{pid}", writes={grid: owned})
            assert task.name not in plan.pins
            ctx = PlacementContext(runtime=runtime, origin=0, lookup={})
            assert policy.pick_target(task, ctx) == pid

    def test_register_item_preplaces_ownership(self, plan):
        policy = PlannedPolicy(plan)
        runtime = self._runtime(policy)
        grid = Grid(WORKLOAD.global_shape(NODES), name="stencil.A")
        runtime.register_item(grid)
        assert runtime.metrics.counter("placement.preplaced_items") == 1
        layout = plan.layout_for("stencil.A", NODES)
        for pid, region in enumerate(layout):
            owned = runtime.processes[pid].data_manager.owned_region(grid)
            assert owned.covers(region)

    def test_plan_for_other_cluster_size_preplaces_nothing(self, plan):
        policy = PlannedPolicy(plan)
        cluster = make_cluster(NODES * 2)
        runtime = AllScaleRuntime(
            cluster, RuntimeConfig(functional=False), policy
        )
        grid = Grid(WORKLOAD.global_shape(NODES), name="stencil.A")
        runtime.register_item(grid)
        assert runtime.metrics.counter("placement.preplaced_items") == 0


class TestEndToEnd:
    def test_planned_moves_fewer_bytes_than_random(self, plan):
        config = RuntimeConfig(functional=False)

        def race(policy):
            result = stencil_allscale(
                make_cluster(), WORKLOAD, config, policy
            )
            runtime = result.extras["runtime"]
            return runtime.metrics.counter(
                "net.bytes"
            ) + runtime.data_bytes_moved()

        planned = race(PlannedPolicy(plan))
        random = race(RandomPolicy(seed=0))
        assert planned < random


def _stencil(config):
    return (
        lambda: stencil_program(WORKLOAD, NODES, cores_per_node=2, config=config),
        lambda: stencil_allscale(make_cluster(), WORKLOAD, config),
    )


def _ipic3d(config):
    workload = IPic3DWorkload(
        particles_per_node=1_000_000, cells_per_node_side=4, timesteps=2
    )
    return (
        lambda: ipic3d_program(workload, NODES, cores_per_node=2, config=config),
        lambda: ipic3d_allscale(make_cluster(), workload, config),
    )


def _tpc(config):
    workload = TPCWorkload(
        total_points=2**12,
        depth=8,
        queries_total=12,
        task_subtree_height=4,
        task_batch=2,
        submission_waves=2,
    )
    problem = make_problem(workload, NODES)
    return (
        lambda: tpc_program(problem),
        lambda: tpc_allscale(make_cluster(), workload, config, problem=problem),
    )


class TestDriverSubmitsTheProgram:
    """The planner pins tasks *by name* and the analyzer admits *by graph*:
    both read ``program.phases``, so what the driver hands to
    ``AllScaleRuntime.submit`` must be exactly the program's roots."""

    @pytest.mark.parametrize("app", [_stencil, _ipic3d, _tpc])
    def test_submissions_equal_all_roots(self, app, monkeypatch):
        # non-default oversubscription: the config must reach the builder
        build, run = app(RuntimeConfig(functional=False, oversubscription=2))
        submitted = []
        real_submit = AllScaleRuntime.submit

        def spy(self, task, origin=0, after=None):
            submitted.append((task.name, task.granularity, origin))
            return real_submit(self, task, origin=origin, after=after)

        monkeypatch.setattr(AllScaleRuntime, "submit", spy)
        run()
        program = build()
        assert submitted == [
            (
                root.name,
                root.granularity,
                k % NODES if program.rotate_origins else 0,
            )
            for k, root in enumerate(program.all_roots())
        ]
        if program.rotate_origins:  # ... and the rotation was exercised
            assert {origin for _, _, origin in submitted} == set(range(NODES))
