"""Placement-path coverage for the ablation policies, and the reset contract.

The scheduler ablation benchmark reuses one policy *instance* across many
runtimes; ``reset()`` (invoked at runtime construction) must make those
runs independent.  The round-robin cursor and the random generator were
the two pieces of run-local state that used to leak.
"""

from __future__ import annotations

from repro.apps.stencil import StencilWorkload, stencil_allscale
from repro.items.grid import Grid
from repro.placement import PlacementPlan, PlannedPolicy
from repro.runtime.config import RuntimeConfig
from repro.runtime.policies import (
    DataAwarePolicy,
    PlacementContext,
    RandomPolicy,
    RoundRobinPolicy,
)
from repro.runtime.runtime import AllScaleRuntime
from repro.runtime.tasks import TaskSpec
from repro.sim.cluster import Cluster, ClusterSpec


def make_runtime(nodes=4, policy=None, **cfg):
    cluster = Cluster(
        ClusterSpec(num_nodes=nodes, cores_per_node=2, flops_per_core=1e9)
    )
    return AllScaleRuntime(
        cluster, RuntimeConfig(functional=False, **cfg), policy
    )


def _ctx(runtime, origin=0, lookup=None):
    return PlacementContext(
        runtime=runtime, origin=origin, lookup=lookup or {}
    )


def _task(**kwargs):
    defaults = dict(name="t", flops=1.0, size_hint=1.0, body=lambda ctx: None)
    defaults.update(kwargs)
    return TaskSpec(**defaults)


class TestRoundRobinPlacement:
    def test_cycles_through_processes(self):
        policy = RoundRobinPolicy()
        runtime = make_runtime(nodes=3, policy=policy)
        targets = [
            policy.pick_target(_task(), _ctx(runtime)) for _ in range(6)
        ]
        assert targets == [0, 1, 2, 0, 1, 2]

    def test_reset_rewinds_cursor(self):
        policy = RoundRobinPolicy()
        runtime = make_runtime(nodes=4, policy=policy)
        first = [policy.pick_target(_task(), _ctx(runtime)) for _ in range(3)]
        policy.reset()
        second = [policy.pick_target(_task(), _ctx(runtime)) for _ in range(3)]
        assert first == second == [0, 1, 2]


class TestRandomPlacement:
    def test_targets_in_range_and_seeded(self):
        policy = RandomPolicy(seed=7)
        runtime = make_runtime(nodes=4, policy=policy)
        first = [policy.pick_target(_task(), _ctx(runtime)) for _ in range(20)]
        assert all(0 <= t < 4 for t in first)
        policy.reset()
        second = [policy.pick_target(_task(), _ctx(runtime)) for _ in range(20)]
        assert first == second

    def test_distinct_seeds_distinct_streams(self):
        runtime = make_runtime(nodes=8)
        a = RandomPolicy(seed=1)
        b = RandomPolicy(seed=2)
        draws_a = [a.pick_target(_task(), _ctx(runtime)) for _ in range(16)]
        draws_b = [b.pick_target(_task(), _ctx(runtime)) for _ in range(16)]
        assert draws_a != draws_b


class TestDataAwareFallbackTiers:
    def test_home_hint_spreads_first_touch(self):
        """Tier 2: no ownership anywhere → the structural home hint."""
        policy = DataAwarePolicy()
        runtime = make_runtime(nodes=4, policy=policy)
        grid = Grid((8, 8), name="g")
        runtime.register_item(grid)
        homes = runtime.home_map(grid)
        targets = set()
        for pid, home in enumerate(homes):
            task = _task(name=f"w{pid}", writes={grid: home})
            target = policy.pick_target(task, _ctx(runtime, origin=0))
            assert target == pid
            targets.add(target)
        assert targets == {0, 1, 2, 3}

    def test_home_hint_falls_back_to_reads(self):
        policy = DataAwarePolicy()
        runtime = make_runtime(nodes=4, policy=policy)
        grid = Grid((8, 8), name="g")
        runtime.register_item(grid)
        homes = runtime.home_map(grid)
        task = _task(name="r", reads={grid: homes[2]})
        assert policy.pick_target(task, _ctx(runtime, origin=0)) == 2

    def test_home_hint_tie_goes_to_first_item_by_name(self):
        """A cross-item tie in the home hint is broken by item name, not
        by the order the items happen to hash into a set."""

        class PinnedHashGrid(Grid):
            def __init__(self, shape, name, pinned_hash):
                super().__init__(shape, name=name)
                self._pinned_hash = pinned_hash

            def __hash__(self):
                return self._pinned_hash

        policy = DataAwarePolicy()
        runtime = make_runtime(nodes=2, policy=policy)
        a = PinnedHashGrid((4, 4), "a", pinned_hash=1)
        b = PinnedHashGrid((4, 4), "b", pinned_hash=0)
        runtime.register_item(a)
        runtime.register_item(b)
        task = _task(
            name="w",
            writes={a: runtime.home_map(a)[0], b: runtime.home_map(b)[1]},
        )
        # the set iterates ``b`` first; the tie must still go to ``a``
        assert next(iter(task.accessed_items())) is b
        assert policy.pick_target(task, _ctx(runtime, origin=1)) == 0

    def test_no_requirements_stays_at_origin(self):
        """Tier 3: a task touching no data stays where it was submitted."""
        policy = DataAwarePolicy()
        runtime = make_runtime(nodes=4, policy=policy)
        assert policy.pick_target(_task(), _ctx(runtime, origin=3)) == 3


class TestResetContract:
    def test_runtime_construction_resets_policy(self):
        policy = RoundRobinPolicy()
        runtime = make_runtime(nodes=4, policy=policy)
        for _ in range(3):
            policy.pick_target(_task(), _ctx(runtime))
        assert policy._next == 3
        make_runtime(nodes=4, policy=policy)
        assert policy._next == 0

    def test_back_to_back_runs_identical_with_one_instance(self):
        """The determinism the ablation benchmark relies on: racing one
        shared instance over consecutive runs must not let the first
        run's cursor/RNG state leak into the second."""
        workload = StencilWorkload(
            n_per_node=200, timesteps=1, functional=False
        )
        for policy in (RoundRobinPolicy(), RandomPolicy(seed=3)):
            outcomes = []
            for _ in range(2):
                cluster = Cluster(
                    ClusterSpec(
                        num_nodes=3, cores_per_node=2, flops_per_core=1e9
                    )
                )
                result = stencil_allscale(
                    cluster,
                    workload,
                    RuntimeConfig(functional=False),
                    policy,
                )
                runtime = result.extras["runtime"]
                outcomes.append(
                    (
                        result.elapsed,
                        runtime.metrics.counter("net.messages"),
                        runtime.data_bytes_moved(),
                    )
                )
            assert outcomes[0] == outcomes[1], type(policy).__name__


class TestBirth:
    """Where a registered item's data is born: at its home map under the
    data-aware policy, at the first toucher under the ablation baselines,
    and wherever an explicit placement or a plan layout says."""

    def owned(self, runtime, grid):
        return [
            runtime.process(pid).data_manager.owned_region(grid)
            for pid in range(runtime.num_processes)
        ]

    def test_data_aware_items_are_born_at_their_homes(self):
        runtime = make_runtime(nodes=4)
        grid = Grid((8, 8), name="g")
        runtime.register_item(grid)
        owned = self.owned(runtime, grid)
        for region, home in zip(owned, runtime.home_map(grid)):
            assert region.same_elements(home)
        assert runtime.metrics.counter("dm.allocations") == 4
        assert runtime.index.lookups == 0
        runtime.check_ownership_invariants()

    def test_a_failed_process_home_is_left_to_first_touch(self):
        runtime = make_runtime(nodes=4)
        runtime.fail_process(2)
        grid = Grid((8, 8), name="g")
        runtime.register_item(grid)
        owned = self.owned(runtime, grid)
        assert owned[2].is_empty()
        for pid in (0, 1, 3):
            assert owned[pid].same_elements(runtime.home_map(grid)[pid])

    def test_ablation_baselines_first_touch_at_the_toucher(self):
        for policy in (RoundRobinPolicy(), RandomPolicy(seed=3)):
            cluster = Cluster(
                ClusterSpec(num_nodes=4, cores_per_node=2, flops_per_core=1e9)
            )
            runtime = AllScaleRuntime(
                cluster, RuntimeConfig(functional=True), policy
            )
            grid = Grid((8, 8), name="g")
            runtime.register_item(grid)
            assert all(r.is_empty() for r in self.owned(runtime, grid))
            region = runtime.home_map(grid)[2]
            ran_at = []
            runtime.wait(runtime.submit(_task(
                writes={grid: region},
                body=lambda ctx: ran_at.append(ctx.process_id),
            )))
            assert self.owned(runtime, grid)[ran_at[0]].covers(region)

    def test_explicit_placement_precedes_the_home_map(self):
        runtime = make_runtime(nodes=4)
        grid = Grid((8, 8), name="g")
        empty = grid.empty_region()
        runtime.register_item(
            grid, placement=[empty, empty, empty, grid.full_region]
        )
        owned = self.owned(runtime, grid)
        assert owned[3].same_elements(grid.full_region)
        assert all(region.is_empty() for region in owned[:3])

    def test_a_plan_layout_precedes_the_home_map(self):
        grid = Grid((8, 8), name="g")
        layout = list(reversed(grid.decompose(4)))
        plan = PlacementPlan(label="x", processes=4, layouts={"g": layout})
        runtime = make_runtime(nodes=4, policy=PlannedPolicy(plan))
        runtime.register_item(grid)
        unplanned = Grid((8, 8), name="u")
        runtime.register_item(unplanned)
        for region, planned in zip(self.owned(runtime, grid), layout):
            assert region.same_elements(planned)
        # the planner's wrapper does not birth what its plan leaves out
        assert all(r.is_empty() for r in self.owned(runtime, unplanned))
