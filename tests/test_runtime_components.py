"""Unit tests for lock tables, task specs, treetures, policies, and the
runtime configuration."""

import dataclasses

import pytest

from repro.items.grid import Grid
from repro.runtime.config import RuntimeConfig
from repro.runtime.locks import LockTable
from repro.runtime.policies import (
    DataAwarePolicy,
    PlacementContext,
    RandomPolicy,
    RoundRobinPolicy,
)
from repro.runtime.runtime import AllScaleRuntime
from repro.runtime.tasks import TaskSpec, Treeture, constant_task
from repro.sim.cluster import Cluster, ClusterSpec
from repro.sim.engine import SimEngine


class TestLockTable:
    def setup_method(self):
        self.engine = SimEngine()
        self.table = LockTable(self.engine)
        self.grid = Grid((10, 10), name="g")
        self.a = self.grid.box((0, 0), (5, 10))
        self.b = self.grid.box((5, 0), (10, 10))
        self.mid = self.grid.box((3, 0), (7, 10))

    def test_readers_share(self):
        assert self.table.try_acquire("t1", {self.grid: self.a}, {})
        assert self.table.try_acquire("t2", {self.grid: self.a}, {})
        assert self.table.active_holds == 2

    def test_writer_excludes_overlapping_writer(self):
        assert self.table.try_acquire("t1", {}, {self.grid: self.a})
        assert not self.table.try_acquire("t2", {}, {self.grid: self.mid})
        assert self.table.try_acquire("t3", {}, {self.grid: self.b})

    def test_writer_excludes_overlapping_reader(self):
        assert self.table.try_acquire("t1", {self.grid: self.a}, {})
        assert not self.table.try_acquire("t2", {}, {self.grid: self.mid})

    def test_reader_excluded_by_writer(self):
        assert self.table.try_acquire("t1", {}, {self.grid: self.a})
        assert not self.table.try_acquire("t2", {self.grid: self.mid}, {})
        assert self.table.try_acquire("t3", {self.grid: self.b}, {})

    def test_own_read_write_overlap_allowed(self):
        # a task reading and writing the same region holds one write lock
        assert self.table.try_acquire(
            "t1", {self.grid: self.mid}, {self.grid: self.mid}
        )
        assert self.table.active_holds == 1

    def test_release_wakes_waiters(self):
        self.table.try_acquire("t1", {}, {self.grid: self.a})
        waiter = self.table.released.wait()
        assert not waiter.done
        self.table.release("t1")
        assert waiter.done

    def test_reacquire_by_same_owner_is_not_a_conflict(self):
        # regression: an owner's own holds used to count as conflicting,
        # so re-acquiring (e.g. after a requirement restage kept a hold
        # alive) would self-deadlock
        assert self.table.try_acquire("t1", {}, {self.grid: self.a})
        assert not self.table.conflicts({}, {self.grid: self.a}, owner="t1")
        assert self.table.conflicts({}, {self.grid: self.a}, owner="t2")
        assert self.table.try_acquire("t1", {self.grid: self.mid}, {})
        assert self.table.active_holds == 2

    def test_reacquire_still_blocked_by_foreign_overlap(self):
        assert self.table.try_acquire("t1", {}, {self.grid: self.a})
        assert not self.table.try_acquire("t2", {}, {self.grid: self.mid})
        assert self.table.try_acquire("t2", {}, {self.grid: self.b})

    def test_release_unknown_owner_is_noop(self):
        self.table.release("ghost")
        assert self.table.active_holds == 0

    def test_query_helpers(self):
        self.table.try_acquire("t1", {self.grid: self.a}, {self.grid: self.b})
        assert self.table.any_locked(self.grid, self.a)
        assert not self.table.write_locked(self.grid, self.a)
        assert self.table.write_locked(self.grid, self.b)


class TestTaskSpec:
    def test_defaults_and_validation(self):
        task = TaskSpec(name="t")
        assert not task.splittable
        assert task.accessed_items() == frozenset()
        with pytest.raises(ValueError):
            TaskSpec(name="bad", flops=-1)
        with pytest.raises(ValueError):
            TaskSpec(name="bad", size_hint=0)

    def test_region_accessors(self):
        grid = Grid((4, 4))
        region = grid.box((0, 0), (2, 4))
        task = TaskSpec(name="t", writes={grid: region})
        assert task.write_region(grid).same_elements(region)
        assert task.read_region(grid).is_empty()
        assert task.accessed_region(grid).same_elements(region)

    def test_constant_task(self):
        task = constant_task(99)
        assert task.body(None) == 99


class TestRuntimeConfig:
    def test_fields_are_the_knobs_callers_set(self):
        """A field stays only if two callers outside the tests set it to
        different values.  The modelled prototype's fixed costs are module
        constants of ``repro.runtime.config``, and job accounting lives in
        the service layer."""
        assert [f.name for f in dataclasses.fields(RuntimeConfig)] == [
            "functional",
            "index_caching",
            "comm_coalescing",
            "replica_prefetch",
            "load_balancing",
            "balancer_interval",
            "oversubscription",
            "work_stealing",
        ]


class TestTreeture:
    def test_value_lifecycle(self):
        engine = SimEngine()
        treeture = Treeture(engine, "t")
        assert not treeture.done
        with pytest.raises(RuntimeError):
            _ = treeture.value
        seen = []
        treeture.then(seen.append)
        treeture.complete(7)
        assert treeture.done and treeture.value == 7
        assert seen == [7]


class TestPolicies:
    def make_runtime(self, nodes=4):
        cluster = Cluster(ClusterSpec(num_nodes=nodes, cores_per_node=2))
        return AllScaleRuntime(cluster, RuntimeConfig(functional=False))

    def test_round_robin_cycles(self):
        runtime = self.make_runtime()
        policy = RoundRobinPolicy()
        ctx = PlacementContext(runtime, origin=0)
        task = TaskSpec(name="t")
        targets = [policy.pick_target(task, ctx) for _ in range(8)]
        assert targets == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_random_policy_in_range_and_seeded(self):
        runtime = self.make_runtime()
        task = TaskSpec(name="t")
        ctx = PlacementContext(runtime, origin=0)
        a = [RandomPolicy(7).pick_target(task, ctx) for _ in range(10)]
        b = [RandomPolicy(7).pick_target(task, ctx) for _ in range(10)]
        assert a == b
        assert all(0 <= t < 4 for t in a)

    def test_data_aware_follows_ownership(self):
        runtime = self.make_runtime()
        grid = Grid((8, 8), name="g")
        runtime.register_item(grid)
        region = grid.box((0, 0), (4, 8))
        task = TaskSpec(name="t", writes={grid: region})
        ctx = PlacementContext(
            runtime, origin=0, lookup={grid: [(region, 2)]}
        )
        assert DataAwarePolicy().pick_target(task, ctx) == 2

    def test_data_aware_home_hint_for_untouched_data(self):
        runtime = self.make_runtime()
        grid = Grid((8, 8), name="g")
        runtime.register_item(grid)
        homes = runtime.home_map(grid)
        task = TaskSpec(name="t", writes={grid: homes[3]})
        ctx = PlacementContext(runtime, origin=0, lookup={})
        assert DataAwarePolicy().pick_target(task, ctx) == 3

    def test_data_aware_falls_back_to_origin(self):
        runtime = self.make_runtime()
        task = TaskSpec(name="t")
        ctx = PlacementContext(runtime, origin=1, lookup={})
        assert DataAwarePolicy().pick_target(task, ctx) == 1

    def test_variant_selection_by_granularity(self):
        runtime = self.make_runtime()
        policy = DataAwarePolicy()
        leafish = TaskSpec(name="l", size_hint=4, granularity=8,
                           splitter=lambda _owners: [])
        biggish = TaskSpec(name="b", size_hint=16, granularity=8,
                           splitter=lambda _owners: [])
        unsplittable = TaskSpec(name="u", size_hint=1e9)
        assert policy.pick_variant(leafish, runtime) == "leaf"
        assert policy.pick_variant(biggish, runtime) == "split"
        assert policy.pick_variant(unsplittable, runtime) == "leaf"
