"""Unit tests for the canonical region kernel (interning + memoization)."""

import pytest

from repro.items.grid import Grid
from repro.regions.box import Box, BoxSetRegion
from repro.regions.explicit import ExplicitSetRegion
from repro.regions.interval import IntervalRegion
from repro.regions.kernel import RegionKernel, get_kernel
from repro.regions.tree import TreeGeometry, TreeRegion
from repro.runtime.config import RuntimeConfig
from repro.runtime.runtime import AllScaleRuntime
from repro.runtime.tasks import TaskSpec
from repro.sim.cluster import Cluster, ClusterSpec


class TestInterning:
    def test_equal_regions_collapse_to_one_object(self):
        kernel = RegionKernel()
        a = ExplicitSetRegion([1, 2, 3])
        b = ExplicitSetRegion([3, 2, 1])
        assert a is not b
        assert kernel.intern(a) is kernel.intern(b)

    def test_first_instance_becomes_representative(self):
        kernel = RegionKernel()
        a = IntervalRegion([(0, 5)])
        assert kernel.intern(a) is a
        assert kernel.intern(IntervalRegion([(0, 5)])) is a

    def test_canonical_box_forms_intern_together(self):
        kernel = RegionKernel()
        # two different box decompositions of the same element set
        a = BoxSetRegion([Box.of((0, 0), (2, 4))])
        b = BoxSetRegion([Box.of((0, 0), (2, 2)), Box.of((0, 2), (2, 4))])
        assert kernel.intern(a) is kernel.intern(b)

    def test_different_families_never_collide(self):
        kernel = RegionKernel()
        a = ExplicitSetRegion([1, 2])
        b = IntervalRegion([(1, 3)])  # same element set {1, 2}
        assert kernel.intern(a) is not kernel.intern(b)

    def test_intern_table_is_bounded(self):
        kernel = RegionKernel(intern_capacity=4)
        for k in range(10):
            kernel.intern(ExplicitSetRegion([k]))
        assert kernel.live_interned == 4
        assert kernel.interned == 10  # monotone counter keeps the total

    def test_interned_method_on_region(self):
        a = ExplicitSetRegion([7])
        assert a.interned() is get_kernel().intern(a)


class TestMemoization:
    def test_repeat_op_hits_cache_and_returns_same_object(self):
        kernel = RegionKernel()
        a = IntervalRegion([(0, 4)])
        b = IntervalRegion([(2, 8)])
        first = kernel.union(a, b)
        hits = kernel.cache_hits
        assert kernel.union(a, b) is first
        assert kernel.cache_hits == hits + 1

    def test_symmetric_ops_share_cache_entries(self):
        kernel = RegionKernel()
        a = IntervalRegion([(0, 4)])
        b = IntervalRegion([(2, 8)])
        first = kernel.union(a, b)
        misses = kernel.cache_misses
        assert kernel.union(b, a) is first  # operand order normalized away
        assert kernel.cache_misses == misses

    def test_difference_is_order_sensitive(self):
        kernel = RegionKernel()
        a = IntervalRegion([(0, 4)])
        b = IntervalRegion([(2, 8)])
        assert not kernel.difference(a, b).same_elements(
            kernel.difference(b, a)
        )

    def test_predicates_memoized(self):
        kernel = RegionKernel()
        a = IntervalRegion([(0, 8)])
        b = IntervalRegion([(2, 4)])
        assert kernel.covers(a, b)
        hits = kernel.cache_hits
        assert kernel.covers(a, b)
        assert kernel.cache_hits == hits + 1
        assert kernel.overlaps(a, b)
        assert kernel.overlaps(b, a)

    def test_op_cache_is_bounded(self):
        kernel = RegionKernel(op_capacity=4)
        regions = [IntervalRegion([(k, k + 2)]) for k in range(12)]
        for k in range(11):
            kernel.union(regions[k], regions[k + 1])
        # oldest entry evicted: recomputing it is a miss, not a hit
        misses = kernel.cache_misses
        kernel.union(regions[0], regions[1])
        assert kernel.cache_misses == misses + 1

    def test_failed_ops_propagate_and_are_not_cached(self):
        kernel = RegionKernel()
        geometry = TreeGeometry(3)
        other_geometry = TreeGeometry(4)
        a = TreeRegion.of_nodes(geometry, [1])
        b = TreeRegion.of_nodes(other_geometry, [1])
        from repro.regions.base import RegionMismatchError

        with pytest.raises(RegionMismatchError):
            kernel.union(a, b)
        with pytest.raises(RegionMismatchError):
            kernel.union(a, b)  # still raises on the second attempt

    def test_stats_shape(self):
        kernel = RegionKernel()
        a = IntervalRegion([(0, 4)])
        b = IntervalRegion([(2, 8)])
        kernel.union(a, b)
        kernel.union(a, b)
        kernel.is_empty(a)
        stats = kernel.stats()
        assert stats["region.cache_hits"] == 1
        assert stats["region.cache_misses"] == 1
        assert stats["region.interned"] >= 3  # a, b, a∪b
        assert stats["region.union.hits"] == 1
        assert stats["region.union.misses"] == 1
        assert stats["region.is_empty.calls"] == 1

    def test_reset(self):
        kernel = RegionKernel()
        kernel.union(IntervalRegion([(0, 4)]), IntervalRegion([(2, 8)]))
        kernel.reset()
        assert kernel.cache_hits == 0
        assert kernel.cache_misses == 0
        assert kernel.interned == 0
        assert kernel.live_interned == 0


# fresh instances per test: an interned region keeps its id across kernels
DISJOINT_PAIRS = {
    "box": lambda: (
        BoxSetRegion([Box.of((0, 0), (4, 4)), Box.of((0, 6), (2, 8))]),
        BoxSetRegion([Box.of((4, 0), (8, 4))]),  # touching: half-open corners
    ),
    "interval": lambda: (IntervalRegion([(0, 4), (6, 8)]), IntervalRegion([(8, 12)])),
    "tree": lambda: (
        TreeRegion.of_subtrees(TreeGeometry(4), [2], [5]),
        TreeRegion.of_subtrees(TreeGeometry(4), [6]),
    ),
}
OVERLAPPING_PAIRS = {
    "box": lambda: (
        BoxSetRegion([Box.of((0, 0), (4, 4))]),
        BoxSetRegion([Box.of((2, 2), (6, 6))]),
    ),
    "interval": lambda: (IntervalRegion([(0, 4)]), IntervalRegion([(2, 8)])),
    "tree": lambda: (
        TreeRegion.of_subtrees(TreeGeometry(4), [2]),
        TreeRegion.of_nodes(TreeGeometry(4), [1, 5]),
    ),
}


class TestHullGate:
    """Counted, not timed: a hull-disjoint pair reaches neither the family
    algebra nor the memo, and an overlapping pair is memoized as before."""

    @staticmethod
    def _count_family_calls(monkeypatch, family):
        calls = {"_intersect": 0, "_difference": 0, "_covers": 0}
        for name in calls:
            original = getattr(family, name)

            def counted(self, other, _name=name, _original=original):
                calls[_name] += 1
                return _original(self, other)

            monkeypatch.setattr(family, name, counted)
        return calls

    @pytest.mark.parametrize("family", DISJOINT_PAIRS)
    def test_disjoint_hulls_skip_algebra_and_memo(self, monkeypatch, family):
        kernel = RegionKernel()
        a, b = map(kernel.intern, DISJOINT_PAIRS[family]())
        calls = self._count_family_calls(monkeypatch, type(a))
        for _ in range(2):
            for x, y in ((a, b), (b, a)):
                cut = kernel.intersect(x, y)
                assert cut.is_empty() and kernel.intern(cut) is cut
                assert kernel.difference(x, y) is x
                assert not kernel.covers(x, y)
                assert not kernel.overlaps(x, y)
        assert calls == {"_intersect": 0, "_difference": 0, "_covers": 0}
        assert len(kernel._ops) == 0
        stats = kernel.stats()
        assert stats["region.hull_rejects"] == 16
        assert stats["region.cache_hits"] == stats["region.cache_misses"] == 0
        assert stats["region.interned"] == 3  # a, b and the family's empty

    @pytest.mark.parametrize("family", OVERLAPPING_PAIRS)
    def test_overlapping_pair_is_one_miss_then_hits(self, monkeypatch, family):
        kernel = RegionKernel()
        a, b = OVERLAPPING_PAIRS[family]()
        calls = self._count_family_calls(monkeypatch, type(a))
        first = kernel.intersect(a, b)
        assert not first.is_empty()
        for _ in range(3):
            assert kernel.intersect(a, b) is first
            assert kernel.intersect(b, a) is first
        assert calls["_intersect"] == 1
        stats = kernel.stats()
        assert stats["region.intersect.misses"] == 1
        assert stats["region.intersect.hits"] == 6
        assert stats["region.hull_rejects"] == 0
        assert len(kernel._ops) == 1

    def test_families_without_a_hull_are_never_rejected(self):
        from repro.regions.blocked_tree import (
            BlockedTreeGeometry,
            BlockedTreeRegion,
        )

        blocked = BlockedTreeGeometry(depth=4, root_height=2)
        kernel = RegionKernel()
        for a, b in (
            (ExplicitSetRegion([1]), ExplicitSetRegion([9])),
            (
                BlockedTreeRegion.of_blocks(blocked, [1]),
                BlockedTreeRegion.of_blocks(blocked, [4]),
            ),
        ):
            assert kernel.intersect(a, b).is_empty()
            assert not kernel.overlaps(a, b)
        stats = kernel.stats()
        assert stats["region.hull_rejects"] == 0
        assert stats["region.cache_misses"] == 4

    def test_reset_clears_the_reject_counter(self):
        kernel = RegionKernel()
        kernel.overlaps(*DISJOINT_PAIRS["interval"]())
        assert kernel.stats()["region.hull_rejects"] == 1
        kernel.reset()
        assert kernel.stats()["region.hull_rejects"] == 0


class TestPublicApiRouting:
    """Region.union/intersect/difference/covers route through the kernel."""

    def test_union_routes_through_singleton(self):
        kernel = get_kernel()
        a = ExplicitSetRegion([1, 2])
        b = ExplicitSetRegion([2, 3])
        before = kernel.cache_hits + kernel.cache_misses
        a.union(b)
        after = kernel.cache_hits + kernel.cache_misses
        assert after == before + 1

    def test_all_five_families_return_interned_results(self):
        kernel = get_kernel()
        from repro.regions.blocked_tree import (
            BlockedTreeGeometry,
            BlockedTreeRegion,
        )

        geometry = TreeGeometry(4)
        blocked = BlockedTreeGeometry(depth=4, root_height=2)
        pairs = [
            (ExplicitSetRegion([1, 2]), ExplicitSetRegion([2, 3])),
            (IntervalRegion([(0, 4)]), IntervalRegion([(2, 6)])),
            (
                BoxSetRegion([Box.of((0, 0), (3, 3))]),
                BoxSetRegion([Box.of((1, 1), (4, 4))]),
            ),
            (
                TreeRegion.of_nodes(geometry, [1, 2]),
                TreeRegion.of_nodes(geometry, [2, 3]),
            ),
            (
                BlockedTreeRegion.of_blocks(blocked, [1]),
                BlockedTreeRegion.of_blocks(blocked, [2]),
            ),
        ]
        for a, b in pairs:
            for op in ("union", "intersect", "difference"):
                result = getattr(a, op)(b)
                assert kernel.intern(result) is result


class TestRuntimeMetrics:
    def test_kernel_counters_published_to_runtime_metrics(self):
        cluster = Cluster(
            ClusterSpec(num_nodes=2, cores_per_node=2, flops_per_core=1e9)
        )
        runtime = AllScaleRuntime(cluster, RuntimeConfig(functional=False))
        grid = Grid((8, 8), name="g")
        runtime.register_item(grid, placement=grid.decompose(2))
        region = runtime.process(0).data_manager.owned_region(grid)
        task = TaskSpec(
            name="t",
            reads={grid: region},
            writes={grid: region},
            flops=1e3,
            size_hint=16,
        )
        runtime.wait(runtime.submit(task, origin=0))
        snapshot = runtime.metrics.snapshot()
        for name in (
            "region.cache_hits",
            "region.cache_misses",
            "region.interned",
        ):
            assert name in snapshot
        # scheduling + registration exercise the region algebra
        total = (
            snapshot["region.cache_hits"] + snapshot["region.cache_misses"]
        )
        assert total > 0

    def test_metrics_are_deltas_per_runtime(self):
        # churn the process-wide kernel before creating the runtime; the
        # runtime's published counters must not include that history
        for k in range(50):
            ExplicitSetRegion([k]).union(ExplicitSetRegion([k + 1]))
        kernel_total = get_kernel().cache_hits + get_kernel().cache_misses
        cluster = Cluster(
            ClusterSpec(num_nodes=1, cores_per_node=1, flops_per_core=1e9)
        )
        runtime = AllScaleRuntime(cluster, RuntimeConfig(functional=False))
        runtime.sync_region_metrics()
        snapshot = runtime.metrics.snapshot()
        published = (
            snapshot["region.cache_hits"] + snapshot["region.cache_misses"]
        )
        assert published < kernel_total
