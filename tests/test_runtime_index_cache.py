"""Tests for origin-side index lookup caching (§6 gap-closing extension)."""


from repro.apps.tpc import TPCWorkload, make_problem, tpc_allscale
from repro.items.graph import PartitionedGraph
from repro.items.grid import Grid
from repro.runtime.config import RuntimeConfig
from repro.runtime.index import HierarchicalIndex
from repro.sim.cluster import Cluster, ClusterSpec


def make_index(num_processes=4):
    cluster = Cluster(ClusterSpec(num_nodes=num_processes, cores_per_node=1))
    return cluster, HierarchicalIndex(cluster.network, num_processes)


def run(cluster, gen):
    future = cluster.engine.spawn(gen)
    cluster.engine.run()
    return future.value


class TestLookupCache:
    def setup_method(self):
        self.cluster, self.index = make_index()
        # interval regions are canonical and hashable — cacheable
        self.item = PartitionedGraph(64, name="g")
        self.index.register_item(self.item)
        self.parts = self.item.decompose(4)
        for pid, region in enumerate(self.parts):
            self.index.update_ownership(self.item, pid, region)

    def test_second_lookup_hits_and_costs_nothing(self):
        region = self.parts[3]
        first = run(
            self.cluster,
            self.index.lookup_cached(self.item, region, 0),
        )
        hops_after_first = self.index.lookup_hops
        second = run(
            self.cluster,
            self.index.lookup_cached(self.item, region, 0),
        )
        assert self.index.cache_hits == 1
        assert self.index.lookup_hops == hops_after_first  # no new messages
        assert second[0] == first[0]

    def test_ownership_update_invalidates(self):
        region = self.parts[3]
        run(self.cluster, self.index.lookup_cached(self.item, region, 0))
        # move ownership: the cached mapping is now stale
        self.index.update_ownership(self.item, 3, self.item.empty_region())
        self.index.update_ownership(
            self.item,
            2,
            self.index.owned_region(self.item, 2).union(region),
        )
        mapping, unresolved = run(
            self.cluster, self.index.lookup_cached(self.item, region, 0)
        )
        assert self.index.cache_misses >= 2
        assert {pid for _r, pid in mapping} == {2}
        assert unresolved.is_empty()

    def test_per_origin_entries(self):
        region = self.parts[1]
        run(self.cluster, self.index.lookup_cached(self.item, region, 0))
        run(self.cluster, self.index.lookup_cached(self.item, region, 2))
        assert self.index.cache_hits == 0  # distinct origins, distinct caches
        run(self.cluster, self.index.lookup_cached(self.item, region, 2))
        assert self.index.cache_hits == 1

    def test_locality_cache_serves_subregions(self):
        # learn a big region once, then any covered sub-request is free
        whole = self.item.full_region
        run(self.cluster, self.index.lookup_cached(self.item, whole, 0))
        hops = self.index.lookup_hops
        from repro.regions.interval import IntervalRegion

        sub = IntervalRegion.span(10, 20)
        mapping, unresolved = run(
            self.cluster, self.index.lookup_cached(self.item, sub, 0)
        )
        assert self.index.cache_hits == 1
        assert self.index.lookup_hops == hops
        assert unresolved.is_empty()
        total = self.item.empty_region()
        for piece, pid in mapping:
            assert self.parts[pid].covers(piece)
            total = total.union(piece)
        assert total.same_elements(sub)

    def test_box_regions_cache_too(self):
        # the locality cache needs no hashing: box-set regions work
        grid = Grid((8, 8), name="boxes")
        self.index.register_item(grid)
        for pid, region in enumerate(grid.decompose(4)):
            self.index.update_ownership(grid, pid, region)
        region = grid.decompose(4)[0]
        run(self.cluster, self.index.lookup_cached(grid, region, 0))
        run(self.cluster, self.index.lookup_cached(grid, region, 0))
        assert self.index.cache_hits == 1


class TestCachingImprovesTPC:
    """Tree regions, static TPC ownership: what the locality cache buys.

    A split's children are placed from their parent's lookup, so when
    every query arrives at once the record already serves what the cache
    used to (1,086 hops without the cache before the record, 577 with
    it).  The cache still pays when queries arrive in waves: later waves
    are served from what the first ones taught it."""

    @staticmethod
    def run_tpc(caching, waves=1):
        workload = TPCWorkload(
            total_points=2**22,
            depth=12,
            queries_total=96,
            functional=False,
            visit_flops=150.0,
            point_flops=30.0,
            submission_waves=waves,
        )
        nodes = 8
        cluster = Cluster(
            ClusterSpec(num_nodes=nodes, cores_per_node=4, flops_per_core=2.4e9)
        )
        result = tpc_allscale(
            cluster,
            workload,
            RuntimeConfig(functional=False, index_caching=caching),
            problem=make_problem(workload, nodes),
        )
        index = result.extras["runtime"].index
        return result.throughput, index.cache_hits, index.lookup_hops

    def test_cache_adds_no_hop_on_the_default_path(self):
        base_qps, base_hits, base_hops = self.run_tpc(False)
        cached_qps, _cached_hits, cached_hops = self.run_tpc(True)
        assert base_hits == 0
        assert base_hops <= 577
        # the cache adds no hop and costs no throughput
        assert cached_hops <= base_hops
        assert cached_qps >= base_qps

    def test_cache_cuts_hops_under_submission_waves(self):
        base_qps, base_hits, base_hops = self.run_tpc(False, waves=8)
        cached_qps, cached_hits, cached_hops = self.run_tpc(True, waves=8)
        assert base_hits == 0
        assert cached_hits > 0
        assert cached_hops < base_hops
        assert cached_qps >= base_qps * 0.95


class TestNoOpUpdateKeepsCache:
    def test_noop_ownership_update_preserves_cache(self):
        """Regression: re-asserting the ownership already recorded used to
        bump the item's version — wiping every origin's locality cache and
        emitting maintenance messages for a change that never happened."""
        cluster, index = make_index()
        item = PartitionedGraph(64, name="g")
        index.register_item(item)
        parts = item.decompose(4)
        for pid, region in enumerate(parts):
            index.update_ownership(item, pid, region)
        region = parts[3]
        run(cluster, index.lookup_cached(item, region, 0))
        assert index.cache_misses == 1
        messages_before = index.update_messages
        # identical leaf content, fresh (non-identical) region object
        index.update_ownership(item, 3, parts[3].union(item.empty_region()))
        assert index.update_messages == messages_before
        run(cluster, index.lookup_cached(item, region, 0))
        assert index.cache_hits == 1
