"""Tests for data item implementations (façade/fragment behaviour)."""

import math
from enum import Enum
from typing import Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.tpc import (
    QUERY_CHUNK,
    QueryPlan,
    TPCWorkload,
    _plan_tops,
    make_problem,
)
from repro.items import (
    BalancedTree,
    Grid,
    KDTreeItem,
    KDTreeStructure,
    ScalarItem,
    build_kdtree,
    synthetic_kdtree,
)
from repro.items.kdtree import QueryStats
from repro.regions.tree import TreeGeometry
from repro.regions.box import Box
from repro.regions.blocked_tree import BlockedTreeRegion
from repro.regions.tree import TreeRegion


class TestGridItem:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            Grid(())
        with pytest.raises(ValueError):
            Grid((0, 4))
        with pytest.raises(ValueError):
            Grid((4, 4), element_bytes=0)

    def test_bytes_per_element(self):
        assert Grid((2, 2)).bytes_per_element == 8
        assert Grid((2, 2), dtype=np.float32).bytes_per_element == 4
        assert Grid((2, 2), element_bytes=100).bytes_per_element == 100

    def test_box_helper_clips(self):
        grid = Grid((4, 4))
        assert grid.box((2, 2), (10, 10)).size() == 4

    def test_decompose_partitions(self):
        grid = Grid((12, 12))
        parts = grid.decompose(5)
        assert len(parts) == 5
        total = grid.empty_region()
        for part in parts:
            assert total.intersect(part).is_empty()
            total = total.union(part)
        assert total.same_elements(grid.full_region)

    def test_declaration(self):
        grid = Grid((3, 3), name="g")
        decl = grid.declaration()
        assert decl.name == "g"
        assert decl.num_elements() == 9


class TestGridFragment:
    def setup_method(self):
        self.grid = Grid((8, 8), name="g")

    def test_gather_scatter_roundtrip(self):
        frag = self.grid.new_fragment(self.grid.box((0, 0), (8, 8)))
        window = Box.of((2, 2), (6, 6))
        frag.scatter(window, np.arange(16.0).reshape(4, 4))
        assert np.array_equal(
            frag.gather(window), np.arange(16.0).reshape(4, 4)
        )

    def test_gather_across_stored_boxes(self):
        region = self.grid.box((0, 0), (4, 8)).union(
            self.grid.box((4, 0), (8, 4))
        )
        frag = self.grid.new_fragment(region)
        frag.fill(lambda c: c[0] * 8 + c[1])
        window = Box.of((2, 0), (6, 4))
        values = frag.gather(window)
        assert values[0, 0] == 16 and values[3, 3] == 43

    def test_gather_outside_region_rejected(self):
        frag = self.grid.new_fragment(self.grid.box((0, 0), (4, 8)))
        with pytest.raises(KeyError):
            frag.gather(Box.of((2, 0), (6, 8)))

    def test_scatter_shape_checked(self):
        frag = self.grid.new_fragment(self.grid.full_region)
        with pytest.raises(ValueError):
            frag.scatter(Box.of((0, 0), (2, 2)), np.zeros((3, 3)))

    def test_resize_preserves_overlap(self):
        frag = self.grid.new_fragment(self.grid.box((0, 0), (4, 8)))
        frag.set((2, 3), 42.0)
        frag.resize(self.grid.box((2, 0), (6, 8)))
        assert frag.get((2, 3)) == 42.0
        with pytest.raises(KeyError):
            frag.get((0, 0))

    def test_extract_insert_moves_values(self):
        src = self.grid.new_fragment(self.grid.box((0, 0), (4, 8)))
        src.fill(lambda c: 1.0)
        dst = self.grid.new_fragment(self.grid.empty_region())
        dst.insert(src.extract(self.grid.box((1, 0), (3, 8))))
        assert dst.region.size() == 16
        assert dst.get((2, 5)) == 1.0

    def test_virtual_fragment_denies_value_access(self):
        frag = self.grid.new_fragment(self.grid.full_region, functional=False)
        with pytest.raises(RuntimeError):
            frag.get((0, 0))
        with pytest.raises(RuntimeError):
            frag.gather(Box.of((0, 0), (2, 2)))
        payload = frag.extract(self.grid.box((0, 0), (2, 8)))
        assert payload.nbytes == 16 * 8 and payload.data is None

    def test_virtual_payload_into_functional_rejected(self):
        functional = self.grid.new_fragment(self.grid.empty_region())
        virtual = self.grid.new_fragment(self.grid.full_region, functional=False)
        with pytest.raises(ValueError):
            functional.insert(virtual.extract(self.grid.full_region))


class TestScalarItem:
    def test_value_roundtrip(self):
        item = ScalarItem(name="s")
        frag = item.new_fragment(item.full_region)
        frag.set(2.5)
        assert frag.get() == 2.5
        payload = frag.extract(item.full_region)
        other = item.new_fragment(item.empty_region())
        other.insert(payload)
        assert other.get() == 2.5

    def test_empty_fragment_denies_access(self):
        item = ScalarItem()
        frag = item.new_fragment(item.empty_region())
        with pytest.raises(KeyError):
            frag.get()

    def test_resize_to_empty_drops_value(self):
        item = ScalarItem()
        frag = item.new_fragment(item.full_region)
        frag.set(1)
        frag.resize(item.empty_region())
        assert frag.value is None


class TestBalancedTree:
    def test_scheme_selection(self):
        flexible = BalancedTree(depth=4)
        blocked = BalancedTree(depth=4, scheme="blocked", root_height=2)
        assert isinstance(flexible.full_region, TreeRegion)
        assert isinstance(blocked.full_region, BlockedTreeRegion)
        with pytest.raises(ValueError):
            BalancedTree(depth=4, scheme="magic")

    def test_subtree_region_alignment(self):
        blocked = BalancedTree(depth=4, scheme="blocked", root_height=2)
        region = blocked.subtree_region(4)  # block root: aligned
        assert region.size() == 3
        with pytest.raises(ValueError):
            blocked.subtree_region(2)  # inside the root tree: not aligned
        flexible = BalancedTree(depth=4)
        assert flexible.subtree_region(2).size() == 7

    def test_nodes_region_only_flexible(self):
        blocked = BalancedTree(depth=4, scheme="blocked")
        with pytest.raises(ValueError):
            blocked.nodes_region([1])

    def test_decompose_both_schemes(self):
        for scheme in ("flexible", "blocked"):
            tree = BalancedTree(depth=5, scheme=scheme, root_height=2)
            parts = tree.decompose(3)
            assert len(parts) == 3
            total = tree.empty_region()
            for part in parts:
                assert total.intersect(part).is_empty()
                total = total.union(part)
            assert total.same_elements(tree.full_region)

    def test_fragment_values(self):
        tree = BalancedTree(depth=4)
        frag = tree.new_fragment(tree.subtree_region(2))
        frag.set(4, "x")
        assert frag.get(4) == "x"
        with pytest.raises(KeyError):
            frag.set(3, "y")  # node 3 not in subtree of 2
        other = tree.new_fragment(tree.subtree_region(3))
        other.insert(frag.extract(tree.subtree_region(4)))
        assert other.get(4) == "x"

    def test_fragment_resize_drops_values(self):
        tree = BalancedTree(depth=4)
        frag = tree.new_fragment(tree.full_region)
        frag.set(5, 1)
        frag.resize(tree.subtree_region(3))
        with pytest.raises(KeyError):
            frag.get(5)


class TestKDTree:
    def test_functional_query_matches_brute_force(self):
        rng = np.random.default_rng(7)
        points = rng.uniform(0, 100, size=(512, 3))
        tree = build_kdtree(points, depth=6)
        for _ in range(10):
            q = rng.uniform(0, 100, size=3)
            stats = tree.query(q, 25.0)
            assert stats.count == tree.brute_force_count(q, 25.0)
            assert stats.visited_nodes <= tree.num_nodes

    def test_pruning_reduces_work(self):
        rng = np.random.default_rng(8)
        points = rng.uniform(0, 100, size=(2048, 7))
        tree = build_kdtree(points, depth=8)
        stats = tree.query(rng.uniform(0, 100, size=7), 10.0)
        assert stats.visited_nodes < tree.num_nodes / 2
        assert stats.scanned_points < 2048

    def test_query_from_subtree_partition(self):
        rng = np.random.default_rng(9)
        points = rng.uniform(0, 100, size=(1024, 4))
        tree = build_kdtree(points, depth=6)
        q = rng.uniform(0, 100, size=4)
        whole = tree.query(q, 30.0).count
        # level-2 subtrees partition the point set
        split = sum(tree.query_from(r, q, 30.0).count for r in (2, 3))
        assert split == whole

    def test_synthetic_structure(self):
        tree = synthetic_kdtree(2**20, depth=10, low=[0] * 3, high=[100] * 3)
        assert tree.total_points == 2**20
        assert tree.leaf_points is None
        stats = tree.query([50, 50, 50], 20.0)
        assert stats.visited_nodes > 1
        with pytest.raises(RuntimeError):
            tree.brute_force_count([0, 0, 0], 1.0)

    def test_synthetic_counts_halve(self):
        tree = synthetic_kdtree(1024.0, depth=4, low=[0, 0], high=[8, 8])
        assert tree.counts[2] == tree.counts[3] == 512

    def test_item_and_fragment(self):
        rng = np.random.default_rng(10)
        tree = build_kdtree(rng.uniform(0, 100, (256, 2)), depth=5)
        item = KDTreeItem(tree, name="kd")
        assert item.bytes_per_element >= 1
        frag = item.new_fragment(item.subtree_region(2))
        assert frag.can_visit(4)
        assert not frag.can_visit(3)
        payload = frag.extract(item.subtree_region(4))
        other = item.new_fragment(item.subtree_region(3))
        other.insert(payload)
        assert other.can_visit(4)

    def test_item_decompose_contiguous_bands(self):
        tree = synthetic_kdtree(2**12, depth=8, low=[0] * 2, high=[1] * 2)
        item = KDTreeItem(tree)
        parts = item.decompose(4)
        total = item.empty_region()
        for part in parts:
            assert total.intersect(part).is_empty()
            total = total.union(part)
        assert total.same_elements(item.full_region)

    def test_build_validation(self):
        with pytest.raises(ValueError):
            build_kdtree(np.zeros(5), depth=3)
        with pytest.raises(ValueError):
            synthetic_kdtree(100, depth=4, low=[0, 0], high=[1])


# -- oracle: the scalar traversal the frontier traversal replaced ------------------
#
# Before the level-synchronous frontier traversal, every kd-tree traversal
# classified one node per call, and the synthetic tree and the TPC band
# placement were built by the loops below.  These are that implementation,
# verbatim (the methods lifted onto a test-only subclass); every observable
# of ``KDTreeStructure.traverse``, ``synthetic_kdtree`` and
# ``KDTreeItem.bands`` is compared against them.


class Visit(Enum):
    """Outcome of examining one node during a range-count traversal."""

    PRUNE_OUT = "prune_out"  # box entirely outside the ball: contribute 0
    PRUNE_IN = "prune_in"  # box entirely inside: contribute subtree count
    SCAN_LEAF = "scan_leaf"  # leaf partially overlapping: scan its bucket
    RECURSE = "recurse"  # internal node partially overlapping: descend


class ScalarKDTree(KDTreeStructure):
    def is_leaf(self, node: int) -> bool:
        return node >= self._first_leaf

    # -- geometric predicates ------------------------------------------------------

    def min_dist2(self, node: int, q: np.ndarray) -> float:
        """Squared distance from ``q`` to the node's bounding box."""
        d = np.maximum(self.bbox_lo[node] - q, 0.0)
        d = np.maximum(d, q - self.bbox_hi[node])
        return float(np.dot(d, d))

    def max_dist2(self, node: int, q: np.ndarray) -> float:
        """Squared distance from ``q`` to the farthest box corner."""
        d = np.maximum(np.abs(q - self.bbox_lo[node]), np.abs(q - self.bbox_hi[node]))
        return float(np.dot(d, d))

    def classify(self, node: int, q: np.ndarray, radius: float) -> Visit:
        r2 = radius * radius
        if self.min_dist2(node, q) > r2:
            return Visit.PRUNE_OUT
        if self.max_dist2(node, q) <= r2:
            return Visit.PRUNE_IN
        return Visit.SCAN_LEAF if self.is_leaf(node) else Visit.RECURSE

    def leaf_tally(self, node: int, q: np.ndarray, radius: float) -> float:
        """Points of leaf ``node`` within the ball (exact or estimated)."""
        if self.leaf_points is not None:
            points = self.leaf_points.get(node)
            if points is None or len(points) == 0:
                return 0.0
            delta = points - q
            return float(np.count_nonzero(np.einsum("ij,ij->i", delta, delta)
                                           <= radius * radius))
        # virtual: estimate by the fraction of the box inside the ball's
        # enclosing cube — deterministic and cheap; only the *cost* of the
        # scan matters for the benchmarks
        lo, hi = self.bbox_lo[node], self.bbox_hi[node]
        widths = np.maximum(hi - lo, 1e-300)
        overlap = np.minimum(hi, q + radius) - np.maximum(lo, q - radius)
        frac = float(np.prod(np.clip(overlap / widths, 0.0, 1.0)))
        return float(self.counts[node]) * frac * 0.5

    def query_from(
        self, start: int, q: Sequence[float], radius: float
    ) -> QueryStats:
        """Pruned range count restricted to the sub-tree rooted at ``start``.

        The unit of work the distributed TPC traversal ships to the
        process owning that sub-tree.
        """
        q = np.asarray(q, dtype=np.float64)
        stats = QueryStats()
        stack = [start]
        while stack:
            node = stack.pop()
            stats.visited_nodes += 1
            kind = self.classify(node, q, radius)
            if kind is Visit.PRUNE_OUT:
                continue
            if kind is Visit.PRUNE_IN:
                stats.count += float(self.counts[node])
            elif kind is Visit.SCAN_LEAF:
                stats.count += self.leaf_tally(node, q, radius)
                stats.scanned_points += float(self.counts[node])
            else:  # RECURSE: not a leaf
                stack.append(2 * node)
                stack.append(2 * node + 1)
        return stats


def scalar_plan_top(
    structure: ScalarKDTree, q: np.ndarray, radius: float, dist_level: int
) -> QueryPlan:
    """Traverse the (replicated) top tree, collecting sub-trees to descend."""
    plan = QueryPlan(top_count=0.0, top_visits=0)
    stack = [1]
    while stack:
        node = stack.pop()
        plan.top_visits += 1
        kind = structure.classify(node, q, radius)
        if kind is Visit.PRUNE_OUT:
            continue
        if kind is Visit.PRUNE_IN:
            plan.top_count += float(structure.counts[node])
            continue
        if node.bit_length() == dist_level:
            plan.recurse_roots.append(node)
            continue
        stack.extend(structure.geometry.children(node))
    return plan


def scalar_synthetic_boxes(
    total_points: float, depth: int, low: Sequence[float], high: Sequence[float]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The per-node loop ``synthetic_kdtree`` used to run."""
    low = np.asarray(low, dtype=np.float64)
    high = np.asarray(high, dtype=np.float64)
    dims = len(low)
    geometry = TreeGeometry(depth)
    size = geometry.num_nodes + 1
    bbox_lo = np.zeros((size, dims))
    bbox_hi = np.zeros((size, dims))
    counts = np.zeros(size, dtype=np.float64)
    bbox_lo[1] = low
    bbox_hi[1] = high
    counts[1] = total_points
    for node in range(1, geometry.num_nodes + 1):
        if geometry.is_leaf(node):
            continue
        axis = int(np.argmax(bbox_hi[node] - bbox_lo[node]))
        mid = 0.5 * (bbox_lo[node, axis] + bbox_hi[node, axis])
        for child, new_lo, new_hi in (
            (2 * node, None, mid),
            (2 * node + 1, mid, None),
        ):
            bbox_lo[child] = bbox_lo[node]
            bbox_hi[child] = bbox_hi[node]
            if new_lo is not None:
                bbox_lo[child, axis] = new_lo
            if new_hi is not None:
                bbox_hi[child, axis] = new_hi
            counts[child] = counts[node] / 2.0
    return bbox_lo, bbox_hi, counts


def scalar_bands(item: KDTreeItem, parts: int, interleave: bool) -> list:
    """The band placement ``make_problem`` used to build inline."""
    structure = item.structure
    nodes = parts
    band_level = 1
    while (1 << (band_level - 1)) < nodes and band_level < structure.depth:
        band_level += 1
    band_roots = list(range(1 << (band_level - 1), 1 << band_level))
    owner_of_band: dict[int, int] = {}
    per = len(band_roots) / nodes
    for k, root in enumerate(band_roots):
        if interleave:
            owner_of_band[root] = k % nodes
        else:
            owner_of_band[root] = min(nodes - 1, int(k / per))
    geometry = structure.geometry
    placement = []
    top = TreeRegion.full(geometry)
    for root in band_roots:
        top = top.difference(TreeRegion.of_subtrees(geometry, [root]))
    for pid in range(nodes):
        mine = [r for r in band_roots if owner_of_band[r] == pid]
        region = TreeRegion.of_subtrees(geometry, mine)
        if pid == 0:
            region = region.union(top)
        placement.append(region)
    return placement


def scalar(tree: KDTreeStructure) -> ScalarKDTree:
    return ScalarKDTree(
        tree.depth, tree.dims, tree.bbox_lo, tree.bbox_hi, tree.counts,
        tree.leaf_points,
    )


def assert_counts_match(new: float, old: float, functional: bool) -> None:
    # functional counts are integer sums; virtual leaf estimates are summed
    # in another order, so they may differ in the last bits
    if functional:
        assert new == old
    else:
        assert new == pytest.approx(old, rel=1e-12, abs=0.0)


@st.composite
def traversal_cases(draw):
    """A tree, a query on or off its box boundaries, and a radius."""
    dims = draw(st.integers(1, 7))
    depth = draw(st.integers(3, 10))
    functional = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    high = rng.uniform(1.0, 100.0, size=dims)
    if functional:
        # up to 300 points: at depth >= 10 leaves outnumber points, leaving
        # empty nodes with all-zero boxes
        points = rng.uniform(0.0, high, size=(draw(st.integers(1, 300)), dims))
        tree = build_kdtree(points, depth)
    else:
        total = draw(st.sampled_from([1000.0, 12345.0, float(2**24)]))
        tree = synthetic_kdtree(total, depth, [0.0] * dims, high)
    node = draw(st.integers(1, tree.num_nodes))
    lo, hi = tree.bbox_lo[node], tree.bbox_hi[node]
    where = draw(st.sampled_from(["uniform", "corner", "plane"]))
    q = rng.uniform(0.0, high)
    if where == "corner":
        q = np.where(rng.integers(0, 2, size=dims) == 1, lo, hi)
    elif where == "plane":
        axis = int(rng.integers(0, dims))
        q[axis] = lo[axis] if rng.integers(0, 2) else hi[axis]
    diagonal = float(np.sqrt(np.sum(high * high)))
    radius = draw(
        st.sampled_from(
            [0.0, 1e-9, 2.0 * diagonal + 1.0, float(rng.uniform(0.02, 0.6) * diagonal)]
        )
    )
    return tree, q, radius


class TestFrontierTraversal:
    """``traverse`` against the scalar oracle above."""

    @given(traversal_cases(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_scalar_traversal(self, case, data):
        tree, q, radius = case
        oracle = scalar(tree)
        functional = tree.leaf_points is not None
        stop = data.draw(st.integers(1, tree.depth))
        old_plan = scalar_plan_top(oracle, q, radius, stop)
        plan = _plan_tops(tree, q[None], radius, stop)[0]
        assert plan.recurse_roots == old_plan.recurse_roots
        assert plan.top_visits == old_plan.top_visits
        assert plan.top_count == old_plan.top_count
        # one pass below every root left open, and one per-root query
        roots = plan.recurse_roots
        walk = tree.traverse(np.tile(q, (len(roots), 1)), radius, roots)
        for i, root in enumerate(plan.recurse_roots):
            old = oracle.query_from(root, q, radius)
            assert int(walk.visited[i]) == old.visited_nodes
            assert float(walk.scanned[i]) == old.scanned_points
            assert_counts_match(float(walk.count[i]), old.count, functional)
            new = tree.query_from(root, q, radius)
            assert new.visited_nodes == old.visited_nodes
            assert new.scanned_points == old.scanned_points
            assert_counts_match(new.count, old.count, functional)
            # the cost model's flops, exactly
            assert (
                walk.visited[i] * 150.0 + walk.scanned[i] * 30.0
                == old.visited_nodes * 150.0 + old.scanned_points * 30.0
            )
        whole = tree.query(q, radius)
        old = oracle.query_from(1, q, radius)
        assert whole.visited_nodes == old.visited_nodes
        assert whole.scanned_points == old.scanned_points
        assert_counts_match(whole.count, old.count, functional)
        if functional:
            assert whole.count == tree.brute_force_count(q, radius)

    def test_no_roots(self):
        tree = synthetic_kdtree(1024.0, depth=4, low=[0, 0], high=[8, 8])
        walk = tree.traverse(np.zeros((0, 2)), 2.0, [])
        assert len(walk.visited) == len(walk.count) == 0
        assert walk.partial == []

    def test_one_query_point_per_root(self):
        tree = synthetic_kdtree(1024.0, depth=4, low=[0, 0], high=[8, 8])
        with pytest.raises(ValueError, match="one 2-D query point per root"):
            tree.traverse(np.array([1.0, 1.0]), 2.0, [1])
        with pytest.raises(ValueError):
            tree.traverse(np.zeros((2, 2)), 2.0, [1])

    def test_make_problem_matches_scalar_plans(self):
        # the repository benchmark's smoke TPC shape
        workload = TPCWorkload(
            total_points=2**24,
            depth=12,
            task_subtree_height=7,
            queries_total=96,
            visit_flops=150.0,
            point_flops=30.0,
            seed=1,
        )
        problem = make_problem(workload, 8)
        assert_problem_matches_scalar(problem)


def assert_problem_matches_scalar(problem) -> None:
    """Plans and band work of ``problem`` against the scalar oracle."""
    workload = problem.workload
    oracle = scalar(problem.structure)
    keys = []
    for qi, q in enumerate(problem.queries):
        old_plan = scalar_plan_top(oracle, q, workload.radius, problem.task_level)
        assert problem.plans[qi] == old_plan
        for root in old_plan.recurse_roots:
            old = oracle.query_from(root, q, workload.radius)
            flops, count = problem.band_work[(qi, root)]
            assert flops == (
                old.visited_nodes * workload.visit_flops
                + old.scanned_points * workload.point_flops
            )
            assert count == pytest.approx(old.count, rel=1e-12, abs=0.0)
            keys.append((qi, root))
    assert list(problem.band_work) == keys


def per_query_inspection(problem):
    """Plans and band work derived one query at a time: one top traversal
    and one descent per query, as ``make_problem`` did before chunking."""
    workload, structure = problem.workload, problem.structure
    plans, band_work = [], {}
    for qi, q in enumerate(problem.queries):
        plan = _plan_tops(structure, q[None], workload.radius, problem.task_level)[0]
        plans.append(plan)
        roots = plan.recurse_roots
        points = np.tile(q, (len(roots), 1))
        descent = structure.traverse(points, workload.radius, roots)
        flops = (
            descent.visited * workload.visit_flops
            + descent.scanned * workload.point_flops
        )
        for i, root in enumerate(roots):
            band_work[(qi, root)] = (float(flops[i]), float(descent.count[i]))
    return plans, band_work


def hex_floats(values) -> list[str]:
    return [float.hex(float(v)) for v in values]


def hexed(band_work):
    return [(key, hex_floats(work)) for key, work in band_work.items()]


class TestChunkedInspector:
    """Per-root query points: one batched pass equals one call per query."""

    @given(traversal_cases(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_batched_roots_match_one_call_per_query(self, case, data):
        tree, q, radius = case
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        stop = data.draw(st.one_of(st.none(), st.integers(1, tree.depth)))
        deepest = tree.depth if stop is None else stop
        lo, hi = tree.bbox_lo[1], tree.bbox_hi[1]
        queries = [q] + [rng.uniform(lo - 1.0, hi + 1.0) for _ in range(3)]
        roots_of = [
            rng.integers(1, 1 << deepest, size=int(rng.integers(0, 5))).tolist()
            for _ in queries
        ]
        points = np.array(
            [point for point, roots in zip(queries, roots_of) for _ in roots]
        ).reshape(-1, tree.dims)
        roots = [root for per_query in roots_of for root in per_query]
        batched = tree.traverse(points, radius, roots, stop)
        start = 0
        for point, own in zip(queries, roots_of):
            alone = tree.traverse(np.tile(point, (len(own), 1)), radius, own, stop)
            part = slice(start, start + len(own))
            assert batched.visited[part].tolist() == alone.visited.tolist()
            assert hex_floats(batched.scanned[part]) == hex_floats(alone.scanned)
            assert hex_floats(batched.count[part]) == hex_floats(alone.count)
            assert batched.partial[part] == alone.partial
            start += len(own)

    @pytest.mark.parametrize("functional", [False, True])
    @pytest.mark.parametrize("queries", [1, QUERY_CHUNK - 1, QUERY_CHUNK + 1])
    def test_make_problem_at_chunk_edges(self, queries, functional, monkeypatch):
        workload = TPCWorkload(
            total_points=4000 if functional else 2**20,
            depth=9,
            task_subtree_height=5,
            queries_total=queries,
            functional=functional,
            seed=3,
        )
        passes = []
        traverse = KDTreeStructure.traverse

        def counted(self, *args, **kwargs):
            passes.append(len(args[2]))
            return traverse(self, *args, **kwargs)

        monkeypatch.setattr(KDTreeStructure, "traverse", counted)
        problem = make_problem(workload, 4)
        monkeypatch.undo()
        # one top pass and one descent pass per chunk
        assert len(passes) == 2 * math.ceil(queries / QUERY_CHUNK)
        plans, band_work = per_query_inspection(problem)
        assert problem.plans == plans
        assert hexed(problem.band_work) == hexed(band_work)
        assert_problem_matches_scalar(problem)

    def test_query_leaving_no_subtree_open(self):
        # a radius between half and all of the box diagonal (264.6): a query
        # near the centre resolves the whole tree above the task level, one
        # near a corner still descends
        workload = TPCWorkload(
            total_points=2**20,
            depth=9,
            task_subtree_height=5,
            queries_total=QUERY_CHUNK + 1,
            radius=200.0,
            seed=5,
        )
        problem = make_problem(workload, 4)
        closed = [qi for qi, plan in enumerate(problem.plans) if not plan.recurse_roots]
        assert closed and len(closed) < len(problem.plans)
        asked = {qi for qi, _root in problem.band_work}
        for qi in closed:
            assert qi not in asked
            assert problem.plans[qi].top_count == problem.exact_count(qi)
        plans, band_work = per_query_inspection(problem)
        assert problem.plans == plans
        assert hexed(problem.band_work) == hexed(band_work)


class TestKDTreeConstruction:
    @pytest.mark.parametrize(
        "total, depth, low, high",
        [
            (2**29, 16, [0.0] * 7, [100.0] * 7),
            (1000.0, 1, [0.0], [1.0]),
            (12345.0, 9, [0.0, -3.0, 2.0], [5.0, 4.0, 9.5]),
            (2**20, 11, [0.0] * 4, [1.0, 1.0, 1.0, 1.0]),  # ties: first axis
        ],
    )
    def test_synthetic_matches_per_node_loop(self, total, depth, low, high):
        tree = synthetic_kdtree(total, depth, low, high)
        lo, hi, counts = scalar_synthetic_boxes(total, depth, low, high)
        assert np.array_equal(tree.bbox_lo, lo)
        assert np.array_equal(tree.bbox_hi, hi)
        assert np.array_equal(tree.counts, counts)

    def test_bands_match_inline_placement(self):
        item = KDTreeItem(synthetic_kdtree(2**12, depth=8, low=[0] * 2, high=[1] * 2))
        for parts in range(1, 65):
            contiguous = scalar_bands(item, parts, interleave=False)
            assert item.decompose(parts) == contiguous
            assert item.bands(parts, interleave=True)[2] == scalar_bands(
                item, parts, interleave=True
            )

    @pytest.mark.parametrize("interleave", [False, True])
    def test_tpc_placement_matches_inline_placement(self, interleave):
        workload = TPCWorkload(
            total_points=2**12,
            depth=8,
            task_subtree_height=3,
            queries_total=1,
            interleave_ownership=interleave,
        )
        for nodes in range(1, 65):
            problem = make_problem(workload, nodes)
            assert problem.placement == scalar_bands(problem.item, nodes, interleave)
