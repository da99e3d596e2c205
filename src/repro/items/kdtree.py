"""kd-tree data item for the two-point-correlation application (paper §4.1).

TPC counts, for each query point, the number of points within a given
radius in 7-D space, via a pruned kd-tree traversal.  The kd-tree here is a
*complete* binary tree of configurable depth (internal nodes carry split
plane + bounding box + subtree count, leaves carry point buckets), which
maps directly onto the balanced-tree addressing of
:mod:`repro.regions.tree` — so sub-trees can be distributed across address
spaces exactly like any other tree data item.

Two constructions are provided:

* :func:`build_kdtree` — functional: median splits over real points, leaf
  buckets store the points; query results are exact and testable against
  brute force;
* :func:`synthetic_kdtree` — virtual: the structure (boxes, counts) for a
  uniform point population of arbitrary size, without materializing points.
  Traversals visit the same nodes a real uniform tree would, which is all
  the cost model needs; leaf tallies are estimated from box/ball overlap.

The per-node classification primitive :meth:`KDTreeStructure.classify`
drives both the sequential reference query and the distributed task-based
traversal of :mod:`repro.apps.tpc`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from repro.items.base import DataItem, Fragment, FragmentPayload
from repro.regions.base import Region
from repro.regions.tree import TreeGeometry, TreeRegion


class Visit(Enum):
    """Outcome of examining one node during a range-count traversal."""

    PRUNE_OUT = "prune_out"  # box entirely outside the ball: contribute 0
    PRUNE_IN = "prune_in"  # box entirely inside: contribute subtree count
    SCAN_LEAF = "scan_leaf"  # leaf partially overlapping: scan its bucket
    RECURSE = "recurse"  # internal node partially overlapping: descend


@dataclass
class QueryStats:
    """Work performed by one range-count query."""

    count: float = 0.0
    visited_nodes: int = 0
    scanned_points: float = 0.0


class KDTreeStructure:
    """Complete kd-tree in heap layout (node 1 is the root)."""

    def __init__(
        self,
        depth: int,
        dims: int,
        bbox_lo: np.ndarray,
        bbox_hi: np.ndarray,
        counts: np.ndarray,
        leaf_points: dict[int, np.ndarray] | None,
    ) -> None:
        self.geometry = TreeGeometry(depth)
        self._first_leaf = 1 << (depth - 1)  # heap ids from here on are leaves
        self.dims = dims
        self.bbox_lo = bbox_lo  # shape (num_nodes + 1, dims); row 0 unused
        self.bbox_hi = bbox_hi
        self.counts = counts  # points in each node's subtree
        self.leaf_points = leaf_points  # None => virtual structure

    @property
    def depth(self) -> int:
        return self.geometry.depth

    @property
    def num_nodes(self) -> int:
        return self.geometry.num_nodes

    @property
    def total_points(self) -> float:
        return float(self.counts[1])

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

    def query(self, q: Sequence[float], radius: float) -> QueryStats:
        """Sequential pruned range count from the root."""
        return self.query_from(1, q, radius)

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

    def brute_force_count(self, q: Sequence[float], radius: float) -> int:
        """Exact count over all leaf buckets (functional trees only)."""
        if self.leaf_points is None:
            raise RuntimeError("virtual kd-trees hold no points")
        q = np.asarray(q, dtype=np.float64)
        total = 0
        for points in self.leaf_points.values():
            if len(points) == 0:
                continue
            delta = points - q
            total += int(
                np.count_nonzero(
                    np.einsum("ij,ij->i", delta, delta) <= radius * radius
                )
            )
        return total


def build_kdtree(points: np.ndarray, depth: int) -> KDTreeStructure:
    """Median-split kd-tree over real points (functional mode).

    Splits along the widest axis of each node's point population; leaves
    are at level ``depth`` and hold the surviving buckets.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError("points must be a 2-D array (n, dims)")
    dims = points.shape[1]
    geometry = TreeGeometry(depth)
    size = geometry.num_nodes + 1
    bbox_lo = np.zeros((size, dims))
    bbox_hi = np.zeros((size, dims))
    counts = np.zeros(size, dtype=np.int64)
    leaf_points: dict[int, np.ndarray] = {}

    def rec(node: int, pts: np.ndarray) -> None:
        counts[node] = len(pts)
        if len(pts):
            bbox_lo[node] = pts.min(axis=0)
            bbox_hi[node] = pts.max(axis=0)
        if geometry.is_leaf(node):
            leaf_points[node] = pts
            return
        if len(pts) == 0:
            left = right = pts
        else:
            axis = int(np.argmax(bbox_hi[node] - bbox_lo[node]))
            order = np.argsort(pts[:, axis], kind="stable")
            half = len(pts) // 2
            left = pts[order[:half]]
            right = pts[order[half:]]
        rec(2 * node, left)
        rec(2 * node + 1, right)

    rec(1, points)
    return KDTreeStructure(depth, dims, bbox_lo, bbox_hi, counts, leaf_points)


def synthetic_kdtree(
    total_points: float,
    depth: int,
    low: Sequence[float],
    high: Sequence[float],
) -> KDTreeStructure:
    """Virtual kd-tree for ``total_points`` uniform points in a box.

    Boxes are midpoint splits along the widest axis (what median splits of
    a uniform population converge to); counts halve per level.  No points
    are materialized, so paper-scale trees (2²⁹ points) cost only the
    structure (O(2^depth) floats).
    """
    low = np.asarray(low, dtype=np.float64)
    high = np.asarray(high, dtype=np.float64)
    if low.shape != high.shape or low.ndim != 1:
        raise ValueError("low/high must be 1-D arrays of equal length")
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
    return KDTreeStructure(depth, dims, bbox_lo, bbox_hi, counts, None)


class KDTreeItem(DataItem):
    """Data item façade wrapping a :class:`KDTreeStructure`.

    The element universe is the tree's node set, addressed with the
    flexible sub-tree scheme of Fig. 4b; the runtime distributes the tree
    by assigning sub-tree regions to processes.
    """

    def __init__(
        self, structure: KDTreeStructure, name: str | None = None
    ) -> None:
        super().__init__(name)
        self.structure = structure
        self._full = TreeRegion.full(structure.geometry).interned()
        # storage per node: split metadata + bbox for internal nodes, the
        # point bucket for leaves; averaged into one per-element figure
        points_bytes = structure.total_points * structure.dims * 8
        meta_bytes = structure.num_nodes * (2 * structure.dims + 2) * 8
        self._bytes_per_node = max(
            1, int((points_bytes + meta_bytes) / structure.num_nodes)
        )

    @property
    def full_region(self) -> TreeRegion:
        return self._full

    @property
    def bytes_per_element(self) -> int:
        return self._bytes_per_node

    @property
    def geometry(self) -> TreeGeometry:
        return self.structure.geometry

    def subtree_region(self, root: int) -> TreeRegion:
        return TreeRegion.of_subtrees(self.geometry, [root])

    def decompose(self, parts: int) -> list[Region]:
        """Whole-sub-tree decomposition; top tree joins part 0.

        Matches how the TPC workload distributes its kd-tree: each process
        owns a contiguous band of sub-trees, so traversals stay local until
        they cross a sub-tree boundary.
        """
        if parts < 1:
            raise ValueError(f"parts must be >= 1, got {parts}")
        geometry = self.geometry
        level = 1
        while (1 << (level - 1)) < parts and level < geometry.depth:
            level += 1
        roots = list(range(1 << (level - 1), 1 << level))
        groups: list[list[int]] = [[] for _ in range(parts)]
        # contiguous bands (not round-robin): keeps sibling sub-trees —
        # which queries visit together — on the same process
        per = len(roots) / parts
        for k, root in enumerate(roots):
            groups[min(parts - 1, int(k / per))].append(root)
        top = TreeRegion.full(geometry)
        for root in roots:
            top = top.difference(TreeRegion.of_subtrees(geometry, [root]))
        regions: list[Region] = []
        for k, group in enumerate(groups):
            region = TreeRegion.of_subtrees(geometry, group)
            if k == 0:
                region = region.union(top)
            regions.append(region)
        return regions

    def new_fragment(
        self, region: Region, functional: bool = True
    ) -> "KDTreeFragment":
        return KDTreeFragment(self, region, functional)


class KDTreeFragment(Fragment):
    """Held region of the kd-tree; values live in the shared structure.

    The structure arrays are immutable after construction (TPC is a
    read-only workload), so fragments only track *which* nodes an address
    space holds — extraction/insertion move region membership and account
    bytes, matching what the real runtime would ship.
    """

    def __init__(self, item: KDTreeItem, region: Region, functional: bool) -> None:
        super().__init__(item, region, functional)
        self.kdtree: KDTreeItem = item

    def can_visit(self, node: int) -> bool:
        """Whether this fragment holds ``node`` (traversal locality test)."""
        return self.region.contains(node)

    def resize(self, new_region: Region) -> None:
        self._region = self.item.full_region.intersect(new_region)

    def extract(self, region: Region) -> FragmentPayload:
        part = self.region.intersect(region)
        return FragmentPayload(
            region=part, nbytes=self.item.region_bytes(part), data=None
        )

    def insert(self, payload: FragmentPayload) -> None:
        incoming = self.item.full_region.intersect(payload.region)
        self._region = self.region.union(incoming)
