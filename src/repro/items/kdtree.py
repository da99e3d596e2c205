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

One traversal, :meth:`KDTreeStructure.traverse`, serves the sequential
reference query, the sub-tree descents and the top-tree plans of
:mod:`repro.apps.tpc`.  It is level-synchronous: each level classifies
the whole frontier below a set of roots with a few array operations and
sums the work per root.  Every root carries its own query point, so one
pass plans many queries at once — the top trees of a chunk of queries
(the root once per query), or every sub-tree those queries leave open.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.items.base import DataItem, Fragment, FragmentPayload
from repro.regions.base import Region
from repro.regions.tree import TreeGeometry, TreeRegion


@dataclass
class QueryStats:
    """Work performed by one range-count query."""

    count: float = 0.0
    visited_nodes: int = 0
    scanned_points: float = 0.0


@dataclass
class Traversal:
    """Per-root totals of one frontier traversal (entry ``i`` is ``roots[i]``,
    searched around query point ``i``)."""

    visited: np.ndarray
    scanned: np.ndarray
    count: np.ndarray
    #: per root, its partial nodes at the stop level in descending node id —
    #: the order a right-first depth-first traversal meets them
    partial: list[list[int]]


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

    def traverse(
        self,
        queries: np.ndarray,
        radius: float,
        roots: Sequence[int],
        stop_level: int | None = None,
    ) -> Traversal:
        """Pruned range count below each of ``roots``, a level at a time.

        ``queries`` is a ``(len(roots), dims)`` array: root ``i`` is searched
        around ``queries[i]``.  Every level classifies the whole frontier at
        once: a node whose box lies outside its query's ball is pruned, one
        inside it contributes its subtree count, a partial leaf is scanned
        and any other partial node descends.  Partial nodes at
        ``stop_level`` (no root may lie deeper) are collected in
        :attr:`Traversal.partial` instead of descended.
        """
        queries = np.asarray(queries, dtype=np.float64)
        n = len(roots)
        if queries.shape != (n, self.dims):
            raise ValueError(
                f"need one {self.dims}-D query point per root, "
                f"got shape {queries.shape} for {n} roots"
            )
        r2 = radius * radius
        stop = self.num_nodes + 1 if stop_level is None else 1 << (stop_level - 1)
        nodes = np.asarray(roots, dtype=np.int64)
        tags = np.arange(n)  # index of the root each node descends from
        visited = [tags]
        partial, partial_tags = [nodes[:0]], [tags[:0]]
        count_tags, count_vals = [tags[:0]], [np.zeros(0)]
        scan_tags, scan_vals = [tags[:0]], [np.zeros(0)]
        while len(nodes):
            q = queries[tags]
            lo, hi = self.bbox_lo[nodes], self.bbox_hi[nodes]
            below, above = lo - q, q - hi
            near = np.maximum(np.maximum(below, 0.0), above)
            far = np.maximum(np.abs(below), np.abs(above))
            outside = np.einsum("ij,ij->i", near, near) > r2
            inside = ~outside & (np.einsum("ij,ij->i", far, far) <= r2)
            count_tags.append(tags[inside])
            count_vals.append(self.counts[nodes[inside]])
            open_ = ~(outside | inside)
            at_stop = open_ & (nodes >= stop)
            partial.append(nodes[at_stop])
            partial_tags.append(tags[at_stop])
            open_ &= ~at_stop
            leaf = open_ & (nodes >= self._first_leaf)
            if leaf.any():
                count_tags.append(tags[leaf])
                count_vals.append(
                    self._leaf_tallies(nodes[leaf], q[leaf], radius)
                )
                scan_tags.append(tags[leaf])
                scan_vals.append(self.counts[nodes[leaf]])
                open_ &= ~leaf
            kids, tags = 2 * nodes[open_], tags[open_]
            nodes = np.concatenate((kids, kids + 1))
            tags = np.concatenate((tags, tags))
            visited.append(tags)
        # partial nodes grouped by root, each group in descending node id
        stopped, stopped_tags = np.concatenate(partial), np.concatenate(partial_tags)
        stopped = stopped[np.lexsort((-stopped, stopped_tags))].tolist()
        ends = np.cumsum(np.bincount(stopped_tags, minlength=n)).tolist()
        return Traversal(
            visited=np.bincount(np.concatenate(visited), minlength=n),
            scanned=np.bincount(
                np.concatenate(scan_tags), np.concatenate(scan_vals), minlength=n
            ),
            count=np.bincount(
                np.concatenate(count_tags), np.concatenate(count_vals), minlength=n
            ),
            partial=[stopped[a:b] for a, b in zip([0] + ends, ends)],
        )

    def _leaf_tallies(
        self, leaves: np.ndarray, q: np.ndarray, radius: float
    ) -> np.ndarray:
        """Points of each leaf within the ball around its row of ``q``
        (exact or estimated)."""
        if self.leaf_points is not None:
            bucket = self.leaf_points.get
            return np.array(
                [
                    _within(bucket(n), point, radius)
                    for n, point in zip(leaves.tolist(), q)
                ]
            )
        # virtual: estimate by the fraction of the box inside the ball's
        # enclosing cube — deterministic and cheap; only the *cost* of the
        # scan matters for the benchmarks
        lo, hi = self.bbox_lo[leaves], self.bbox_hi[leaves]
        widths = np.maximum(hi - lo, 1e-300)
        overlap = np.minimum(hi, q + radius) - np.maximum(lo, q - radius)
        frac = np.prod(np.clip(overlap / widths, 0.0, 1.0), axis=1)
        return self.counts[leaves] * frac * 0.5

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
        walk = self.traverse(np.reshape(q, (1, -1)), radius, [start])
        return QueryStats(
            count=float(walk.count[0]),
            visited_nodes=int(walk.visited[0]),
            scanned_points=float(walk.scanned[0]),
        )

    def brute_force_count(self, q: Sequence[float], radius: float) -> int:
        """Exact count over all leaf buckets (functional trees only)."""
        if self.leaf_points is None:
            raise RuntimeError("virtual kd-trees hold no points")
        q = np.asarray(q, dtype=np.float64)
        return sum(_within(bucket, q, radius) for bucket in self.leaf_points.values())


def _within(points: np.ndarray | None, q: np.ndarray, radius: float) -> int:
    """Exact number of ``points`` within ``radius`` of ``q``."""
    if points is None or len(points) == 0:
        return 0
    delta = points - q
    return int(
        np.count_nonzero(np.einsum("ij,ij->i", delta, delta) <= radius * radius)
    )


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
    # one level at a time: each parent's box split at the midpoint of its
    # widest axis (the first, on ties); children are heap ids 2p and 2p + 1
    for level in range(1, depth):
        first = 1 << (level - 1)
        parents = slice(first, 2 * first)
        lo, hi = bbox_lo[parents], bbox_hi[parents]
        rows = np.arange(first)
        axis = np.argmax(hi - lo, axis=1)
        mid = 0.5 * (lo[rows, axis] + hi[rows, axis])
        for side in (0, 1):
            kids = slice(2 * first + side, 4 * first, 2)
            bbox_lo[kids], bbox_hi[kids] = lo, hi
            counts[kids] = counts[parents] / 2.0
        left = 2 * (first + rows)
        bbox_hi[left, axis] = mid
        bbox_lo[left + 1, axis] = mid
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
        """Whole-sub-tree decomposition in contiguous bands (see :meth:`bands`)."""
        return self.bands(parts)[2]

    def bands(
        self, parts: int, interleave: bool = False
    ) -> tuple[int, dict[int, int], list[Region]]:
        """Deal the sub-trees of the band level out to ``parts`` processes.

        The band level is the shallowest with a sub-tree per process.
        Returns it, each band root's owner, and each process's region; the
        top tree above the bands joins part 0.  Contiguous bands (the
        default) keep sibling sub-trees — which queries visit together — on
        one process, so traversals stay local until they cross a sub-tree
        boundary; ``interleave`` deals them round-robin instead (the
        flexible Fig. 4b distribution, maximising locality crossings).
        """
        if parts < 1:
            raise ValueError(f"parts must be >= 1, got {parts}")
        geometry = self.geometry
        level = 1
        while (1 << (level - 1)) < parts and level < geometry.depth:
            level += 1
        roots = range(1 << (level - 1), 1 << level)
        per = len(roots) / parts
        owner = {
            root: k % parts if interleave else min(parts - 1, int(k / per))
            for k, root in enumerate(roots)
        }
        top = TreeRegion.full(geometry)
        for root in roots:
            top = top.difference(TreeRegion.of_subtrees(geometry, [root]))
        regions: list[Region] = []
        for pid in range(parts):
            region = TreeRegion.of_subtrees(
                geometry, [root for root in roots if owner[root] == pid]
            )
            regions.append(region.union(top) if pid == 0 else region)
        return level, owner, regions

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
