"""Balanced binary tree data item with selectable region scheme.

The paper's Fig. 4b/4c present the same tree structure under two different
region schemes — flexible include/exclude sub-trees and blocked bitmasks.
:class:`BalancedTree` supports both: pass ``scheme="flexible"`` (default)
or ``scheme="blocked"`` with a root-tree height.  The choice trades
representation cost against distribution flexibility; ablation A of
``python -m repro.bench --ablations`` measures exactly this trade-off.

Nodes are addressed in binary-heap order (root = 1), matching
:mod:`repro.regions.tree`.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.items.base import DataItem, Fragment, FragmentPayload
from repro.regions.base import Region
from repro.regions.blocked_tree import BlockedTreeGeometry, BlockedTreeRegion
from repro.regions.tree import TreeGeometry, TreeRegion


class BalancedTree(DataItem):
    """Complete binary tree of ``depth`` levels holding one value per node."""

    def __init__(
        self,
        depth: int,
        scheme: str = "flexible",
        root_height: int | None = None,
        bytes_per_node: int = 8,
        name: str | None = None,
    ) -> None:
        super().__init__(name)
        self.geometry = TreeGeometry(depth)
        if scheme not in ("flexible", "blocked"):
            raise ValueError(f"unknown region scheme {scheme!r}")
        self.scheme = scheme
        self._nbytes = bytes_per_node
        if scheme == "blocked":
            if root_height is None:
                root_height = max(1, depth // 2)
            self.blocked_geometry: BlockedTreeGeometry | None = (
                BlockedTreeGeometry(depth=depth, root_height=root_height)
            )
            self._full: Region = BlockedTreeRegion.full(self.blocked_geometry).interned()
        else:
            self.blocked_geometry = None
            self._full = TreeRegion.full(self.geometry).interned()

    @property
    def depth(self) -> int:
        return self.geometry.depth

    @property
    def full_region(self) -> Region:
        return self._full

    @property
    def bytes_per_element(self) -> int:
        return self._nbytes

    # -- region helpers in the item's own scheme -------------------------------

    def subtree_region(self, root: int) -> Region:
        """Region covering the sub-tree rooted at ``root``.

        Under the blocked scheme the sub-tree must align with the blocking
        (the whole root tree, or whole bottom blocks); that loss of
        flexibility is the point of the scheme.
        """
        if self.scheme == "flexible":
            return TreeRegion.of_subtrees(self.geometry, [root])
        geometry = self.blocked_geometry
        assert geometry is not None
        level = root.bit_length()
        if level == geometry.root_height + 1:
            block = root - geometry.num_blocks + 1
            return BlockedTreeRegion.of_blocks(geometry, [block])
        if root == 1:
            return BlockedTreeRegion.full(geometry)
        raise ValueError(
            f"sub-tree at node {root} does not align with the blocked scheme"
        )

    def nodes_region(self, nodes: Iterable[int]) -> Region:
        if self.scheme == "flexible":
            return TreeRegion.of_nodes(self.geometry, nodes)
        raise ValueError("blocked scheme cannot address individual nodes")

    def decompose(self, parts: int) -> list[Region]:
        """Split the tree into ``parts`` regions of whole sub-trees.

        Bottom sub-trees at a level with at least ``parts`` of them are
        dealt out round-robin; the small top tree joins part 0.  Under the
        blocked scheme the split level is fixed by the blocking.
        """
        if parts < 1:
            raise ValueError(f"parts must be >= 1, got {parts}")
        if self.scheme == "blocked":
            geometry = self.blocked_geometry
            assert geometry is not None
            groups: list[list[int]] = [[] for _ in range(parts)]
            for block in range(1, geometry.num_blocks + 1):
                groups[(block - 1) % parts].append(block)
            out: list[Region] = [
                BlockedTreeRegion.of_blocks(
                    geometry, blocks, include_root_tree=(k == 0)
                )
                for k, blocks in enumerate(groups)
            ]
            return out
        level = 1
        while (1 << (level - 1)) < parts and level < self.depth:
            level += 1
        roots = list(range(1 << (level - 1), 1 << level))
        groups = [[] for _ in range(parts)]
        for k, root in enumerate(roots):
            groups[k % parts].append(root)
        regions: list[Region] = []
        top = TreeRegion.full(self.geometry)
        for root in roots:
            top = top.difference(TreeRegion.of_subtrees(self.geometry, [root]))
        for k, group in enumerate(groups):
            region = TreeRegion.of_subtrees(self.geometry, group)
            if k == 0:
                region = region.union(top)
            regions.append(region)
        return regions

    def new_fragment(
        self, region: Region, functional: bool = True
    ) -> "TreeFragment":
        return TreeFragment(self, region, functional)


class TreeFragment(Fragment):
    """Node values for a region of the tree, held in one address space."""

    def __init__(self, item: BalancedTree, region: Region, functional: bool) -> None:
        super().__init__(item, region, functional)
        self.tree: BalancedTree = item
        self._values: dict[int, Any] = {}

    def get(self, node: int) -> Any:
        self._check_access(node)
        return self._values.get(node)

    def set(self, node: int, value: Any) -> None:
        self._check_access(node)
        self._values[node] = value

    def _check_access(self, node: int) -> None:
        if not self.functional:
            raise RuntimeError("virtual fragments carry no values")
        if not self.region.contains(node):
            raise KeyError(f"node {node} not held by this fragment")

    def resize(self, new_region: Region) -> None:
        new_region = self.item.full_region.intersect(new_region)
        if self.functional:
            self._values = {
                n: v for n, v in self._values.items() if new_region.contains(n)
            }
        self._region = new_region

    def extract(self, region: Region) -> FragmentPayload:
        part = self.region.intersect(region)
        data = None
        if self.functional:
            data = {n: self._values.get(n) for n in part.elements()}
        return FragmentPayload(
            region=part, nbytes=self.item.region_bytes(part), data=data
        )

    def insert(self, payload: FragmentPayload) -> None:
        incoming = self.item.full_region.intersect(payload.region)
        self._region = self.region.union(incoming)
        if self.functional:
            if payload.data is None:
                raise ValueError("functional fragment received a virtual payload")
            self._values.update(payload.data)
