"""Blocked tree regions (Fig. 4c of the paper).

The coarse-grained alternative to the flexible include/exclude sub-tree
scheme: the overall tree of ``depth`` levels is divided into one *root tree*
of height ``h`` and ``2**h`` bottom sub-trees hanging off its leaves.  A
region is a bitmask of length ``2**h + 1`` — bit ``0`` selects the whole
root tree, bit ``k`` (``1 <= k <= 2**h``) selects the ``k``-th bottom
sub-tree.  All region algebra reduces to integer bitwise operations, making
this scheme far cheaper than the flexible one at the price of distribution
granularity.

Node addressing matches :mod:`repro.regions.tree` (binary-heap order), so
blocked regions convert losslessly into flexible :class:`TreeRegion` form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable, Iterable, Iterator

from repro.regions.base import Region, RegionMismatchError
from repro.regions.tree import TreeGeometry, TreeRegion


@dataclass(frozen=True)
class BlockedTreeGeometry:
    """A tree of ``depth`` levels blocked into a root tree of height ``h``."""

    depth: int
    root_height: int

    def __post_init__(self) -> None:
        if self.root_height < 1:
            raise ValueError(f"root_height must be >= 1, got {self.root_height}")
        if self.depth <= self.root_height:
            raise ValueError(
                f"depth ({self.depth}) must exceed root_height ({self.root_height})"
            )

    @property
    def tree(self) -> TreeGeometry:
        return TreeGeometry(self.depth)

    @property
    def num_blocks(self) -> int:
        """Number of bottom sub-trees: ``2**root_height``."""
        return 1 << self.root_height

    @property
    def mask_length(self) -> int:
        """Bitmask length from the paper: ``2**h + 1``."""
        return self.num_blocks + 1

    @property
    def root_tree_size(self) -> int:
        return (1 << self.root_height) - 1

    @property
    def block_size(self) -> int:
        """Nodes per bottom sub-tree."""
        return (1 << (self.depth - self.root_height)) - 1

    def block_root(self, block: int) -> int:
        """Heap id of the root node of bottom sub-tree ``block`` (1-based)."""
        if not (1 <= block <= self.num_blocks):
            raise ValueError(f"block {block} out of range 1..{self.num_blocks}")
        return self.num_blocks + block - 1

    def block_of(self, node: int) -> int | None:
        """Bottom sub-tree containing ``node``, or ``None`` if in root tree."""
        self.tree.check_node(node)
        level = node.bit_length()
        if level <= self.root_height:
            return None
        ancestor = node >> (level - self.root_height - 1)
        return ancestor - self.num_blocks + 1


class BlockedTreeRegion(Region):
    """Tree region addressed through the blocked bitmask scheme."""

    __slots__ = ("_geometry", "_mask")

    def __init__(self, geometry: BlockedTreeGeometry, mask: int = 0) -> None:
        if mask < 0 or mask >= (1 << geometry.mask_length):
            raise ValueError(
                f"mask {mask:#x} does not fit bitmask of length "
                f"{geometry.mask_length}"
            )
        self._geometry = geometry
        self._mask = mask
        self._rid: int | None = None

    # -- constructors ---------------------------------------------------------

    @classmethod
    def empty(cls, geometry: BlockedTreeGeometry) -> "BlockedTreeRegion":
        return cls(geometry, 0)

    @classmethod
    def full(cls, geometry: BlockedTreeGeometry) -> "BlockedTreeRegion":
        return cls(geometry, (1 << geometry.mask_length) - 1)

    @classmethod
    def root_tree(cls, geometry: BlockedTreeGeometry) -> "BlockedTreeRegion":
        return cls(geometry, 1)

    @classmethod
    def of_blocks(
        cls, geometry: BlockedTreeGeometry, blocks: Iterable[int],
        include_root_tree: bool = False,
    ) -> "BlockedTreeRegion":
        mask = 1 if include_root_tree else 0
        for block in blocks:
            if not (1 <= block <= geometry.num_blocks):
                raise ValueError(
                    f"block {block} out of range 1..{geometry.num_blocks}"
                )
            mask |= 1 << block
        return cls(geometry, mask)

    # -- views -----------------------------------------------------------------

    @property
    def geometry(self) -> BlockedTreeGeometry:
        return self._geometry

    @property
    def mask(self) -> int:
        return self._mask

    def has_root_tree(self) -> bool:
        return bool(self._mask & 1)

    def blocks(self) -> Iterator[int]:
        """Enumerate selected bottom sub-tree indices (1-based)."""
        mask = self._mask >> 1
        block = 1
        while mask:
            if mask & 1:
                yield block
            mask >>= 1
            block += 1

    def to_tree_region(self) -> TreeRegion:
        """Lossless conversion into the flexible include/exclude scheme."""
        geometry = self._geometry
        tree = geometry.tree
        includes: list[int] = []
        excludes: list[int] = []
        if self.has_root_tree():
            includes.append(1)
            for block in range(1, geometry.num_blocks + 1):
                if not self._mask & (1 << block):
                    excludes.append(geometry.block_root(block))
        else:
            includes.extend(
                geometry.block_root(block) for block in self.blocks()
            )
        return TreeRegion.of_subtrees(tree, includes, excludes)

    def representation_size(self) -> int:
        """Space cost of the scheme in bits — constant per geometry."""
        return self._geometry.mask_length

    def representation_words(self) -> int:
        """64-bit words the bitmask occupies."""
        return -(-self._geometry.mask_length // 64)

    # -- closure operations -------------------------------------------------------

    def _coerce(self, other: Region) -> "BlockedTreeRegion":
        if not isinstance(other, BlockedTreeRegion):
            raise RegionMismatchError(
                f"cannot combine BlockedTreeRegion with {type(other).__name__}"
            )
        if other._geometry != self._geometry:
            raise RegionMismatchError("blocked tree geometry mismatch")
        return other

    def _union(self, other: Region) -> "BlockedTreeRegion":
        other = self._coerce(other)
        return BlockedTreeRegion(self._geometry, self._mask | other._mask)

    def _intersect(self, other: Region) -> "BlockedTreeRegion":
        other = self._coerce(other)
        return BlockedTreeRegion(self._geometry, self._mask & other._mask)

    def _difference(self, other: Region) -> "BlockedTreeRegion":
        other = self._coerce(other)
        return BlockedTreeRegion(self._geometry, self._mask & ~other._mask)

    # -- cardinality and membership ------------------------------------------

    def cache_key(self) -> Hashable:
        geometry = self._geometry
        return ("btree", geometry.depth, geometry.root_height, self._mask)

    def _is_empty(self) -> bool:
        return self._mask == 0

    def size(self) -> int:
        geometry = self._geometry
        total = geometry.root_tree_size if self.has_root_tree() else 0
        block_bits = (self._mask >> 1).bit_count()
        return total + block_bits * geometry.block_size

    def elements(self) -> Iterator[int]:
        geometry = self._geometry
        tree = geometry.tree
        if self.has_root_tree():
            yield from range(1, geometry.root_tree_size + 1)
        for block in self.blocks():
            yield from tree.subtree_nodes(geometry.block_root(block))

    def contains(self, element: Any) -> bool:
        if not isinstance(element, int):
            return False
        geometry = self._geometry
        if not (1 <= element <= geometry.tree.num_nodes):
            return False
        block = geometry.block_of(element)
        if block is None:
            return self.has_root_tree()
        return bool(self._mask & (1 << block))

    # -- value semantics --------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BlockedTreeRegion):
            return NotImplemented
        return self._geometry == other._geometry and self._mask == other._mask

    def __hash__(self) -> int:
        return hash((self._geometry, self._mask))

    def __repr__(self) -> str:
        return (
            f"BlockedTreeRegion(depth={self._geometry.depth}, "
            f"h={self._geometry.root_height}, mask={self._mask:#x})"
        )
