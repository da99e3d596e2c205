"""Flexible sub-tree regions for balanced binary trees (Fig. 4b).

The paper describes tree regions given by two sets of sub-tree roots: an
*include* set enumerating covered sub-trees and an *exclude* set enumerating
sub-trees carved back out of the included ones.  Arbitrary node
distributions are expressible this way (any single node is its sub-tree
minus both child sub-trees), and the representation cost is proportional to
the number of "switch points" rather than the number of nodes.

Internally a region is a canonical *mark map*: ``marks[n] = True/False``
means membership switches to that value for node ``n`` and its whole
sub-tree until overridden by a deeper mark; the root default is "excluded".
Include/exclude views (the paper's presentation) are derived from the marks.
Canonicality makes ``==`` and ``hash`` cheap *and* semantic.

Nodes of a tree with ``depth`` levels are addressed in binary-heap order:
the root is ``1``, node ``n`` has children ``2n`` and ``2n+1``, and ids run
from ``1`` to ``2**depth - 1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Hashable, Iterable, Iterator, Mapping

from repro.regions.base import Region, RegionMismatchError


@dataclass(frozen=True)
class TreeGeometry:
    """Shape of a complete binary tree: ``depth`` levels, ``2**depth - 1`` nodes."""

    depth: int

    def __post_init__(self) -> None:
        if self.depth < 1:
            raise ValueError(f"tree depth must be >= 1, got {self.depth}")

    @property
    def num_nodes(self) -> int:
        return (1 << self.depth) - 1

    def level_of(self, node: int) -> int:
        """1-based level of ``node`` (root is level 1)."""
        self.check_node(node)
        return node.bit_length()

    def check_node(self, node: int) -> int:
        if not (1 <= node <= self.num_nodes):
            raise ValueError(
                f"node {node} out of range for tree with {self.num_nodes} nodes"
            )
        return node

    def is_leaf(self, node: int) -> bool:
        return self.level_of(node) == self.depth

    def parent(self, node: int) -> int | None:
        self.check_node(node)
        return node // 2 if node > 1 else None

    def children(self, node: int) -> tuple[int, ...]:
        if self.is_leaf(node):
            return ()
        return (2 * node, 2 * node + 1)

    def subtree_size(self, node: int) -> int:
        """Number of nodes in the complete sub-tree rooted at ``node``."""
        levels_below = self.depth - self.level_of(node) + 1
        return (1 << levels_below) - 1

    def subtree_nodes(self, node: int) -> Iterator[int]:
        self.check_node(node)
        frontier = [node]
        while frontier:
            n = frontier.pop()
            yield n
            frontier.extend(self.children(n))

    def leaves(self) -> Iterator[int]:
        return iter(range(1 << (self.depth - 1), 1 << self.depth))


def _merge_marks(
    a: Mapping[int, bool], b: Mapping[int, bool], op: Callable[[bool, bool], bool]
) -> dict[int, bool]:
    """Minimal change-point marks of ``op(a, b)`` taken node by node."""
    touched: set[int] = set()
    for node in (*a, *b):
        while node >= 1 and node not in touched:  # ancestors come with it
            touched.add(node)
            node //= 2
    marks: dict[int, bool] = {}

    def rec(node: int, ia: bool, ib: bool, inherited: bool) -> None:
        va = a.get(node, ia)
        vb = b.get(node, ib)
        vo = op(va, vb)
        if vo != inherited:
            marks[node] = vo
        # `touched` holds only in-range nodes, so membership of the heap
        # children is the whole leaf/range check
        if 2 * node in touched:
            rec(2 * node, va, vb, vo)
        if 2 * node + 1 in touched:
            rec(2 * node + 1, va, vb, vo)

    if touched:
        rec(1, False, False, False)
    return marks


def _canonical_marks(
    geometry: TreeGeometry, raw: Mapping[int, bool]
) -> dict[int, bool]:
    """Reduce an arbitrary mark map to its unique minimal change-point form."""
    for node in raw:
        geometry.check_node(node)
    return _merge_marks(raw, {}, lambda value, _: value)


class TreeRegion(Region):
    """Region over a complete binary tree in include/exclude sub-tree form."""

    __slots__ = ("_geometry", "_marks", "_key", "_ckey")

    def __init__(
        self, geometry: TreeGeometry, marks: Mapping[int, bool] | None = None
    ) -> None:
        self._geometry = geometry
        self._marks = _canonical_marks(geometry, marks or {})
        self._key = frozenset(self._marks.items())
        self._ckey: Hashable = None
        self._rid: int | None = None

    # -- constructors ---------------------------------------------------------

    @classmethod
    def empty(cls, geometry: TreeGeometry) -> "TreeRegion":
        return cls(geometry)

    @classmethod
    def full(cls, geometry: TreeGeometry) -> "TreeRegion":
        return cls(geometry, {1: True})

    @classmethod
    def of_subtrees(
        cls,
        geometry: TreeGeometry,
        includes: Iterable[int],
        excludes: Iterable[int] = (),
    ) -> "TreeRegion":
        """Build a region from the paper's include/exclude sub-tree sets.

        ``excludes`` win over ``includes`` when nested deeper (the paper's
        reading: excluded sub-trees are carved out of included ones).  When
        an include and an exclude name the same node, the exclude wins.
        """
        raw: dict[int, bool] = {}
        for node in includes:
            raw[geometry.check_node(node)] = True
        for node in excludes:
            raw[geometry.check_node(node)] = False
        return cls(geometry, raw)

    @classmethod
    def of_nodes(cls, geometry: TreeGeometry, nodes: Iterable[int]) -> "TreeRegion":
        """Region addressing exactly the given individual nodes.

        An included node implicitly covers its whole sub-tree, so every child
        of an included node must carry an explicit mark shielding (or
        re-including) it; canonicalization then drops redundant marks.
        """
        node_set = {geometry.check_node(n) for n in nodes}
        raw: dict[int, bool] = {}
        for node in node_set:
            raw[node] = True
            for child in geometry.children(node):
                raw[child] = child in node_set
        return cls(geometry, raw)

    # -- views -----------------------------------------------------------------

    @property
    def geometry(self) -> TreeGeometry:
        return self._geometry

    @property
    def marks(self) -> Mapping[int, bool]:
        return dict(self._marks)

    def include_roots(self) -> frozenset[int]:
        """Sub-tree roots where membership switches on (paper's include set)."""
        return frozenset(n for n, v in self._marks.items() if v)

    def exclude_roots(self) -> frozenset[int]:
        """Sub-tree roots where membership switches off (paper's exclude set)."""
        return frozenset(n for n, v in self._marks.items() if not v)

    def representation_size(self) -> int:
        """Number of stored switch points — the scheme's space cost."""
        return len(self._marks)

    # -- closure operations -------------------------------------------------------

    def _coerce(self, other: Region) -> "TreeRegion":
        if not isinstance(other, TreeRegion):
            raise RegionMismatchError(
                f"cannot combine TreeRegion with {type(other).__name__}"
            )
        if other._geometry != self._geometry:
            raise RegionMismatchError(
                f"tree geometry mismatch: depth {self._geometry.depth} "
                f"vs {other._geometry.depth}"
            )
        return other

    def _combine(
        self, other: "TreeRegion", op: Callable[[bool, bool], bool]
    ) -> "TreeRegion":
        marks = _merge_marks(self._marks, other._marks, op)
        result = TreeRegion.__new__(TreeRegion)
        result._geometry = self._geometry
        result._marks = marks
        result._key = frozenset(marks.items())
        result._ckey = None
        result._rid = None
        return result

    def _union(self, other: Region) -> "TreeRegion":
        return self._combine(self._coerce(other), lambda a, b: a or b)

    def _intersect(self, other: Region) -> "TreeRegion":
        return self._combine(self._coerce(other), lambda a, b: a and b)

    def _difference(self, other: Region) -> "TreeRegion":
        return self._combine(self._coerce(other), lambda a, b: a and not b)

    # -- cardinality and membership ------------------------------------------

    def cache_key(self) -> Hashable:
        if self._ckey is None:
            self._ckey = ("tree", self._geometry.depth, self._key)
        return self._ckey

    def _is_empty(self) -> bool:
        return not self._marks

    def size(self) -> int:
        geometry = self._geometry
        internal = {n // 2 for n in self._marks if n > 1}
        closure: set[int] = set()
        for node in internal:
            m = node
            while m >= 1 and m not in closure:
                closure.add(m)
                m //= 2

        def rec(node: int, inherited: bool) -> int:
            value = self._marks.get(node, inherited)
            children = geometry.children(node)
            if not any(c in closure or c in self._marks for c in children):
                return geometry.subtree_size(node) if value else 0
            total = 1 if value else 0
            for child in children:
                total += rec(child, value)
            return total

        return rec(1, False) if self._marks else 0

    def elements(self) -> Iterator[int]:
        geometry = self._geometry

        def rec(node: int, inherited: bool) -> Iterator[int]:
            value = self._marks.get(node, inherited)
            if value:
                yield node
            for child in geometry.children(node):
                yield from rec(child, value)

        if self._marks:
            yield from rec(1, False)

    def contains(self, element: Any) -> bool:
        if not isinstance(element, int):
            return False
        if not (1 <= element <= self._geometry.num_nodes):
            return False
        node = element
        while node >= 1:
            if node in self._marks:
                return self._marks[node]
            node //= 2
        return False

    # -- value semantics --------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TreeRegion):
            return NotImplemented
        return self._geometry == other._geometry and self._key == other._key

    def __hash__(self) -> int:
        return hash((self._geometry, self._key))

    def __repr__(self) -> str:
        inc = sorted(self.include_roots())
        exc = sorted(self.exclude_roots())
        return (
            f"TreeRegion(depth={self._geometry.depth}, "
            f"include={inc}, exclude={exc})"
        )
