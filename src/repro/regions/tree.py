"""Flexible sub-tree regions for balanced binary trees (Fig. 4b).

The paper describes tree regions given by two sets of sub-tree roots: an
*include* set enumerating covered sub-trees and an *exclude* set enumerating
sub-trees carved back out of the included ones.  Arbitrary node
distributions are expressible this way (any single node is its sub-tree
minus both child sub-trees), and the representation cost is proportional to
the number of "switch points" rather than the number of nodes.

In a complete binary tree every sub-tree is one contiguous run of
*pre-order positions* (root first, then the left sub-tree, then the right),
so an include/exclude set *is* a sorted interval set over those positions.
That is the stored form: a region is its canonical tuple of sorted,
disjoint, non-touching ``(lo, hi)`` position spans, and union /
intersection / difference are the ``O(n + m)`` span merges of
:mod:`repro.regions.interval`.  Canonicality makes ``==`` and ``hash``
cheap *and* semantic.

The paper's presentation is a view derived on demand: ``marks[n] =
True/False`` means membership switches to that value for node ``n`` and its
whole sub-tree until overridden by a deeper mark (the root default is
"excluded"), and a node is marked iff its membership differs from its
parent's — the minimal change-point map.  ``include_roots`` /
``exclude_roots`` are its two halves, ``representation_size`` its length.

Nodes of a tree with ``depth`` levels are addressed in binary-heap order:
the root is ``1``, node ``n`` has children ``2n`` and ``2n+1``, and ids run
from ``1`` to ``2**depth - 1``.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Any, Hashable, Iterable, Iterator, Mapping

from repro.regions.base import Region, RegionMismatchError
from repro.regions.bounds import Hull
from repro.regions.interval import (
    Span,
    Spans,
    intersect_spans,
    normalize_spans,
    spans_contain,
    subtract_spans,
)


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

    # -- pre-order positions ------------------------------------------------------

    def position(self, node: int) -> int:
        """0-based pre-order position of ``node``.

        Each step down the root path passes the parent (+1) and, going
        right, the whole left sub-tree as well.
        """
        self.check_node(node)
        level = node.bit_length()
        turns = node - (1 << (level - 1))  # the path below the root, as bits
        return level - 1 + (turns << (self.depth - level + 1)) - turns.bit_count()

    def subtree_span(self, node: int) -> Span:
        """The contiguous run of pre-order positions of ``node``'s sub-tree."""
        lo = self.position(node)
        return lo, lo + self.subtree_size(node)

    def node_at(self, position: int) -> int:
        """Inverse of :meth:`position`."""
        if not (0 <= position < self.num_nodes):
            raise ValueError(f"position {position} out of range")
        node, below = 1, self.num_nodes >> 1  # size of either child sub-tree
        while position:
            position -= 1
            node *= 2
            if position >= below:
                position -= below
                node += 1
            below >>= 1
        return node


def _spans_of_marks(geometry: TreeGeometry, raw: Mapping[int, bool]) -> Spans:
    """Position spans of an arbitrary mark map, in one pre-order pass.

    Each mark paints its sub-tree's span with its value until a deeper
    mark overrides it.  Sub-tree spans nest or are disjoint and pre-order
    visits ancestors first, so a stack of the open enclosing marks yields
    the value changes in position order.
    """
    painted = sorted(
        geometry.subtree_span(node) + (value,) for node, value in raw.items()
    )
    changes: list[tuple[int, bool]] = []  # (position, membership from there on)
    enclosing: list[tuple[int, bool]] = []  # (end, value) of the open marks

    def close() -> None:
        end, _ = enclosing.pop()
        changes.append((end, enclosing[-1][1] if enclosing else False))

    for lo, hi, value in painted:
        while enclosing and enclosing[-1][0] <= lo:
            close()
        changes.append((lo, value))
        enclosing.append((hi, value))
    while enclosing:
        close()
    spans: list[Span] = []
    start: int | None = None
    for k, (position, value) in enumerate(changes):
        if k + 1 < len(changes) and changes[k + 1][0] == position:
            continue  # overridden at the same position: the last change wins
        if value and start is None:
            start = position
        elif not value and start is not None:
            spans.append((start, position))
            start = None
    return tuple(spans)


class TreeRegion(Region):
    """Region over a complete binary tree, stored as pre-order position spans."""

    __slots__ = ("_geometry", "_spans", "_ckey")

    def __init__(
        self, geometry: TreeGeometry, marks: Mapping[int, bool] | None = None
    ) -> None:
        self._geometry = geometry
        self._spans: Spans = _spans_of_marks(geometry, marks) if marks else ()
        self._ckey: Hashable = None
        self._rid: int | None = None

    # -- constructors ---------------------------------------------------------

    @classmethod
    def _of_spans(cls, geometry: TreeGeometry, spans: Spans) -> "TreeRegion":
        """Wrap an already-canonical span tuple."""
        region = cls(geometry)
        region._spans = spans
        return region

    @classmethod
    def empty(cls, geometry: TreeGeometry) -> "TreeRegion":
        return cls(geometry)

    @classmethod
    def full(cls, geometry: TreeGeometry) -> "TreeRegion":
        return cls._of_spans(geometry, ((0, geometry.num_nodes),))

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
        raw: dict[int, bool] = dict.fromkeys(includes, True)
        raw.update(dict.fromkeys(excludes, False))
        return cls(geometry, raw)

    @classmethod
    def of_nodes(cls, geometry: TreeGeometry, nodes: Iterable[int]) -> "TreeRegion":
        """Region addressing exactly the given individual nodes."""
        positions = map(geometry.position, nodes)
        return cls._of_spans(geometry, normalize_spans((p, p + 1) for p in positions))

    # -- views -----------------------------------------------------------------

    @property
    def geometry(self) -> TreeGeometry:
        return self._geometry

    @property
    def marks(self) -> Mapping[int, bool]:
        """The minimal change-point map: a node is marked iff its
        membership differs from its parent's (the root's from "excluded")."""
        edges = [edge for span in self._spans for edge in span]
        marks: dict[int, bool] = {}

        def descend(node: int, lo: int, size: int, inherited: bool) -> None:
            k = bisect_right(edges, lo)  # odd: inside a span
            value = bool(k & 1)
            if value != inherited:
                marks[node] = value
            if k < len(edges) and edges[k] < lo + size:  # a change further down
                below = size >> 1
                descend(2 * node, lo + 1, below, value)
                descend(2 * node + 1, lo + 1 + below, below, value)

        descend(1, 0, self._geometry.num_nodes, False)
        return marks

    def include_roots(self) -> frozenset[int]:
        """Sub-tree roots where membership switches on (paper's include set)."""
        return frozenset(n for n, v in self.marks.items() if v)

    def exclude_roots(self) -> frozenset[int]:
        """Sub-tree roots where membership switches off (paper's exclude set)."""
        return frozenset(n for n, v in self.marks.items() if not v)

    def representation_size(self) -> int:
        """Number of switch points — the scheme's space cost (Fig. 4b)."""
        return len(self.marks)

    def representation_words(self) -> int:
        """64-bit words the representation occupies: one node id per
        switch point."""
        return len(self.marks)

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

    def _union(self, other: Region) -> "TreeRegion":
        spans = normalize_spans(self._spans + self._coerce(other)._spans)
        return TreeRegion._of_spans(self._geometry, spans)

    def _intersect(self, other: Region) -> "TreeRegion":
        spans = intersect_spans(self._spans, self._coerce(other)._spans)
        return TreeRegion._of_spans(self._geometry, spans)

    def _difference(self, other: Region) -> "TreeRegion":
        spans = subtract_spans(self._spans, self._coerce(other)._spans)
        return TreeRegion._of_spans(self._geometry, spans)

    def _empty_like(self) -> "TreeRegion":
        return TreeRegion(self._geometry)

    def _compute_hull(self) -> Hull:
        if not self._spans:
            return None
        space = ("preorder", self._geometry.depth)
        return (space, (self._spans[0][0],), (self._spans[-1][1],))

    # -- cardinality and membership ------------------------------------------

    def cache_key(self) -> Hashable:
        if self._ckey is None:
            self._ckey = ("tree", self._geometry.depth, self._spans)
        return self._ckey

    def _is_empty(self) -> bool:
        return not self._spans

    def size(self) -> int:
        return sum(hi - lo for lo, hi in self._spans)

    def elements(self) -> Iterator[int]:
        """Node ids in pre-order (node, left sub-tree, right sub-tree)."""
        first_leaf = 1 << (self._geometry.depth - 1)
        for lo, hi in self._spans:
            node = self._geometry.node_at(lo)
            for _ in range(hi - lo):
                yield node
                if node < first_leaf:
                    node *= 2
                else:  # leave every finished right sub-tree, step to the sibling
                    while node & 1:
                        node >>= 1
                    node += 1

    def contains(self, element: Any) -> bool:
        if not isinstance(element, int):
            return False
        if not (1 <= element <= self._geometry.num_nodes):
            return False
        return spans_contain(self._spans, self._geometry.position(element))

    # -- value semantics --------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TreeRegion):
            return NotImplemented
        return self._spans == other._spans and self._geometry == other._geometry

    def __hash__(self) -> int:
        return hash((self._geometry, self._spans))

    def __repr__(self) -> str:
        marks = self.marks
        inc = sorted(n for n, v in marks.items() if v)
        exc = sorted(n for n, v in marks.items() if not v)
        return (
            f"TreeRegion(depth={self._geometry.depth}, "
            f"include={inc}, exclude={exc})"
        )
