"""Unit tests for flexible tree regions (Fig. 4b) and their geometry."""

from typing import Callable, Mapping

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.regions.base import RegionMismatchError
from repro.regions.tree import TreeGeometry, TreeRegion


class TestTreeGeometry:
    def test_node_count(self):
        assert TreeGeometry(1).num_nodes == 1
        assert TreeGeometry(4).num_nodes == 15

    def test_levels(self):
        g = TreeGeometry(4)
        assert g.level_of(1) == 1
        assert g.level_of(2) == 2
        assert g.level_of(15) == 4

    def test_parent_children(self):
        g = TreeGeometry(4)
        assert g.parent(1) is None
        assert g.parent(7) == 3
        assert g.children(3) == (6, 7)
        assert g.children(8) == ()  # leaf

    def test_subtree_size(self):
        g = TreeGeometry(4)
        assert g.subtree_size(1) == 15
        assert g.subtree_size(2) == 7
        assert g.subtree_size(8) == 1

    def test_subtree_nodes(self):
        g = TreeGeometry(3)
        assert set(g.subtree_nodes(2)) == {2, 4, 5}

    def test_leaves(self):
        g = TreeGeometry(3)
        assert list(g.leaves()) == [4, 5, 6, 7]

    def test_bounds_checked(self):
        g = TreeGeometry(3)
        with pytest.raises(ValueError):
            g.check_node(0)
        with pytest.raises(ValueError):
            g.check_node(8)

    def test_invalid_depth(self):
        with pytest.raises(ValueError):
            TreeGeometry(0)


class TestTreeRegion:
    def setup_method(self):
        self.g = TreeGeometry(4)

    def test_empty_and_full(self):
        assert TreeRegion.empty(self.g).is_empty()
        full = TreeRegion.full(self.g)
        assert full.size() == 15
        assert set(full.elements()) == set(range(1, 16))

    def test_example_2_1_tree(self):
        # the paper's balanced binary tree of height 4 with 15 nodes
        assert TreeRegion.full(TreeGeometry(4)).size() == 15

    def test_of_subtrees_include_exclude(self):
        # Fig. 4b style: include subtree of 2, carve out subtree of 4
        region = TreeRegion.of_subtrees(self.g, includes=[2], excludes=[4])
        expected = set(self.g.subtree_nodes(2)) - set(self.g.subtree_nodes(4))
        assert set(region.elements()) == expected

    def test_exclude_wins_on_same_node(self):
        region = TreeRegion.of_subtrees(self.g, includes=[2], excludes=[2])
        assert region.is_empty()

    def test_of_nodes_single(self):
        region = TreeRegion.of_nodes(self.g, [1])
        assert set(region.elements()) == {1}

    def test_of_nodes_arbitrary(self):
        nodes = {1, 5, 9, 14}
        region = TreeRegion.of_nodes(self.g, nodes)
        assert set(region.elements()) == nodes

    def test_canonical_equality(self):
        # whole subtree of 2 expressed two ways
        a = TreeRegion.of_subtrees(self.g, [2])
        b = TreeRegion.of_nodes(self.g, self.g.subtree_nodes(2))
        assert a == b
        assert hash(a) == hash(b)

    def test_include_exclude_views(self):
        region = TreeRegion.of_subtrees(self.g, includes=[2], excludes=[5])
        assert region.include_roots() == {2}
        assert region.exclude_roots() == {5}

    def test_representation_size_is_small(self):
        # "at most three nodes to characterize the regions" (Fig. 4b text)
        region = TreeRegion.of_subtrees(self.g, includes=[1], excludes=[5])
        assert region.representation_size() <= 3

    def test_algebra(self):
        a = TreeRegion.of_subtrees(self.g, [2])
        b = TreeRegion.of_subtrees(self.g, [5])
        assert set((a - b).elements()) == set(self.g.subtree_nodes(2)) - set(
            self.g.subtree_nodes(5)
        )
        assert (a & b) == b  # 5 is inside subtree of 2
        assert (a | b) == a

    def test_contains(self):
        region = TreeRegion.of_subtrees(self.g, [3])
        assert region.contains(6)
        assert region.contains(13)
        assert not region.contains(2)
        assert not region.contains(99)
        assert not region.contains("x")

    def test_geometry_mismatch_rejected(self):
        other = TreeRegion.full(TreeGeometry(3))
        with pytest.raises(RegionMismatchError):
            TreeRegion.full(self.g).union(other)

    def test_size_matches_enumeration(self):
        region = TreeRegion.of_subtrees(self.g, includes=[1], excludes=[4, 6])
        assert region.size() == len(set(region.elements()))


    def test_elements_run_in_preorder(self):
        region = TreeRegion.of_subtrees(self.g, includes=[1], excludes=[4, 6])
        assert list(region.elements()) == [1, 2, 5, 10, 11, 3, 7, 14, 15]


class TestPreorderPositions:
    @pytest.mark.parametrize("depth", range(1, 7))
    def test_position_is_the_dfs_rank(self, depth):
        g = TreeGeometry(depth)
        order = []

        def dfs(node):
            order.append(node)
            for child in g.children(node):
                dfs(child)

        dfs(1)
        assert [g.position(n) for n in order] == list(range(g.num_nodes))
        assert [g.node_at(p) for p in range(g.num_nodes)] == order
        for node in order:
            lo, hi = g.subtree_span(node)
            assert order[lo:hi] == [n for n in order if n in set(g.subtree_nodes(node))]

    def test_out_of_range(self):
        g = TreeGeometry(3)
        with pytest.raises(ValueError):
            g.position(8)
        with pytest.raises(ValueError):
            g.node_at(7)


# -- oracle: the mark-merge implementation the span form replaced ------------------
#
# Until PR 18 a region *stored* its minimal change-point mark map and merged
# two maps node by node.  The two functions below are that implementation,
# verbatim; every observable of the span form is compared against it.


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



class MarkOracle:
    """A tree region as the retired implementation computed it."""

    def __init__(self, geometry: TreeGeometry, marks: Mapping[int, bool]):
        self.geometry = geometry
        self.marks = _canonical_marks(geometry, marks)

    def combine(self, other: "MarkOracle", op) -> "MarkOracle":
        result = MarkOracle(self.geometry, {})
        result.marks = _merge_marks(self.marks, other.marks, op)
        return result

    def elements(self) -> list[int]:
        out: list[int] = []

        def rec(node: int, inherited: bool) -> None:
            value = self.marks.get(node, inherited)
            if value:
                out.append(node)
            for child in self.geometry.children(node):
                rec(child, value)

        rec(1, False)
        return out


def _assert_same(region: TreeRegion, oracle: MarkOracle) -> None:
    elements = oracle.elements()
    assert list(region.elements()) == elements  # DFS order included
    assert region.size() == len(elements)
    assert region.is_empty() == (not elements)
    members = set(elements)
    for node in range(0, region.geometry.num_nodes + 2):
        assert region.contains(node) == (node in members)
    assert region.marks == oracle.marks
    assert region.include_roots() == {n for n, v in oracle.marks.items() if v}
    assert region.exclude_roots() == {n for n, v in oracle.marks.items() if not v}
    assert region.representation_size() == len(oracle.marks)


@st.composite
def _raw_marks(draw, depth):
    nodes = st.integers(1, (1 << depth) - 1)
    return draw(st.dictionaries(nodes, st.booleans(), max_size=12))


@st.composite
def _mark_pairs(draw):
    depth = draw(st.integers(1, 8))
    return TreeGeometry(depth), draw(_raw_marks(depth)), draw(_raw_marks(depth))


class TestSpanFormAgainstMarkOracle:
    @given(_mark_pairs())
    @settings(max_examples=300, deadline=None)
    def test_constructor_views_and_algebra(self, case):
        g, raw_a, raw_b = case
        a, b = TreeRegion(g, raw_a), TreeRegion(g, raw_b)
        oa, ob = MarkOracle(g, raw_a), MarkOracle(g, raw_b)
        _assert_same(a, oa)
        _assert_same(b, ob)
        _assert_same(a._union(b), oa.combine(ob, lambda x, y: x or y))
        _assert_same(a._intersect(b), oa.combine(ob, lambda x, y: x and y))
        _assert_same(a._difference(b), oa.combine(ob, lambda x, y: x and not y))
        uncovered = oa.combine(ob, lambda x, y: y and not x)
        assert a.covers(b) == (not uncovered.marks)
        # canonical: equal element sets are equal, hash-equal regions
        assert (a == b) == (oa.marks == ob.marks)
        if oa.marks == ob.marks:
            assert hash(a) == hash(b) and a.cache_key() == b.cache_key()
        rebuilt = TreeRegion(g, a.marks)  # the derived view round-trips
        assert rebuilt == a and hash(rebuilt) == hash(a)

    @given(_mark_pairs())
    @settings(max_examples=150, deadline=None)
    def test_of_subtrees_and_of_nodes(self, case):
        g, raw_a, raw_b = case
        # includes and excludes drawn independently: excludes nested in
        # includes, includes nested in excludes, and the same node in both
        includes, excludes = list(raw_a), list(raw_b)
        raw = {**dict.fromkeys(includes, True), **dict.fromkeys(excludes, False)}
        _assert_same(TreeRegion.of_subtrees(g, includes, excludes), MarkOracle(g, raw))
        # a node set, as the retired ``of_nodes`` spelled it: every picked
        # node switches on and shields (or re-includes) both children
        picked = set(includes)
        shielded: dict[int, bool] = {}
        for node in picked:
            shielded[node] = True
            for child in g.children(node):
                shielded[child] = child in picked
        region = TreeRegion.of_nodes(g, includes)
        _assert_same(region, MarkOracle(g, shielded))
        assert set(region.elements()) == picked
