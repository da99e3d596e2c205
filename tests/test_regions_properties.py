"""Property-based tests: every region type is a faithful set algebra.

Section 3.1 requires region types to be closed under union, intersection
and set-difference.  Each strategy draws arbitrary regions of a type and
checks the three operations element-for-element against the explicit-set
reference, plus the algebraic laws the runtime relies on.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.regions.base import RegionMismatchError
from repro.regions.bounds import ADDRESSES, NO_BOUNDS, bounds_disjoint, hull_gap
from repro.regions.box import Box, BoxSetRegion
from repro.regions.explicit import ExplicitSetRegion
from repro.regions.interval import IntervalRegion
from repro.regions.kernel import RegionKernel, get_kernel
from repro.regions.tree import TreeGeometry, TreeRegion
from tests.conftest import (
    as_explicit,
    blocked_tree_regions,
    box_set_regions,
    explicit_regions,
    interval_regions,
    tree_regions,
)


def _check_closure(a, b):
    ea, eb = set(a.elements()), set(b.elements())
    assert set(a.union(b).elements()) == ea | eb
    assert set(a.intersect(b).elements()) == ea & eb
    assert set(a.difference(b).elements()) == ea - eb


def _check_laws(a, b):
    # cardinality consistency
    assert a.size() == len(set(a.elements()))
    # inclusion/exclusion
    assert a.union(b).size() == a.size() + b.size() - a.intersect(b).size()
    # commutativity (semantic)
    assert a.union(b).same_elements(b.union(a))
    assert a.intersect(b).same_elements(b.intersect(a))
    # difference/intersection complementarity: (a−b) ∪ (a∩b) = a
    assert a.difference(b).union(a.intersect(b)).same_elements(a)
    # what was removed cannot still intersect the subtrahend
    assert a.difference(b).intersect(b).is_empty()
    # covers/overlaps consistency
    assert a.covers(a.intersect(b))
    assert a.covers(b) == b.difference(a).is_empty()
    assert a.overlaps(b) == (not a.intersect(b).is_empty())


def _check_kernel_consistency(a, b):
    """The memoized kernel path must agree with the raw family operations.

    ``union``/``intersect``/``difference`` on the public API route through
    :class:`RegionKernel` (interning + memoization); ``_union`` etc. are
    the uncached per-family implementations.  Both must produce the same
    element set, and the memoized path must return the *identical* interned
    object on a repeat call.
    """
    kernel = get_kernel()
    for cached_op, raw_op in (
        ("union", "_union"),
        ("intersect", "_intersect"),
        ("difference", "_difference"),
    ):
        cached = getattr(a, cached_op)(b)
        raw = getattr(a, raw_op)(b)
        assert cached.same_elements(raw)
        # memoized + interned: the repeat call is the same object
        assert getattr(a, cached_op)(b) is cached
        assert kernel.intern(cached) is cached
    assert a.covers(b) == b._difference(a)._is_empty()


def _check_hull_gate(a, b):
    """The hull is conservative, and the gate never changes an answer.

    A private kernel starts with an empty memo, so each call below is a
    miss and passes the hull gate before it may reach the family.
    """
    for region in (a, b):
        hull = region.hull()
        if hull is NO_BOUNDS:  # bitmask and explicit sets state none
            continue
        assert (hull is None) == region.is_empty()
        if hull is None:
            continue
        space, lo, hi = hull
        for element in region.elements():
            if space is ADDRESSES:
                point = element if isinstance(element, tuple) else (element,)
            else:
                point = (region.geometry.position(element),)
            assert all(l <= x < h for l, x, h in zip(lo, point, hi))
    if bounds_disjoint(a.hull(), b.hull()):
        assert a._intersect(b)._is_empty()
    # a gap between two hulls is symmetric, and a finite one only opens
    # between provably disjoint regions (infinite: nothing to compare)
    gap = hull_gap(a.hull(), b.hull())
    assert gap == hull_gap(b.hull(), a.hull())
    if 0 < gap < math.inf:
        assert bounds_disjoint(a.hull(), b.hull())
    kernel = RegionKernel()
    assert kernel.union(a, b) == a._union(b)
    assert kernel.intersect(a, b) == a._intersect(b)
    assert kernel.difference(a, b) == a._difference(b)
    assert kernel.covers(a, b) == b._difference(a)._is_empty()
    assert kernel.overlaps(a, b) == (not a._intersect(b)._is_empty())
    assert kernel.intern(kernel.intersect(a, b)) is kernel.intersect(a, b)


@given(explicit_regions(), explicit_regions())
@settings(max_examples=120)
def test_explicit_regions_closure(a, b):
    _check_closure(a, b)
    _check_laws(a, b)
    _check_kernel_consistency(a, b)
    _check_hull_gate(a, b)
    assert (a == b) == a.same_elements(b)


@given(interval_regions(), interval_regions())
@settings(max_examples=120)
def test_interval_regions_closure(a, b):
    _check_closure(a, b)
    _check_laws(a, b)
    _check_kernel_consistency(a, b)
    _check_hull_gate(a, b)


@given(box_set_regions(), box_set_regions())
@settings(max_examples=120, deadline=None)
def test_box_set_regions_closure(a, b):
    _check_closure(a, b)
    _check_laws(a, b)
    _check_kernel_consistency(a, b)
    _check_hull_gate(a, b)
    # canonical box decomposition: semantic equality == structural equality
    assert (a == b) == a.same_elements(b)


@given(tree_regions(), tree_regions())
@settings(max_examples=120, deadline=None)
def test_tree_regions_closure(a, b):
    _check_closure(a, b)
    _check_laws(a, b)
    _check_kernel_consistency(a, b)
    _check_hull_gate(a, b)
    # canonical representation: semantic equality == structural equality
    assert (a == b) == a.same_elements(b)


@given(blocked_tree_regions(), blocked_tree_regions())
@settings(max_examples=120)
def test_blocked_tree_regions_closure(a, b):
    _check_closure(a, b)
    _check_laws(a, b)
    _check_kernel_consistency(a, b)
    _check_hull_gate(a, b)
    assert (a == b) == a.same_elements(b)


@given(blocked_tree_regions())
@settings(max_examples=60)
def test_blocked_to_flexible_conversion_is_lossless(a):
    assert set(a.to_tree_region().elements()) == set(a.elements())


def _kernel_ops(kernel):
    return (
        kernel.union,
        kernel.intersect,
        kernel.difference,
        kernel.covers,
        kernel.overlaps,
    )


@pytest.mark.parametrize(
    "a, b",
    [
        # same family, hulls far apart, different universes
        (
            BoxSetRegion([Box.of((0, 0), (2, 2))]),
            BoxSetRegion([Box.of((5, 5, 5), (6, 6, 6))]),
        ),
        (
            TreeRegion.of_nodes(TreeGeometry(3), [4]),
            TreeRegion.of_nodes(TreeGeometry(4), [15]),
        ),
        # different families whose hulls live in the same space and rank
        (IntervalRegion.span(0, 2), BoxSetRegion([Box.of((5,), (6,))])),
        (BoxSetRegion([Box.of((5,), (6,))]), IntervalRegion.span(0, 2)),
        (IntervalRegion.span(0, 2), TreeRegion.of_nodes(TreeGeometry(4), [15])),
    ],
)
def test_hull_gate_leaves_mismatches_to_the_families(a, b):
    """Disjoint hulls answer nothing across universes: the family still raises."""
    for op in _kernel_ops(RegionKernel()):
        with pytest.raises(RegionMismatchError):
            op(a, b)


def test_hull_gate_keeps_the_explicit_reference_coercion():
    # the explicit scheme absorbs any family on its right, hulls or not
    explicit, interval = ExplicitSetRegion([0, 1]), IntervalRegion.span(5, 8)
    kernel = RegionKernel()
    assert kernel.intersect(explicit, interval).is_empty()
    assert kernel.difference(explicit, interval) == explicit
    assert set(kernel.union(explicit, interval).elements()) == {0, 1, 5, 6, 7}
    assert not kernel.overlaps(explicit, interval)
    with pytest.raises(RegionMismatchError):  # covers subtracts the other way
        kernel.covers(explicit, interval)


def _check_associativity(a, b, c):
    assert a.union(b).union(c).same_elements(a.union(b.union(c)))
    assert a.intersect(b).intersect(c).same_elements(
        a.intersect(b.intersect(c))
    )
    # a − (b ∪ c) = (a − b) − c
    assert a.difference(b.union(c)).same_elements(
        a.difference(b).difference(c)
    )


@given(explicit_regions(), explicit_regions(), explicit_regions())
@settings(max_examples=60)
def test_explicit_region_associativity(a, b, c):
    _check_associativity(a, b, c)


@given(interval_regions(), interval_regions(), interval_regions())
@settings(max_examples=60)
def test_interval_region_associativity(a, b, c):
    _check_associativity(a, b, c)


@given(box_set_regions(), box_set_regions(), box_set_regions())
@settings(max_examples=60, deadline=None)
def test_box_region_associativity(a, b, c):
    _check_associativity(a, b, c)
    # canonical form makes associativity hold structurally, not just
    # semantically — both groupings intern to the same object
    assert a.union(b).union(c) is a.union(b.union(c)).interned()


@given(tree_regions(), tree_regions(), tree_regions())
@settings(max_examples=60, deadline=None)
def test_tree_region_associativity(a, b, c):
    _check_associativity(a, b, c)
    assert a.union(b).union(c) == a.union(b.union(c))
    assert a.intersect(b).intersect(c) == a.intersect(b.intersect(c))
    assert a.difference(b.union(c)) == a.difference(b).difference(c)


@given(blocked_tree_regions(), blocked_tree_regions(), blocked_tree_regions())
@settings(max_examples=60)
def test_blocked_tree_region_associativity(a, b, c):
    _check_associativity(a, b, c)
    assert a.union(b).union(c) == a.union(b.union(c))


@given(box_set_regions(), box_set_regions())
@settings(max_examples=80, deadline=None)
def test_box_region_membership_agrees_with_reference(a, b):
    union = a.union(b)
    reference = as_explicit(union)
    for x in range(0, 10):
        for y in range(0, 10):
            assert union.contains((x, y)) == reference.contains((x, y))


# -- box sweep vs a brute-force point-set oracle, ranks 1-3 -------------------------


@st.composite
def _box_operands(draw, max_coord=5, max_width=3, max_boxes=4):
    rank = draw(st.integers(1, 3))
    corner = st.lists(st.integers(0, max_coord), min_size=rank, max_size=rank)
    widths = st.lists(st.integers(0, max_width), min_size=rank, max_size=rank)
    box = st.tuples(corner, widths).map(
        lambda lw: Box.of(lw[0], [l + w for l, w in zip(*lw)])
    )
    operand = st.lists(box, max_size=max_boxes)
    return rank, draw(operand), draw(operand)


@given(_box_operands())
@settings(max_examples=200, deadline=None)
def test_box_sweep_matches_point_set_oracle(case):
    rank, xs, ys = case
    a, b = BoxSetRegion(xs, dims=rank), BoxSetRegion(ys, dims=rank)
    # the oracle never touches the region code: points of the *input* boxes
    pa = {p for box in xs for p in box.points()}
    pb = {p for box in ys for p in box.points()}
    for result, points in (
        (a, pa),
        (b, pb),
        (a._union(b), pa | pb),
        (a._intersect(b), pa & pb),
        (a._difference(b), pa - pb),
        (b._difference(a), pb - pa),
    ):
        listed = list(result.elements())
        assert len(listed) == len(points) == result.size()  # boxes are disjoint
        assert set(listed) == points
        assert all(result.contains(p) for p in points)
    assert a._covers(b) == (pb <= pa)
    assert b._covers(a) == (pa <= pb)
    assert a._union(b)._covers(a)
