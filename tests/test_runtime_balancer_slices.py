"""Regression tests for the balancer's region slicing.

Two historical defects, both pinned here:

* interval slicing clamped every fraction above one half to a 50% cut
  (``max(2, round(1/f))`` split parts), so a balancer asking for 70% of
  an overloaded node's region silently got 50%;
* box-set slicing rounded the cut to whole rows of the widest axis, so
  small fractions of wide boxes overshot the target by up to a full row
  (and the floor-to-zero guard then forced a minimum of one row).

:class:`TestSliceTowardHull` states what a slice cut toward a hull keeps.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.items.grid import Grid
from repro.regions.bounds import hull_gap
from repro.regions.box import Box, BoxSetRegion
from repro.regions.interval import Interval, IntervalRegion
from repro.runtime.balancer import take_slice


class TestIntervalFractions:
    def test_every_fraction_cuts_proportionally(self):
        """Pinned: fractions above 0.5 used to collapse to a 50% cut."""
        size = 1000
        region = IntervalRegion.span(0, size)
        for percent in range(1, 100):
            fraction = percent / 100.0
            piece = take_slice(region, fraction)
            assert piece is not None, fraction
            want = min(size - 1, math.ceil(size * fraction))
            assert piece.size() == want, fraction
            assert region.covers(piece)
            assert not region.difference(piece).is_empty()

    def test_large_fraction_on_fragmented_region(self):
        region = IntervalRegion(
            [Interval(0, 10), Interval(20, 30), Interval(40, 50)]
        )
        piece = take_slice(region, 0.7)
        assert piece is not None
        assert piece.size() == math.ceil(30 * 0.7)
        assert region.covers(piece)

    def test_two_element_region_leaves_remainder(self):
        piece = take_slice(IntervalRegion.span(0, 2), 0.9)
        assert piece is not None
        assert piece.size() == 1


class TestBoxSetFractions:
    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.integers(1, 40),
        cols=st.integers(1, 40),
        percent=st.integers(1, 99),
    )
    def test_slice_size_is_exact(self, rows, cols, percent):
        """Pinned: the carve no longer overshoots by up to a full row."""
        fraction = percent / 100.0
        region = Grid((rows, cols)).full_region
        size = region.size()
        want = min(size - 1, math.ceil(size * fraction))
        piece = take_slice(region, fraction)
        if want < 1:
            assert piece is None
            return
        assert piece is not None
        assert piece.size() == want
        assert region.covers(piece)
        assert region.difference(piece).size() == size - want

    def test_small_fraction_of_wide_box(self):
        """1% of a 4×1000 grid is 40 elements, not a 1000-element row."""
        region = Grid((4, 1000)).full_region
        piece = take_slice(region, 0.01)
        assert piece is not None
        assert piece.size() == 40

    def test_multi_box_region(self):
        region = BoxSetRegion(
            [Box((0, 0), (4, 4)), Box((10, 0), (12, 8))]
        )
        size = region.size()
        piece = take_slice(region, 0.6)
        assert piece is not None
        assert piece.size() == math.ceil(size * 0.6)
        assert region.covers(piece)

    def test_single_element_region_unsliceable(self):
        region = BoxSetRegion([Box((0, 0), (1, 1))])
        assert take_slice(region, 0.5) is None


def _box(data, rank: int, span: int = 10) -> Box:
    lo = tuple(data.draw(st.integers(0, span)) for _ in range(rank))
    hi = tuple(low + data.draw(st.integers(1, 6)) for low in lo)
    return Box(lo, hi)


def _face_neighbour(data, rank: int) -> tuple[Box, Box, int, bool]:
    """A box and a neighbour sharing one whole face with it, as two
    blocks of a block decomposition do: ``(box, neighbour, axis, high)``."""
    box = _box(data, rank)
    axis = data.draw(st.integers(0, rank - 1))
    high = data.draw(st.booleans())
    depth = data.draw(st.integers(1, 4))
    lo, hi = list(box.lo), list(box.hi)
    if high:
        lo[axis], hi[axis] = box.hi[axis], box.hi[axis] + depth
    else:
        lo[axis], hi[axis] = box.lo[axis] - depth, box.lo[axis]
    return box, Box(tuple(lo), tuple(hi)), axis, high


class TestSliceTowardHull:
    """``take_slice(..., toward=hull)``, the cut storm recovery makes
    toward an adopter's owned hull."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), rank=st.integers(1, 3), percent=st.integers(1, 99))
    def test_same_size_as_an_undirected_slice(self, data, rank, percent):
        region = BoxSetRegion(
            [_box(data, rank) for _ in range(data.draw(st.integers(1, 3)))]
        )
        toward = BoxSetRegion([_box(data, rank)]).hull()
        plain = take_slice(region, percent / 100)
        aimed = take_slice(region, percent / 100, toward=toward)
        if plain is None:
            assert aimed is None
            return
        assert aimed is not None
        assert aimed.size() == plain.size()
        assert region.covers(aimed)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), rank=st.integers(1, 3), percent=st.integers(1, 99))
    def test_slice_lies_nearest_the_neighbour(self, data, rank, percent):
        """No element left behind is nearer the neighbour (along the
        shared face's axis) than an element taken, and the slice touches
        the neighbour."""
        box, neighbour, axis, high = _face_neighbour(data, rank)
        region = BoxSetRegion([box])
        aimed = take_slice(
            region, percent / 100, toward=BoxSetRegion([neighbour]).hull()
        )
        if aimed is None:
            return

        def depth(element) -> int:
            if high:
                return box.hi[axis] - 1 - element[axis]
            return element[axis] - box.lo[axis]

        rest = region.difference(aimed)
        assert max(map(depth, aimed.elements())) <= min(
            map(depth, rest.elements())
        )
        assert hull_gap(aimed.hull(), BoxSetRegion([neighbour]).hull()) == 0

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), percent=st.integers(1, 99))
    def test_adopter_gains_no_more_boxes(self, data, percent):
        """What the neighbour owns once it adopts the slice has no more
        boxes than after adopting an undirected slice of the same size
        (2-D blocks).  The slice on its own may have one more: six of a
        3×4 block's elements are one 3×2 box from the low corner, but a
        row plus two cells from a 3-wide face."""
        box, neighbour, _axis, _high = _face_neighbour(data, 2)
        region = BoxSetRegion([box])
        owned = BoxSetRegion([neighbour])
        plain = take_slice(region, percent / 100)
        aimed = take_slice(region, percent / 100, toward=owned.hull())
        if plain is None:
            return
        assert len(owned.union(aimed).boxes) <= len(owned.union(plain).boxes)

    def test_interval_slice_comes_off_the_facing_end(self):
        region = IntervalRegion([Interval(0, 10), Interval(20, 30)])
        toward = IntervalRegion.span(30, 40).hull()
        piece = take_slice(region, 0.3, toward=toward)
        assert piece is not None
        assert piece.same_elements(IntervalRegion.span(24, 30))
        below = IntervalRegion.span(-5, 0).hull()
        piece = take_slice(region, 0.3, toward=below)
        assert piece is not None
        assert piece.same_elements(IntervalRegion.span(0, 6))
