"""Unit tests for boxes and box-set regions (Fig. 4a)."""

import pytest

from repro.regions.box import (
    Box,
    BoxSetRegion,
    grid_block_decomposition,
)
from repro.regions.base import RegionMismatchError


class TestBox:
    def test_rank_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Box((0, 0), (1,))

    def test_emptiness_and_size(self):
        assert Box.of((0, 0), (0, 5)).is_empty()
        assert Box.of((0, 0), (2, 3)).size() == 6
        assert Box.of((2, 2), (1, 5)).size() == 0

    def test_contains(self):
        box = Box.of((1, 1), (4, 4))
        assert box.contains((1, 1))
        assert box.contains((3, 3))
        assert not box.contains((4, 3))
        assert not box.contains((0, 2))
        assert not box.contains((1,))

    def test_intersect_and_overlaps(self):
        a = Box.of((0, 0), (4, 4))
        b = Box.of((2, 2), (6, 6))
        assert a.intersect(b) == Box.of((2, 2), (4, 4))
        assert a.overlaps(b)
        assert not a.overlaps(Box.of((4, 0), (6, 4)))
        assert not a.overlaps(Box.of((2, 2), (2, 6)))  # empty operand

    def test_encloses(self):
        outer = Box.of((0, 0), (10, 10))
        assert outer.encloses(Box.of((2, 3), (4, 5)))
        assert outer.encloses(outer)
        assert not Box.of((2, 3), (4, 5)).encloses(outer)

    def test_subtract_disjoint_returns_self(self):
        a = Box.of((0, 0), (2, 2))
        assert a.subtract(Box.of((5, 5), (6, 6))) == [a]

    def test_subtract_full_returns_empty(self):
        a = Box.of((1, 1), (3, 3))
        assert a.subtract(Box.of((0, 0), (5, 5))) == []

    def test_subtract_partial_is_partition(self):
        a = Box.of((0, 0), (4, 4))
        b = Box.of((1, 1), (3, 3))
        pieces = a.subtract(b)
        covered = set()
        for piece in pieces:
            pts = set(piece.points())
            assert not covered & pts, "pieces overlap"
            covered |= pts
        assert covered == set(a.points()) - set(b.points())

    def test_split(self):
        left, right = Box.of((0, 0), (4, 6)).split(1, 2)
        assert left == Box.of((0, 0), (4, 2))
        assert right == Box.of((0, 2), (4, 6))

    def test_surface(self):
        assert Box.of((0, 0), (4, 4)).surface() == 12
        assert Box.of((0, 0), (1, 5)).surface() == 5

    def test_value_semantics(self):
        assert Box.of((0, 0), (1, 1)) == Box.of((0, 0), (1, 1))
        assert hash(Box.of((0, 0), (1, 1))) == hash(Box.of((0, 0), (1, 1)))


class TestBoxSetRegion:
    def test_disjointification(self):
        region = BoxSetRegion(
            [Box.of((0, 0), (4, 4)), Box.of((2, 2), (6, 6))]
        )
        assert region.size() == 16 + 16 - 4

    def test_coalescing_of_abutting_boxes(self):
        region = BoxSetRegion(
            [Box.of((0, 0), (2, 4)), Box.of((2, 0), (4, 4))]
        )
        assert region.boxes == (Box.of((0, 0), (4, 4)),)

    def test_rank_mixing_rejected(self):
        with pytest.raises(RegionMismatchError):
            BoxSetRegion([Box.of((0,), (2,)), Box.of((0, 0), (2, 2))])

    def test_union_intersect_difference(self):
        a = BoxSetRegion.single((0, 0), (4, 4))
        b = BoxSetRegion.single((2, 2), (6, 6))
        assert (a | b).size() == 28
        assert (a & b).size() == 4
        assert (a - b).size() == 12
        assert (b - a).size() == 12

    def test_difference_fast_path_disjoint(self):
        a = BoxSetRegion.single((0, 0), (2, 2))
        b = BoxSetRegion.single((10, 10), (12, 12))
        # the no-overlap fast path returns the (interned) left operand
        # unchanged rather than rebuilding it
        assert (a - b) is a.interned()
        assert (a - b) == a

    def test_covers_fast_and_slow_path(self):
        big = BoxSetRegion.single((0, 0), (10, 10))
        assert big.covers(BoxSetRegion.single((2, 2), (5, 5)))
        # spanning two stored boxes (slow path)
        two = BoxSetRegion(
            [Box.of((0, 0), (5, 10)), Box.of((5, 0), (10, 10))]
        )
        assert two.covers(BoxSetRegion.single((3, 3), (7, 7)))
        assert not BoxSetRegion.single((0, 0), (4, 4)).covers(big)

    def test_semantic_equality(self):
        a = BoxSetRegion([Box.of((0, 0), (2, 4))])
        b = BoxSetRegion(
            [Box.of((0, 0), (2, 2)), Box.of((0, 2), (2, 4))]
        )
        assert a == b

    def test_contains(self):
        region = BoxSetRegion.single((0, 0), (3, 3))
        assert region.contains((2, 2))
        assert not region.contains((3, 3))
        assert not region.contains("nope")

    def test_bounding_box(self):
        region = BoxSetRegion(
            [Box.of((0, 0), (1, 1)), Box.of((5, 7), (6, 9))]
        )
        assert region.bounding_box() == Box.of((0, 0), (6, 9))
        assert BoxSetRegion.empty(2).bounding_box() is None

    def test_full_grid(self):
        region = BoxSetRegion.full_grid((3, 4, 5))
        assert region.size() == 60

    def test_surface(self):
        region = BoxSetRegion.single((0, 0), (4, 4))
        assert region.surface() == 12


class TestGridBlockDecomposition:
    @pytest.mark.parametrize("parts", [1, 2, 3, 4, 7, 8, 16])
    def test_partition_is_complete_and_disjoint(self, parts):
        boxes = grid_block_decomposition((20, 30), parts)
        assert len(boxes) == parts
        assert sum(b.size() for b in boxes) == 600
        region = BoxSetRegion(boxes)
        assert region.size() == 600  # disjointness: no double counting

    def test_near_equal_sizes(self):
        boxes = grid_block_decomposition((100, 100), 8)
        sizes = [b.size() for b in boxes]
        assert max(sizes) - min(sizes) <= 100  # within one row/col strip

    def test_splits_widest_axis_first(self):
        boxes = grid_block_decomposition((100, 10), 2)
        assert {b.widths() for b in boxes} == {(50, 10)}

    def test_invalid_parts(self):
        with pytest.raises(ValueError):
            grid_block_decomposition((4, 4), 0)


# -- the pre-sweep canonicaliser, kept verbatim as the order oracle -----------------


def _canonical_boxes(boxes: list[Box], dims: int) -> tuple[Box, ...]:
    """Unique disjoint decomposition of the union of ``boxes``.

    Slice along axis 0 at every coordinate where some input box starts or
    ends; between two adjacent cuts the cross-section (a rank ``dims-1``
    set) is constant, so it can be canonicalized recursively.  Adjacent
    slabs with identical canonical cross-sections are merged into maximal
    runs.  The output therefore depends only on the addressed element set:
    the same set always canonicalizes to the same box tuple, regardless of
    how (or with what overlaps) the inputs were split.
    """
    if not boxes:
        return ()
    if dims == 0:
        # rank-0 boxes address the single empty-tuple point
        return (boxes[0],)
    cuts = sorted({b.lo[0] for b in boxes} | {b.hi[0] for b in boxes})
    # (lo0, hi0, canonical cross-section) maximal slabs along axis 0
    slabs: list[tuple[int, int, tuple[Box, ...]]] = []
    for lo0, hi0 in zip(cuts, cuts[1:]):
        # cuts include every box boundary, so each box either spans the
        # whole slab or misses it entirely
        cross = [
            Box(b.lo[1:], b.hi[1:])
            for b in boxes
            if b.lo[0] <= lo0 and hi0 <= b.hi[0]
        ]
        if not cross:
            continue
        canonical = _canonical_boxes(cross, dims - 1)
        if slabs and slabs[-1][1] == lo0 and slabs[-1][2] == canonical:
            slabs[-1] = (slabs[-1][0], hi0, canonical)
        else:
            slabs.append((lo0, hi0, canonical))
    out: list[Box] = []
    for lo0, hi0, canonical in slabs:
        for cross_box in canonical:
            out.append(Box((lo0,) + cross_box.lo, (hi0,) + cross_box.hi))
    return tuple(out)


def _random_boxes(rng, rank, count, max_coord=7, max_width=4):
    boxes = []
    for _ in range(count):
        lo = [rng.randint(0, max_coord) for _ in range(rank)]
        boxes.append(Box.of(lo, [l + rng.randint(0, max_width) for l in lo]))
    return boxes


class TestBoxOrderPin:
    """``.boxes`` is exactly the pre-sweep canonical tuple, order included.

    Transfer, message and migration order follow ``.boxes``, so this pins
    every simulated statistic to the old decomposition.
    """

    @pytest.mark.parametrize("rank", [0, 1, 2, 3])
    def test_random_overlapping_inputs(self, rng, rank):
        for _ in range(150):
            boxes = _random_boxes(rng, rank, rng.randint(0, 6))
            live = [b for b in boxes if not b.is_empty()]
            region = BoxSetRegion(boxes, dims=rank)
            assert region.boxes == _canonical_boxes(live, rank)

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_chained_results(self, rng, rank):
        def unit_boxes(points):
            return [Box(p, tuple(x + 1 for x in p)) for p in points]

        for _ in range(60):
            a, b, c = (
                BoxSetRegion(_random_boxes(rng, rank, rng.randint(1, 4)), dims=rank)
                for _ in range(3)
            )
            pa, pb, pc = (set(r.elements()) for r in (a, b, c))
            for result, points in (
                (a._union(b)._difference(c), (pa | pb) - pc),
                (a._difference(b)._union(c), (pa - pb) | pc),
                (a._union(c)._intersect(b._union(c)), (pa | pc) & (pb | pc)),
                (a._difference(b)._difference(c)._union(b), (pa - pc) | pb),
            ):
                # the oracle rebuilds the decomposition from single points
                assert result.boxes == _canonical_boxes(unit_boxes(points), rank)


class TestSweepCost:
    """Counted, not timed: a pairwise box product cannot come back unseen."""

    SLABS = 64

    def _checkerboard(self, cell):
        # row r holds the cells of width `cell` whose index has r's parity
        return BoxSetRegion(
            Box((r, c * cell), (r + 1, (c + 1) * cell))
            for r in range(self.SLABS)
            for c in range(r % 2, 16 // cell, 2)
        )

    def test_intersect_allocates_no_boxes_and_merges_per_slab(self, monkeypatch):
        from repro.regions import box as box_module

        a, b = self._checkerboard(1), self._checkerboard(2)
        assert len(a._slabs) == len(b._slabs) == self.SLABS
        counts = {"boxes": 0, "merges": 0}
        box_init = Box.__init__

        def counting_init(self, lo, hi):
            counts["boxes"] += 1
            box_init(self, lo, hi)

        def counting_merge(fn):
            def merge(x, y):
                counts["merges"] += 1
                return fn(x, y)

            return merge

        monkeypatch.setattr(Box, "__init__", counting_init)
        for name in ("intersect_spans", "subtract_spans", "normalize_spans"):
            monkeypatch.setattr(
                box_module, name, counting_merge(getattr(box_module, name))
            )
        cut = a._intersect(b)
        assert cut.size() == 4 * self.SLABS
        # one rank-1 merge per aligned slab pair — not one per box pair —
        # and no Box until someone asks for them
        assert counts == {"boxes": 0, "merges": self.SLABS}
        assert len(cut.boxes) == counts["boxes"] == 4 * self.SLABS
