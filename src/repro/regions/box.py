"""N-dimensional box-set regions (Fig. 4a of the paper).

Individual axis-aligned bounding boxes are *not* closed under union or
set-difference, but finite sets of disjoint boxes are — this is exactly the
region scheme the paper uses for its N-dimensional grid data item.

A :class:`BoxSetRegion` stores the *slab normal form* of its element set:
a sorted tuple of axis-0 slabs ``(lo, hi, cross-section)`` whose
cross-sections are rank ``d-1`` normal forms, down to rank 1, a sorted
tuple of disjoint non-touching ``(lo, hi)`` spans.  Touching slabs always
differ in cross-section, so the form depends only on the addressed
element set — never on how the inputs were split — and ``==``/``hash`` on
the nested int tuples are cheap *and* semantic, which is what lets the
region kernel intern box regions and memoize their algebra.

``union``/``intersect``/``difference`` are one recursive two-pointer sweep
(:func:`_combine`) over the operands' slab breakpoints — ``O(|A| + |B|)``
per level, canonical by construction.  :class:`Box` objects are
materialised only when ``.boxes`` is read, in slab order, then
cross-section order.
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import Any, Hashable, Iterable, Iterator, Sequence, Union, cast

from repro.regions.base import Region, RegionMismatchError
from repro.regions.bounds import ADDRESSES, Hull
from repro.regions.interval import (
    Spans,
    intersect_spans,
    normalize_spans,
    subtract_spans,
)


class Box:
    """Half-open axis-aligned box ``[lo, hi)`` in N dimensions.

    A hand-rolled slotted value class rather than a dataclass: boxes are
    created millions of times inside the runtime's region algebra, and
    frozen-dataclass construction overhead dominated profiles.
    """

    __slots__ = ("lo", "hi")

    def __init__(self, lo: tuple[int, ...], hi: tuple[int, ...]) -> None:
        if len(lo) != len(hi):
            raise ValueError(f"box corner ranks differ: {lo} vs {hi}")
        self.lo = lo
        self.hi = hi

    @classmethod
    def of(cls, lo: Sequence[int], hi: Sequence[int]) -> "Box":
        return cls(tuple(int(x) for x in lo), tuple(int(x) for x in hi))

    @classmethod
    def full(cls, shape: Sequence[int]) -> "Box":
        """The box covering a whole grid of the given shape."""
        return cls(tuple(0 for _ in shape), tuple(int(s) for s in shape))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Box):
            return NotImplemented
        return self.lo == other.lo and self.hi == other.hi

    def __hash__(self) -> int:
        return hash((self.lo, self.hi))

    @property
    def dims(self) -> int:
        return len(self.lo)

    def is_empty(self) -> bool:
        lo, hi = self.lo, self.hi
        for k in range(len(lo)):
            if lo[k] >= hi[k]:
                return True
        return False

    def size(self) -> int:
        total = 1
        lo, hi = self.lo, self.hi
        for k in range(len(lo)):
            width = hi[k] - lo[k]
            if width <= 0:
                return 0
            total *= width
        return total

    def contains(self, point: Sequence[int]) -> bool:
        if len(point) != len(self.lo):
            return False
        lo, hi = self.lo, self.hi
        for k in range(len(lo)):
            if not (lo[k] <= point[k] < hi[k]):
                return False
        return True

    def intersect(self, other: "Box") -> "Box":
        return Box(
            tuple(map(max, self.lo, other.lo)),
            tuple(map(min, self.hi, other.hi)),
        )

    def overlaps(self, other: "Box") -> bool:
        alo, ahi, blo, bhi = self.lo, self.hi, other.lo, other.hi
        for k in range(len(alo)):
            if alo[k] >= bhi[k] or blo[k] >= ahi[k]:
                return False
            if alo[k] >= ahi[k] or blo[k] >= bhi[k]:
                return False
        return True

    def encloses(self, other: "Box") -> bool:
        """True iff ``other ⊆ self`` (both non-empty assumed)."""
        alo, ahi, blo, bhi = self.lo, self.hi, other.lo, other.hi
        for k in range(len(alo)):
            if blo[k] < alo[k] or bhi[k] > ahi[k]:
                return False
        return True

    def subtract(self, other: "Box") -> list["Box"]:
        """Return disjoint boxes covering ``self − other`` (at most 2·dims)."""
        return list(BoxSetRegion((self,))._difference(BoxSetRegion((other,))).boxes)

    def points(self) -> Iterator[tuple[int, ...]]:
        if self.is_empty():
            return iter(())
        return itertools.product(*(range(l, h) for l, h in zip(self.lo, self.hi)))

    def widths(self) -> tuple[int, ...]:
        return tuple(max(0, h - l) for l, h in zip(self.lo, self.hi))

    def split(self, axis: int, at: int) -> tuple["Box", "Box"]:
        """Split the box along ``axis`` at coordinate ``at``."""
        lo_hi = list(self.hi)
        lo_hi[axis] = at
        hi_lo = list(self.lo)
        hi_lo[axis] = at
        return Box(self.lo, tuple(lo_hi)), Box(tuple(hi_lo), self.hi)

    def surface(self) -> int:
        """Number of boundary elements — the halo size driver for stencils."""
        total = self.size()
        widths = self.widths()
        if total == 0:
            return 0
        inner = math.prod(max(0, w - 2) for w in widths)
        return total - inner

    def __repr__(self) -> str:
        return f"Box({list(self.lo)}..{list(self.hi)})"


#: rank >= 2: sorted, disjoint axis-0 slabs ``(lo, hi, non-empty cross-section)``
Slabs = tuple[tuple[int, int, "Nest"], ...]
#: any rank: ``()`` is empty, rank 1 is :data:`Spans`, rank 0's one point ``((),)``
Nest = Union[Spans, Slabs, tuple[tuple[()]]]

_UNION, _INTERSECT, _DIFFERENCE = range(3)


def _combine(a: Nest, b: Nest, rank: int, op: int) -> Nest:
    """``a op b`` of two rank-``rank`` normal forms.

    Sweeps a cursor ``x`` over both operands' axis-0 breakpoints: on
    ``[x, nxt)`` each operand is inside one slab or in a gap (an empty
    cross-section), so the result's cross-section there is one recursive
    call.  Touching pieces with equal cross-sections merge as they are
    emitted: the output is canonical by construction.
    """
    if not (a and b) or a is b or a == b:  # absent or identical partner
        if op == _UNION:
            return a or b
        if op == _INTERSECT:
            return a if a and b else ()
        return () if a and b else a
    if rank == 1:
        if op == _UNION:
            return normalize_spans(cast(Spans, a + b))
        span_op = intersect_spans if op == _INTERSECT else subtract_spans
        return span_op(cast(Spans, a), cast(Spans, b))
    sa, sb = cast(Slabs, a), cast(Slabs, b)
    alo, ahi, ac = sa[0]
    blo, bhi, bc = sb[0]
    a_end, b_end = sa[-1][1], sb[-1][1]
    if op == _UNION:
        end = max(a_end, b_end)
    elif a_end <= blo or b_end <= alo:
        # disjoint axis-0 extents, the common miss: nothing to sweep
        return a if op == _DIFFERENCE else ()
    else:
        end = a_end if op == _DIFFERENCE else min(a_end, b_end)
    # nothing past `end` reaches the result; an operand that runs out
    # earlier is one gap up to it
    out: list[tuple[int, int, Nest]] = []
    i = j = 0
    x = min(alo, blo)
    while x < end:
        ca = ac if alo <= x else ()
        cb = bc if blo <= x else ()
        nxt = min(ahi if ca else alo, bhi if cb else blo)
        cross = _combine(ca, cb, rank - 1, op)
        if cross:
            if out and out[-1][1] == x and out[-1][2] == cross:
                out[-1] = (out[-1][0], nxt, cross)
            else:
                out.append((x, nxt, cross))
        x = nxt
        if x == ahi:
            i += 1
            alo, ahi, ac = sa[i] if i < len(sa) else (end, end, ())
        if x == bhi:
            j += 1
            blo, bhi, bc = sb[j] if j < len(sb) else (end, end, ())
    return tuple(out)


def _box_nest(lo: tuple[int, ...], hi: tuple[int, ...]) -> Nest:
    """Normal form of one non-empty box."""
    if not lo:
        return ((),)
    nest: Nest = ((lo[-1], hi[-1]),)
    for k in range(len(lo) - 2, -1, -1):
        nest = ((lo[k], hi[k], nest),)
    return nest


def _corners(nest: Nest, rank: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Box corners of a normal form: slab order, then cross-section order."""
    if rank == 0:
        return [((), ())] if nest else []
    if rank == 1:
        return [((lo,), (hi,)) for lo, hi in cast(Spans, nest)]
    return [
        ((lo,) + clo, (hi,) + chi)
        for lo, hi, cross in cast(Slabs, nest)
        for clo, chi in _corners(cross, rank - 1)
    ]


def _widen(nest: Nest, rank: int, lo: list[int], hi: list[int]) -> None:
    """Grow the last ``rank`` entries of ``lo``/``hi`` to cover a non-empty
    normal form: extents are read off the first and last slab (or span),
    only the cross-sections are visited."""
    axis = len(lo) - rank
    pieces = cast(Slabs, nest)  # rank 1: spans, read the same way
    if pieces[0][0] < lo[axis]:
        lo[axis] = pieces[0][0]
    if pieces[-1][1] > hi[axis]:
        hi[axis] = pieces[-1][1]
    if rank > 1:
        for _, _, cross in pieces:
            _widen(cross, rank - 1, lo, hi)


class BoxSetRegion(Region):
    """Region stored as the slab normal form of its element set."""

    __slots__ = ("_slabs", "_dims", "_ckey", "_boxes", "_size")

    def __init__(self, boxes: Iterable[Box] = (), dims: int | None = None) -> None:
        slabs: Nest = ()
        for box in boxes:
            if box.is_empty():
                continue
            if dims is None:
                dims = box.dims
            elif box.dims != dims:
                raise RegionMismatchError(
                    f"box of rank {box.dims} in a rank-{dims} region"
                )
            slabs = _combine(slabs, _box_nest(box.lo, box.hi), dims, _UNION)
        self._slabs = slabs
        self._dims = dims
        self._ckey: Hashable = None
        self._rid: int | None = None
        # derived views, built on first read (the instance is immutable)
        self._boxes: tuple[Box, ...] | None = None
        self._size: int | None = None

    @classmethod
    def empty(cls, dims: int | None = None) -> "BoxSetRegion":
        return cls((), dims=dims)

    @classmethod
    def single(cls, lo: Sequence[int], hi: Sequence[int]) -> "BoxSetRegion":
        return cls((Box.of(lo, hi),))

    @classmethod
    def full_grid(cls, shape: Sequence[int]) -> "BoxSetRegion":
        return cls((Box.full(shape),))

    @property
    def boxes(self) -> tuple[Box, ...]:
        """The canonical disjoint boxes: slab order, then cross-section order."""
        if self._boxes is None:
            corners = _corners(self._slabs, self._dims or 0)
            self._boxes = tuple(Box(lo, hi) for lo, hi in corners)
        return self._boxes

    @property
    def dims(self) -> int | None:
        return self._dims

    def bounding_box(self) -> Box | None:
        hull = self.hull()
        return None if hull is None else Box(hull[1], hull[2])

    def _compute_hull(self) -> Hull:
        if not self._slabs:
            return None
        dims = self._dims or 0
        lo, hi = [cast(int, math.inf)] * dims, [cast(int, -math.inf)] * dims
        if dims:
            _widen(self._slabs, dims, lo, hi)
        return (ADDRESSES, tuple(lo), tuple(hi))

    def _empty_like(self) -> "BoxSetRegion":
        return BoxSetRegion(dims=self._dims)

    # -- closure operations ---------------------------------------------------

    def _coerce(self, other: Region) -> "BoxSetRegion":
        if isinstance(other, BoxSetRegion):
            if self._dims != other._dims and None not in (self._dims, other._dims):
                raise RegionMismatchError(
                    f"rank mismatch: {self._dims} vs {other._dims}"
                )
            return other
        raise RegionMismatchError(
            f"cannot combine BoxSetRegion with {type(other).__name__}"
        )

    def _swept(self, other: Region, op: int) -> "BoxSetRegion":
        other = self._coerce(other)
        dims = self._dims if self._dims is not None else other._dims
        slabs = _combine(self._slabs, other._slabs, dims or 0, op)
        # an operand passed through untouched keeps its interned identity
        if slabs is self._slabs:
            return self
        if slabs is other._slabs:
            return other
        result = BoxSetRegion(dims=dims)
        result._slabs = slabs  # the sweep's output is already canonical
        return result

    def _union(self, other: Region) -> "BoxSetRegion":
        return self._swept(other, _UNION)

    def _intersect(self, other: Region) -> "BoxSetRegion":
        return self._swept(other, _INTERSECT)

    def _difference(self, other: Region) -> "BoxSetRegion":
        return self._swept(other, _DIFFERENCE)

    # -- cardinality and membership ------------------------------------------

    def cache_key(self) -> Hashable:
        if self._ckey is None:
            self._ckey = ("box", self._dims, self._slabs)
        return self._ckey

    def _is_empty(self) -> bool:
        return not self._slabs

    def size(self) -> int:
        if self._size is None:
            self._size = sum(
                math.prod(map(operator.sub, hi, lo))
                for lo, hi in _corners(self._slabs, self._dims or 0)
            )
        return self._size

    def elements(self) -> Iterator[tuple[int, ...]]:
        for box in self.boxes:
            yield from box.points()

    def contains(self, element: Any) -> bool:
        if not isinstance(element, tuple):
            return False
        return any(b.contains(element) for b in self.boxes)

    def _covers(self, other: Region) -> bool:
        if not isinstance(other, BoxSetRegion):
            return super()._covers(other)
        other._coerce(self)  # rank check, worded as ``other − self`` words it
        return not _combine(other._slabs, self._slabs, self._dims or 0, _DIFFERENCE)

    def surface(self) -> int:
        """Sum of per-box boundary element counts (halo volume estimate)."""
        return sum(b.surface() for b in self.boxes)

    # -- value semantics --------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BoxSetRegion):
            return NotImplemented
        # the normal form is canonical, so structural equality of the
        # nested tuples *is* semantic equality (dims of empties excluded)
        return self._slabs == other._slabs

    def __hash__(self) -> int:
        return hash(self._slabs)

    def __repr__(self) -> str:
        return f"BoxSetRegion({list(self.boxes)!r})"


def grid_block_decomposition(shape: Sequence[int], parts: int) -> list[Box]:
    """Decompose a full grid into ``parts`` near-equal boxes.

    Recursively bisects the widest axis, matching the blocking the MPI
    reference codes in the paper's evaluation use and the blocking the
    AllScale scheduler converges to during the initialization phase.
    """
    if parts <= 0:
        raise ValueError(f"parts must be positive, got {parts}")
    result: list[Box] = []

    def rec(box: Box, n: int) -> None:
        if n == 1:
            result.append(box)
            return
        widths = box.widths()
        axis = max(range(len(widths)), key=widths.__getitem__)
        left_n = n // 2
        right_n = n - left_n
        at = box.lo[axis] + (widths[axis] * left_n) // n
        left, right = box.split(axis, at)
        rec(left, left_n)
        rec(right, right_n)

    rec(Box.full(shape), parts)
    return result
