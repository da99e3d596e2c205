"""1-D interval-set regions.

An :class:`IntervalRegion` is a sorted list of disjoint, non-adjacent,
half-open integer intervals ``[lo, hi)``.  It addresses elements of 1-D
arrays; its algebra — three merges over plain ``(lo, hi)`` pairs — is also
the rank-1 base case of the N-dimensional box-set sweep of
:mod:`repro.regions.box`.  :class:`Interval` objects are only built when
``.intervals`` is read.

All three closure operations run in ``O(n + m)`` over the interval counts of
the operands, and the representation is canonical: two regions address the
same element set iff their interval lists are identical, so ``==`` is both
cheap and semantic.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Any, Hashable, Iterable, Iterator

from repro.regions.base import Region, RegionMismatchError
from repro.regions.bounds import ADDRESSES, Hull


@dataclass(frozen=True, order=True)
class Interval:
    """A half-open integer interval ``[lo, hi)``; empty iff ``lo >= hi``."""

    lo: int
    hi: int

    def is_empty(self) -> bool:
        return self.lo >= self.hi

    def size(self) -> int:
        return max(0, self.hi - self.lo)

    def contains(self, point: int) -> bool:
        return self.lo <= point < self.hi

    def overlaps(self, other: "Interval") -> bool:
        return self.lo < other.hi and other.lo < self.hi

    def intersect(self, other: "Interval") -> "Interval":
        return Interval(max(self.lo, other.lo), min(self.hi, other.hi))

    def __repr__(self) -> str:
        return f"[{self.lo},{self.hi})"


Span = tuple[int, int]
#: sorted, disjoint, non-touching, non-empty ``(lo, hi)`` pairs
Spans = tuple[Span, ...]


def normalize_spans(spans: Iterable[Span]) -> Spans:
    """Sort, drop empties, merge overlapping/adjacent spans (``a + b``: union)."""
    merged: list[Span] = []
    for span in sorted(s for s in spans if s[0] < s[1]):
        if merged and span[0] <= merged[-1][1]:
            if span[1] > merged[-1][1]:
                merged[-1] = (merged[-1][0], span[1])
        else:
            merged.append(span)
    return tuple(merged)


def intersect_spans(a: Spans, b: Spans) -> Spans:
    """``a ∩ b`` of two normal forms by one two-pointer sweep."""
    out: list[Span] = []
    i = j = 0
    while i < len(a) and j < len(b):
        lo, hi = max(a[i][0], b[j][0]), min(a[i][1], b[j][1])
        if lo < hi:
            out.append((lo, hi))
        # advance whichever span ends first
        if a[i][1] <= b[j][1]:
            i += 1
        else:
            j += 1
    return tuple(out)


def subtract_spans(a: Spans, b: Spans) -> Spans:
    """``a − b`` of two normal forms by one two-pointer sweep."""
    out: list[Span] = []
    j = 0
    for lo, hi in a:
        while j < len(b) and b[j][1] <= lo:
            j += 1
        k = j
        while k < len(b) and b[k][0] < hi:
            if b[k][0] > lo:
                out.append((lo, b[k][0]))
            lo = max(lo, b[k][1])
            if lo >= hi:
                break
            k += 1
        if lo < hi:
            out.append((lo, hi))
    return tuple(out)


def spans_contain(spans: Spans, point: int) -> bool:
    """Membership in a normal form: the last span starting at or before
    ``point`` decides."""
    k = bisect_right(spans, (point, math.inf)) - 1
    return k >= 0 and point < spans[k][1]


class IntervalRegion(Region):
    """Canonical union of disjoint half-open integer intervals."""

    __slots__ = ("_spans", "_ckey")

    def __init__(self, intervals: Iterable[Interval | tuple[int, int]] = ()) -> None:
        self._spans = normalize_spans(
            (iv.lo, iv.hi) if isinstance(iv, Interval) else (int(iv[0]), int(iv[1]))
            for iv in intervals
        )
        self._ckey: Hashable = None
        self._rid: int | None = None

    @classmethod
    def empty(cls) -> "IntervalRegion":
        return cls(())

    @classmethod
    def span(cls, lo: int, hi: int) -> "IntervalRegion":
        """Region addressing the contiguous range ``[lo, hi)``."""
        return cls(((lo, hi),))

    @classmethod
    def of_points(cls, points: Iterable[int]) -> "IntervalRegion":
        return cls((p, p + 1) for p in points)

    @property
    def intervals(self) -> tuple[Interval, ...]:
        return tuple(Interval(lo, hi) for lo, hi in self._spans)

    def bounds(self) -> Interval | None:
        """Smallest single interval covering the region, or ``None`` if empty."""
        if not self._spans:
            return None
        return Interval(self._spans[0][0], self._spans[-1][1])

    def _compute_hull(self) -> Hull:
        if not self._spans:
            return None
        return (ADDRESSES, (self._spans[0][0],), (self._spans[-1][1],))

    def _empty_like(self) -> "IntervalRegion":
        return IntervalRegion()

    # -- closure operations ---------------------------------------------------

    def _coerce(self, other: Region) -> "IntervalRegion":
        if isinstance(other, IntervalRegion):
            return other
        raise RegionMismatchError(
            f"cannot combine IntervalRegion with {type(other).__name__}"
        )

    def _union(self, other: Region) -> "IntervalRegion":
        return IntervalRegion(self._spans + self._coerce(other)._spans)

    def _intersect(self, other: Region) -> "IntervalRegion":
        return IntervalRegion(intersect_spans(self._spans, self._coerce(other)._spans))

    def _difference(self, other: Region) -> "IntervalRegion":
        return IntervalRegion(subtract_spans(self._spans, self._coerce(other)._spans))

    # -- cardinality and membership ------------------------------------------

    def cache_key(self) -> Hashable:
        if self._ckey is None:
            self._ckey = ("interval", self._spans)
        return self._ckey

    def _is_empty(self) -> bool:
        return not self._spans

    def size(self) -> int:
        return sum(hi - lo for lo, hi in self._spans)

    def elements(self) -> Iterator[int]:
        for lo, hi in self._spans:
            yield from range(lo, hi)

    def contains(self, element: Any) -> bool:
        return isinstance(element, int) and spans_contain(self._spans, element)

    # -- value semantics --------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntervalRegion):
            return NotImplemented
        return self._spans == other._spans

    def __hash__(self) -> int:
        return hash(self._spans)

    def __repr__(self) -> str:
        return f"IntervalRegion({list(self.intervals)!r})"


def split_interval_region(region: IntervalRegion, parts: int) -> list[IntervalRegion]:
    """Split ``region`` into ``parts`` contiguous chunks of near-equal size.

    Used by the runtime when spreading a 1-D data item across processes.
    Chunks are returned in address order; some may be empty when the region
    holds fewer elements than ``parts``.
    """
    if parts <= 0:
        raise ValueError(f"parts must be positive, got {parts}")
    total = region.size()
    targets = [(total * (k + 1)) // parts for k in range(parts)]
    chunks: list[IntervalRegion] = []
    acc: list[Interval] = []
    seen = 0
    t = 0
    for iv in region.intervals:
        lo = iv.lo
        while lo < iv.hi:
            want = targets[t] - seen
            take = min(want, iv.hi - lo)
            if take > 0:
                acc.append(Interval(lo, lo + take))
                seen += take
                lo += take
            if seen == targets[t]:
                chunks.append(IntervalRegion(acc))
                acc = []
                t += 1
    while t < parts:
        chunks.append(IntervalRegion(acc))
        acc = []
        t += 1
    return chunks
