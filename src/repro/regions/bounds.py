"""Conservative hulls for overlap rejection: one definition, three readers.

Pairwise region sweeps (the sentinel's race checks, the runtime's
write-intent reservation, the lock tables' conflict scans) mostly compare
regions that are nowhere near each other.  Every region states one cached
*hull* through :meth:`repro.regions.base.Region.hull` — half-open bounding
corners that contain every addressed element — and a pair whose hulls are
disjoint provably cannot overlap: a few tuple comparisons instead of the
family algebra.  The test is conservative: it only ever rejects pairs the
full algebra would also reject, never pairs that might overlap.

A hull is tri-state:

* ``(space, lo, hi)`` — corner tuples, half-open on every axis like
  ``Box``, in the coordinate ``space`` they live in.  Hulls compare only
  within one space: box sets and interval sets state corners over the
  element addresses themselves (:data:`ADDRESSES`); tree regions state
  the first/last pre-order position of a depth-``d`` tree;
* ``None`` — the region is empty (disjoint from everything);
* ``NO_BOUNDS`` — the scheme states no hull (bitmask and explicit-set
  regions), so no rejection is possible and the caller must fall through
  to the exact check.

The region kernel gates its memo misses on the hull itself
(:mod:`repro.regions.kernel`).  The runtime's tables — write intents, lock
tables, the replica registry, home maps and index covers — read the raw
``region.hull()`` too, per item, and reject an entry before they call the
kernel at all: all regions of one item share a family, so tree hulls
reject as well as box hulls, and a pair across spaces is never rejected.
The sentinel and the static analyzer read it through :func:`corner_bounds`,
which only passes on hulls over element addresses.

:func:`hull_gap` measures how far apart two hulls lie; storm recovery
gives a lost part to the survivor whose owned hull is nearest.
"""

from __future__ import annotations

import math
from typing import Any, Hashable, Optional

#: marker for "region scheme states no hull" (bitmask/set)
NO_BOUNDS: Any = object()

#: hull space of box and interval sets: the corners are element addresses
ADDRESSES = "addresses"

#: ``(space, lo, hi)`` or ``None`` (empty); the third state, :data:`NO_BOUNDS`,
#: is typed ``Any`` and so fits every annotation
Hull = Optional[tuple[Hashable, tuple[int, ...], tuple[int, ...]]]


def corner_bounds(region) -> Hull:
    """Address-space view of ``region.hull()`` (see module docstring).

    Box-set regions report their bounding corners; interval regions report
    ``(lo, hi)`` as a 1-D corner pair; anything else — tree regions too,
    whose hull counts pre-order positions, not addresses — ``NO_BOUNDS``.
    """
    hull = region.hull()
    if hull is None or hull is NO_BOUNDS or hull[0] is ADDRESSES:
        return hull
    return NO_BOUNDS


def bounds_disjoint(a: Hull, b: Hull) -> bool:
    """True when two hulls *provably* do not overlap.

    ``None`` means an empty region (disjoint from everything);
    ``NO_BOUNDS``, another space or another rank means unknown, so no
    rejection is possible.
    """
    if a is None or b is None:
        return True
    if a is NO_BOUNDS or b is NO_BOUNDS:
        return False
    aspace, alo, ahi = a
    bspace, blo, bhi = b
    if aspace != bspace or len(alo) != len(blo):
        return False
    for k in range(len(alo)):
        if alo[k] >= bhi[k] or blo[k] >= ahi[k]:
            return True
    return False


def hull_gap(a: Hull, b: Hull) -> float:
    """Elements between two hulls, summed over the axes: 0 when they
    touch or overlap, infinite when either is empty or the two state no
    comparable corners (``NO_BOUNDS``, another space or another rank)."""
    if a is None or b is None or a is NO_BOUNDS or b is NO_BOUNDS:
        return math.inf
    aspace, alo, ahi = a
    bspace, blo, bhi = b
    if aspace != bspace or len(alo) != len(blo):
        return math.inf
    return sum(
        max(0, alo[k] - bhi[k], blo[k] - ahi[k]) for k in range(len(alo))
    )
