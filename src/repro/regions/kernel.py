"""Canonical region kernel: interning and memoized region algebra.

Every hot path of the runtime — Algorithm 1's hierarchical index lookups,
Algorithm 2's coverage checks, the region-granular lock tables, and the
data item manager's migrate/replicate/invalidate machinery (paper §3.2) —
is a chain of region ``union``/``difference``/``intersect``/``covers``
calls, and the same operand pairs recur over and over (per timestep, per
task template, per lookup).  This module provides the shared kernel those
paths run on:

* **Interning** — every region family defines a *canonical* normal form
  (see :meth:`repro.regions.base.Region.cache_key`); the kernel maps each
  canonical key to one representative instance, so semantically equal
  regions collapse to the same object, equality degenerates to identity,
  and hashing is O(1) after the first computation.

* **Interned ids** — every representative carries a small, process-unique
  integer id (``_rid``, assigned once at interning time and never
  recycled).  The id does double duty: it marks a region as already
  canonical, so re-interning is a single attribute check instead of a
  ``cache_key``/hash/dict round trip, and it keys the memo-cache with a
  flat ``(op, rid, rid)`` integer tuple — the O(1) fast path every hot
  loop lands on once its operands have been seen once.

* **Memoized algebra** — the binary closure operations (``union``,
  ``intersect``, ``difference``) and the derived predicates (``covers``,
  ``overlaps``) are cached in a plain dict keyed by interned ids.  Ids
  are never reused, so entries can never alias; when the cache exceeds
  its capacity the oldest half (insertion order) is dropped wholesale —
  cheaper than per-hit LRU maintenance, which dominated profiles.
  Same-family operations with an empty operand short-circuit without
  touching the cache at all.  ``is_empty`` is O(1) on every canonical
  form and is therefore delegated (and merely counted), not cached.

* **Hull gate** — most calls come from linear scans and ask about
  operands that are nowhere near each other.  Every region states one
  cached, conservative hull (:meth:`~repro.regions.base.Region.hull`,
  filled at the latest when the region is interned).  On a memo miss,
  ``intersect``/``difference``/``covers``/``overlaps`` answer a
  same-family pair whose hulls are provably disjoint directly — the
  interned empty region, the left operand, ``False``, ``False`` — without
  the family algebra and **without a memo entry**: the memo holds
  overlapping pairs only, so "empty" results no longer evict useful
  ones.  Hulls compare only within one coordinate space and rank, so a
  rank or geometry mismatch is never answered here.

* **Counters** — per-op hit/miss counters, the hull-reject count and the
  intern count are exposed through :meth:`RegionKernel.stats` and
  surfaced as ``region.*`` counters in ``runtime.metrics`` and the bench
  report.

The kernel is deliberately family-agnostic: it never inspects region
internals, it only reads the hull and calls the raw ``_union``/
``_intersect``/``_difference``/``_covers``/``_empty_like``
implementations the families provide.  Type and geometry mismatch errors
therefore surface exactly as they would without the kernel (and failed
operations are never cached).
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Hashable

from repro.regions.bounds import bounds_disjoint

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.regions.base import Region

#: process-wide interned-id allocator: ids are unique across *all* kernel
#: instances (and never recycled), so an id-keyed memo entry can never
#: alias even when regions flow between kernels (tests build private ones)
_RID_COUNTER = itertools.count(1)

# opcodes for the memo-cache key tuples; kept as module constants so the
# hot methods avoid any string hashing
_UNION, _INTERSECT, _DIFFERENCE, _COVERS, _OVERLAPS = range(5)
_OP_NAMES = ("union", "intersect", "difference", "covers", "overlaps")


class RegionKernel:
    """Interning table plus bounded memo-cache for the region algebra."""

    __slots__ = (
        "intern_capacity",
        "op_capacity",
        "_interned",
        "_ops",
        "_hits",
        "_misses",
        "_interned_count",
        "_is_empty_calls",
        "_hull_rejects",
    )

    def __init__(
        self, intern_capacity: int = 1 << 16, op_capacity: int = 1 << 17
    ) -> None:
        if intern_capacity < 1 or op_capacity < 1:
            raise ValueError("kernel capacities must be positive")
        self.intern_capacity = intern_capacity
        self.op_capacity = op_capacity
        #: canonical key -> representative region instance (FIFO-bounded)
        self._interned: dict[Hashable, "Region"] = {}
        #: (op, rid(a), rid(b)) -> result; ids are never recycled, so the
        #: key alone identifies the operands — no liveness guard needed
        self._ops: dict[tuple[int, int, int], object] = {}
        self._hits = [0, 0, 0, 0, 0]
        self._misses = [0, 0, 0, 0, 0]
        self._is_empty_calls = 0
        self._interned_count = 0
        self._hull_rejects = 0

    # -- interning ------------------------------------------------------------

    def intern(self, region: "Region") -> "Region":
        """Return the canonical representative for ``region``.

        The first instance seen for a canonical key becomes the
        representative; later semantically-equal instances resolve to it.
        An already-interned region (carrying an id) returns itself with a
        single attribute check — no key computation, no table access.
        """
        if region._rid is not None:
            return region
        key = region.cache_key()
        table = self._interned
        rep = table.get(key)
        if rep is not None:
            return rep
        region._rid = next(_RID_COUNTER)
        region.hull()  # fills ``_hull``, which the gated operations read
        table[key] = region
        self._interned_count += 1
        if len(table) > self.intern_capacity:
            # FIFO: drop the oldest representative.  Its id stays valid on
            # the instance (live references keep working at full speed);
            # only future duplicates re-intern to a fresh representative.
            del table[next(iter(table))]
        return region

    # -- memoized binary algebra ------------------------------------------------

    def _store(self, key: tuple[int, int, int], result: object) -> None:
        ops = self._ops
        ops[key] = result
        if len(ops) > self.op_capacity:
            # drop the oldest (insertion-ordered) half wholesale; per-hit
            # LRU reordering cost more than the misses it prevented
            for stale in list(itertools.islice(iter(ops), len(ops) // 2)):
                del ops[stale]

    def union(self, a: "Region", b: "Region") -> "Region":
        if a._rid is None:
            a = self.intern(a)
        if b._rid is None:
            b = self.intern(b)
        if a is b:
            return a
        if type(a) is type(b):
            if b._is_empty():
                return a
            if a._is_empty():
                return b
        ra = a._rid
        rb = b._rid
        if type(a) is type(b) and rb < ra:  # symmetric: normalize the key
            a, b, ra, rb = b, a, rb, ra
        key = (_UNION, ra, rb)
        result = self._ops.get(key)
        if result is not None:
            self._hits[_UNION] += 1
            return result  # type: ignore[return-value]
        self._misses[_UNION] += 1
        result = self.intern(a._union(b))
        self._store(key, result)
        return result  # type: ignore[return-value]

    def intersect(self, a: "Region", b: "Region") -> "Region":
        if a._rid is None:
            a = self.intern(a)
        if b._rid is None:
            b = self.intern(b)
        if a is b:
            return a
        if type(a) is type(b):
            if a._is_empty():
                return a
            if b._is_empty():
                return b
        ra = a._rid
        rb = b._rid
        if type(a) is type(b) and rb < ra:
            a, b, ra, rb = b, a, rb, ra
        key = (_INTERSECT, ra, rb)
        result = self._ops.get(key)
        if result is not None:
            self._hits[_INTERSECT] += 1
            return result  # type: ignore[return-value]
        if type(a) is type(b) and bounds_disjoint(a._hull, b._hull):
            self._hull_rejects += 1
            return self.intern(a._empty_like())
        self._misses[_INTERSECT] += 1
        result = self.intern(a._intersect(b))
        self._store(key, result)
        return result  # type: ignore[return-value]

    def difference(self, a: "Region", b: "Region") -> "Region":
        if type(a) is type(b) and (a._is_empty() or b._is_empty()):
            return a if a._rid is not None else self.intern(a)
        if a._rid is None:
            a = self.intern(a)
        if b._rid is None:
            b = self.intern(b)
        key = (_DIFFERENCE, a._rid, b._rid)
        result = self._ops.get(key)
        if result is not None:
            self._hits[_DIFFERENCE] += 1
            return result  # type: ignore[return-value]
        if type(a) is type(b) and bounds_disjoint(a._hull, b._hull):
            self._hull_rejects += 1
            return a
        self._misses[_DIFFERENCE] += 1
        result = self.intern(a._difference(b))
        self._store(key, result)
        return result  # type: ignore[return-value]

    # -- memoized predicates ---------------------------------------------------

    def covers(self, a: "Region", b: "Region") -> bool:
        if a is b:
            return True
        if type(a) is type(b) and b._is_empty():
            return True
        if a._rid is None:
            a = self.intern(a)
        if b._rid is None:
            b = self.intern(b)
        if a is b:
            return True
        key = (_COVERS, a._rid, b._rid)
        result = self._ops.get(key)
        if result is not None:
            self._hits[_COVERS] += 1
            return result is True
        if type(a) is type(b) and bounds_disjoint(a._hull, b._hull):
            self._hull_rejects += 1
            return False  # ``b`` is not empty: answered above
        self._misses[_COVERS] += 1
        verdict = a._covers(b)
        self._store(key, verdict)
        return verdict

    def overlaps(self, a: "Region", b: "Region") -> bool:
        if a is b:
            return not a._is_empty()
        if type(a) is type(b) and (a._is_empty() or b._is_empty()):
            return False
        if a._rid is None:
            a = self.intern(a)
        if b._rid is None:
            b = self.intern(b)
        if a is b:
            return not a._is_empty()
        ra = a._rid
        rb = b._rid
        if type(a) is type(b) and rb < ra:
            a, b, ra, rb = b, a, rb, ra
        key = (_OVERLAPS, ra, rb)
        result = self._ops.get(key)
        if result is not None:
            self._hits[_OVERLAPS] += 1
            return result is True
        if type(a) is type(b) and bounds_disjoint(a._hull, b._hull):
            self._hull_rejects += 1
            return False
        self._misses[_OVERLAPS] += 1
        verdict = not self.intersect(a, b)._is_empty()
        self._store(key, verdict)
        return verdict

    def is_empty(self, a: "Region") -> bool:
        # O(1) on every canonical form; counted for completeness, not cached
        self._is_empty_calls += 1
        return a._is_empty()

    # -- introspection ---------------------------------------------------------

    @property
    def cache_hits(self) -> int:
        return sum(self._hits)

    @property
    def cache_misses(self) -> int:
        return sum(self._misses)

    @property
    def interned(self) -> int:
        """Total regions interned (monotone; unaffected by eviction)."""
        return self._interned_count

    @property
    def live_interned(self) -> int:
        return len(self._interned)

    def stats(self) -> dict[str, int]:
        """Flat counter snapshot using the ``region.*`` metric names."""
        out = {
            "region.cache_hits": self.cache_hits,
            "region.cache_misses": self.cache_misses,
            "region.interned": self._interned_count,
            "region.hull_rejects": self._hull_rejects,
        }
        for code, op in enumerate(_OP_NAMES):
            hits = self._hits[code]
            misses = self._misses[code]
            if hits or misses:
                out[f"region.{op}.hits"] = hits
                out[f"region.{op}.misses"] = misses
        if self._is_empty_calls:
            out["region.is_empty.calls"] = self._is_empty_calls
        return out

    def reset(self) -> None:
        """Drop both tables and all counters (test isolation).

        Already-issued interned ids stay valid on their instances — ids
        are never recycled, so stale memo keys cannot alias after reset.
        """
        self._interned.clear()
        self._ops.clear()
        self._hits = [0, 0, 0, 0, 0]
        self._misses = [0, 0, 0, 0, 0]
        self._is_empty_calls = 0
        self._interned_count = 0
        self._hull_rejects = 0

    def __repr__(self) -> str:
        return (
            f"RegionKernel(interned={len(self._interned)}, "
            f"ops={len(self._ops)}, hits={self.cache_hits}, "
            f"misses={self.cache_misses})"
        )


#: process-wide kernel all region instances route their algebra through
_KERNEL = RegionKernel()


def get_kernel() -> RegionKernel:
    """The process-wide region kernel singleton."""
    return _KERNEL
