"""Abstract region interface (Definition 2.2 / Section 3.1).

A region addresses a finite subset of a data item's element addresses.  The
paper requires region types to be closed under union, intersection and
set-difference; this module pins that contract down as an abstract base
class so the runtime (data item manager, hierarchical index, scheduler) can
operate on any region type uniformly.

Regions are immutable value objects in a *canonical* normal form: every
family implements :meth:`Region.cache_key`, a hashable key that identifies
the addressed element set (plus family and geometry) uniquely.  The public
algebra — ``union``/``intersect``/``difference`` and the predicates
``covers``/``overlaps`` — does not run the per-family implementations
directly; it routes through the process-wide
:class:`~repro.regions.kernel.RegionKernel`, which interns canonical
regions and memoizes the operations.  Families provide the raw
implementations as ``_union``/``_intersect``/``_difference`` (and may
override ``_covers`` with a fast path).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Hashable, Iterator

from repro.regions.bounds import NO_BOUNDS, Hull
from repro.regions.kernel import get_kernel


class RegionMismatchError(TypeError):
    """Raised when combining regions over incompatible element universes."""


class Region(ABC):
    """A finite, addressable subset of a data item's elements.

    Subclasses must implement the three raw closure operations plus
    emptiness, cardinality, enumeration, membership, and a canonical
    :meth:`cache_key`.  Operators ``|``, ``&`` and ``-`` are provided on
    top of the kernel-routed algebra, and semantic (element-set) equality
    is available through :meth:`same_elements` even when two instances use
    different region families.
    """

    #: interned id — ``None`` until the kernel interns this instance, then a
    #: process-unique integer that marks it canonical and keys the memo
    #: cache (see :class:`~repro.regions.kernel.RegionKernel`, whose hot
    #: paths read it as the ``int`` it is once interned, hence ``Any``)
    __slots__ = ("_rid", "_hull")
    _rid: Any
    #: conservative hull, filled on the first :meth:`hull` read — at the
    #: latest when the kernel interns the instance
    _hull: Hull

    # -- kernel-routed closure operations (Section 3.1 requirements) -------

    def union(self, other: "Region") -> "Region":
        """Return the region addressing ``self ∪ other`` (memoized)."""
        return get_kernel().union(self, other)

    def intersect(self, other: "Region") -> "Region":
        """Return the region addressing ``self ∩ other`` (memoized)."""
        return get_kernel().intersect(self, other)

    def difference(self, other: "Region") -> "Region":
        """Return the region addressing ``self \\ other`` (memoized)."""
        return get_kernel().difference(self, other)

    # -- raw per-family implementations (called by the kernel on miss) -----

    @abstractmethod
    def _union(self, other: "Region") -> "Region":
        """Uncached ``self ∪ other``."""

    @abstractmethod
    def _intersect(self, other: "Region") -> "Region":
        """Uncached ``self ∩ other``."""

    @abstractmethod
    def _difference(self, other: "Region") -> "Region":
        """Uncached ``self \\ other``."""

    def _covers(self, other: "Region") -> bool:
        """Uncached containment; families may override with a fast path."""
        return other.difference(self).is_empty()

    def _empty_like(self) -> "Region":
        """The empty region of this family and universe; hull-stating
        families override it with a constructor call."""
        return self._difference(self)

    # -- conservative hull (see :mod:`repro.regions.bounds`) ------------------

    def hull(self) -> Hull:
        """Half-open bounding corners ``(space, lo, hi)`` of the element
        set, ``None`` when empty, ``NO_BOUNDS`` when the family states none.

        Computed once per instance.  The kernel answers a same-family pair
        with disjoint hulls without running the family algebra.
        """
        try:
            return self._hull
        except AttributeError:
            hull = self._hull = self._compute_hull()
            return hull

    def _compute_hull(self) -> Hull:
        """Uncached hull; families with cheap corners override."""
        return NO_BOUNDS

    # -- canonical identity -------------------------------------------------

    @abstractmethod
    def cache_key(self) -> Hashable:
        """Hashable canonical identity: family, geometry, element set.

        Two regions have equal cache keys iff they are of the same family
        over the same geometry and address exactly the same element set.
        The kernel's intern table and memo-cache are keyed on it.
        """

    def interned(self) -> "Region":
        """The canonical representative of this region (self if first)."""
        return get_kernel().intern(self)

    # -- cardinality and membership ----------------------------------------

    def is_empty(self) -> bool:
        """Return ``True`` iff the region addresses no element."""
        return self._is_empty()

    @abstractmethod
    def _is_empty(self) -> bool:
        """Emptiness test; O(1) on every canonical form."""

    @abstractmethod
    def size(self) -> int:
        """Return the number of addressed elements."""

    @abstractmethod
    def elements(self) -> Iterator[Any]:
        """Enumerate the addressed element addresses.

        May be expensive for large regions; intended for tests, debugging and
        small functional fragments — the runtime itself never enumerates.
        """

    @abstractmethod
    def contains(self, element: Any) -> bool:
        """Return ``True`` iff ``element`` is addressed by this region."""

    # -- derived conveniences ------------------------------------------------

    def overlaps(self, other: "Region") -> bool:
        """Return ``True`` iff the two regions share at least one element."""
        return get_kernel().overlaps(self, other)

    def covers(self, other: "Region") -> bool:
        """Return ``True`` iff every element of ``other`` is in ``self``."""
        return get_kernel().covers(self, other)

    def same_elements(self, other: "Region") -> bool:
        """Semantic equality: both regions address exactly the same set."""
        if self is other:
            return True
        if type(self) is type(other) and self.cache_key() == other.cache_key():
            return True
        return self.difference(other).is_empty() and other.difference(self).is_empty()

    # -- operator sugar -------------------------------------------------------

    def __or__(self, other: "Region") -> "Region":
        return self.union(other)

    def __and__(self, other: "Region") -> "Region":
        return self.intersect(other)

    def __sub__(self, other: "Region") -> "Region":
        return self.difference(other)

    def __bool__(self) -> bool:
        return not self.is_empty()

    def __len__(self) -> int:
        return self.size()

    def __iter__(self) -> Iterator[Any]:
        return self.elements()

    def __contains__(self, element: Any) -> bool:
        return self.contains(element)
