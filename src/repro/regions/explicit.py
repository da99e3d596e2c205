"""Explicit element-set region — the semantic reference implementation.

The paper notes (Section 3.1) that explicit element enumerations, "while
technically sound, are less practical".  We keep one anyway: it is trivially
correct, so every efficient region type (interval sets, box sets, tree
schemes) is property-tested against it.
"""

from __future__ import annotations

from typing import Any, Hashable, Iterable, Iterator

from repro.regions.base import Region, RegionMismatchError


class ExplicitSetRegion(Region):
    """A region backed by a plain frozen set of element addresses."""

    __slots__ = ("_elements", "_ckey")

    def __init__(self, elements: Iterable[Any] = ()) -> None:
        self._elements = frozenset(elements)
        self._ckey: Hashable = None
        self._rid: int | None = None

    @classmethod
    def empty(cls) -> "ExplicitSetRegion":
        return cls(())

    # -- closure operations ---------------------------------------------------

    def _coerce(self, other: Region) -> frozenset:
        if isinstance(other, ExplicitSetRegion):
            return other._elements
        if isinstance(other, Region):
            return frozenset(other.elements())
        raise RegionMismatchError(
            f"cannot combine ExplicitSetRegion with {type(other).__name__}"
        )

    def _union(self, other: Region) -> "ExplicitSetRegion":
        return ExplicitSetRegion(self._elements | self._coerce(other))

    def _intersect(self, other: Region) -> "ExplicitSetRegion":
        return ExplicitSetRegion(self._elements & self._coerce(other))

    def _difference(self, other: Region) -> "ExplicitSetRegion":
        return ExplicitSetRegion(self._elements - self._coerce(other))

    # -- cardinality and membership ------------------------------------------

    def cache_key(self) -> Hashable:
        if self._ckey is None:
            self._ckey = ("explicit", self._elements)
        return self._ckey

    def _is_empty(self) -> bool:
        return not self._elements

    def size(self) -> int:
        return len(self._elements)

    def elements(self) -> Iterator[Any]:
        return iter(self._elements)

    def contains(self, element: Any) -> bool:
        return element in self._elements

    # -- value semantics -------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExplicitSetRegion):
            return NotImplemented
        return self._elements == other._elements

    def __hash__(self) -> int:
        return hash(self._elements)

    def __repr__(self) -> str:
        preview = sorted(self._elements, key=repr)[:6]
        suffix = ", ..." if len(self._elements) > 6 else ""
        inner = ", ".join(map(repr, preview))
        return f"ExplicitSetRegion({{{inner}{suffix}}})"
