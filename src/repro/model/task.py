"""Tasks, variants, programs, and data requirements (Definitions 2.3–2.7).

A :class:`Task` owns one or more :class:`Variant` implementations; the
runtime may freely pick among them (Def. 2.3).  Variants declare their data
requirements as read and write regions per data item (Def. 2.7) and provide
their behaviour as a Python generator function — each ``yield`` of an
:class:`~repro.model.actions.Action` is one application of the abstract
``step`` function of Def. 2.6 (see :mod:`repro.model.execution`).

The paper's well-formedness assumptions are enforced structurally:

* no two tasks share a variant — variants are constructed bound to their
  task and cannot be re-attached;
* every task has at least one variant (``var : T → 2^V \\ ∅``);
* every non-entry task has a unique spawn point — the interpreter rejects a
  second ``spawn`` of the same task.
"""

from __future__ import annotations

from typing import Callable, Iterator, Mapping, TYPE_CHECKING

from repro.model.elements import DataItemDecl
from repro.regions.base import Region
from repro.util.ids import fresh_id

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.model.actions import Action
    from repro.model.execution import TaskContext


VariantBody = Callable[["TaskContext"], Iterator["Action"]]


class AccessSpec:
    """Read/write requirement sets of one variant (Definition 2.7).

    ``read(v, d)`` and ``write(v, d)`` are total functions that are empty
    for almost every pair; we store only the non-empty entries and return an
    item-compatible empty region otherwise.
    """

    __slots__ = ("_reads", "_writes")

    def __init__(
        self,
        reads: Mapping[DataItemDecl, Region] | None = None,
        writes: Mapping[DataItemDecl, Region] | None = None,
    ) -> None:
        self._reads: dict[DataItemDecl, Region] = {}
        self._writes: dict[DataItemDecl, Region] = {}
        for item, region in (reads or {}).items():
            if not region.is_empty():
                self._reads[item] = item.check_region(region)
        for item, region in (writes or {}).items():
            if not region.is_empty():
                self._writes[item] = item.check_region(region)

    def read(self, item: DataItemDecl) -> Region:
        """``read(v, d)`` — elements of ``item`` read during execution."""
        return self._reads.get(item, item.empty_region())

    def write(self, item: DataItemDecl) -> Region:
        """``write(v, d)`` — elements of ``item`` updated during execution."""
        return self._writes.get(item, item.empty_region())

    def accessed(self, item: DataItemDecl) -> Region:
        """``read(v, d) ∪ write(v, d)``."""
        return self.read(item).union(self.write(item))

    def items(self) -> frozenset[DataItemDecl]:
        """Data items with a non-empty read or write set."""
        return frozenset(self._reads) | frozenset(self._writes)

    def read_items(self) -> Mapping[DataItemDecl, Region]:
        return dict(self._reads)

    def write_items(self) -> Mapping[DataItemDecl, Region]:
        return dict(self._writes)

    def is_empty(self) -> bool:
        return not self._reads and not self._writes

    def __repr__(self) -> str:
        r = {i.name: reg.size() for i, reg in self._reads.items()}
        w = {i.name: reg.size() for i, reg in self._writes.items()}
        return f"AccessSpec(reads={r}, writes={w})"


class Variant:
    """One implementation alternative ``v ∈ var(t)`` of a task (Def. 2.3).

    Instances are created through :meth:`Task.add_variant` only, which keeps
    the "no two tasks share a common variant" assumption true by
    construction.
    """

    __slots__ = ("name", "task", "body", "requirements")

    def __init__(
        self,
        task: "Task",
        body: VariantBody,
        requirements: AccessSpec,
        name: str | None = None,
        _token: object = None,
    ) -> None:
        if _token is not Task._VARIANT_TOKEN:
            raise TypeError("Variants must be created via Task.add_variant()")
        self.task = task
        self.body = body
        self.requirements = requirements
        self.name = name if name is not None else fresh_id("variant")

    def __repr__(self) -> str:
        return f"Variant({self.name!r} of {self.task.name!r})"


class Task:
    """A task ``t ∈ T`` with its non-empty set of variants ``var(t)``."""

    _VARIANT_TOKEN = object()

    __slots__ = ("name", "_variants")

    def __init__(self, name: str | None = None) -> None:
        self.name = name if name is not None else fresh_id("task")
        self._variants: list[Variant] = []

    @property
    def variants(self) -> tuple[Variant, ...]:
        """``var(t)`` — empty only while the task is still being built."""
        return tuple(self._variants)

    def add_variant(
        self,
        body: VariantBody,
        requirements: AccessSpec | None = None,
        name: str | None = None,
    ) -> Variant:
        """Attach an implementation alternative and return it."""
        variant = Variant(
            self,
            body,
            requirements if requirements is not None else AccessSpec(),
            name=name if name is not None else f"{self.name}/v{len(self._variants)}",
            _token=Task._VARIANT_TOKEN,
        )
        self._variants.append(variant)
        return variant

    def check_well_formed(self) -> "Task":
        """Enforce ``var(t) ≠ ∅`` (Definition 2.3)."""
        if not self._variants:
            raise ValueError(f"task {self.name!r} has no variants")
        return self

    def __repr__(self) -> str:
        return f"Task({self.name!r}, {len(self._variants)} variants)"


def simple_task(
    body: VariantBody,
    requirements: AccessSpec | None = None,
    name: str | None = None,
) -> Task:
    """Build a task with a single variant — the common case in tests."""
    task = Task(name=name)
    task.add_variant(body, requirements)
    return task


class Program:
    """A program given by its entry-point task ``t0 ∈ P`` (Definition 2.4)."""

    __slots__ = ("entry",)

    def __init__(self, entry: Task) -> None:
        self.entry = entry.check_well_formed()

    def __repr__(self) -> str:
        return f"Program(entry={self.entry.name!r})"
