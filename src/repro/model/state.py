"""The system state (Definition 2.9).

A state is the tuple ``(Q, R, B, D, Lr, Lw, (C ⊎ M, L))``:

* ``Q`` — enqueued, not yet started tasks,
* ``R`` — running variant executions ``(c, v, s)``,
* ``B`` — suspended executions ``(c, v, s, t)`` waiting on task ``t``,
* ``D`` — the data distribution: which elements of which item are present
  in which address space,
* ``Lr`` / ``Lw`` — read / write locks per ``(v, m, d)``,
* the architecture graph.

``D``, ``Lr`` and ``Lw`` are element-level relations in the paper; here
they map ``(m, d)`` respectively ``(v, m, d)`` to a
:class:`~repro.regions.base.Region`, which is the same information without
element enumeration (exactly the representation the paper's §3
implementation uses).

The class is mutable — transitions update it in place — and offers
:meth:`snapshot` to capture an immutable, comparable view for traces and
property checks.  A few *ghost fields* (``items``, ``spawned``,
``started``, ``completed``) record history used by Appendix A style
property checks; they are not part of the formal tuple and never influence
transition guards except where the guard quantifies over them faithfully
(``init`` needs the set of created items to know ``elems(d)``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.model.architecture import ArchitectureModel, ComputeUnit, MemorySpace
from repro.model.elements import DataItemDecl
from repro.model.execution import VariantExecution
from repro.model.task import Task, Variant
from repro.regions.base import Region


@dataclass(eq=False)
class RunningEntry:
    """An element ``(c, v, s) ∈ R`` — a variant running on a compute unit.

    ``binding`` records the memory chosen for each accessed data item by the
    *start* transition; the formal rule existentially quantifies over this
    mapping, and keeping the witness makes the *satisfied requirements*
    property directly checkable.
    """

    unit: ComputeUnit
    execution: VariantExecution
    binding: Mapping[DataItemDecl, MemorySpace] = field(default_factory=dict)

    @property
    def variant(self) -> Variant:
        return self.execution.variant


@dataclass(eq=False)
class BlockedEntry:
    """An element ``(c, v, s, t) ∈ B`` — a variant waiting for task ``t``."""

    unit: ComputeUnit
    execution: VariantExecution
    waiting_on: Task
    binding: Mapping[DataItemDecl, MemorySpace] = field(default_factory=dict)

    @property
    def variant(self) -> Variant:
        return self.execution.variant


@dataclass(frozen=True)
class StateSnapshot:
    """Immutable summary of a state for traces and invariant checks."""

    queued: frozenset[str]
    running: frozenset[str]
    blocked: frozenset[tuple[str, str]]
    coverage: Mapping[str, int]
    read_locks: int
    write_locks: int

    def is_terminal(self) -> bool:
        return (
            not self.queued
            and not self.running
            and not self.blocked
            and self.read_locks == 0
            and self.write_locks == 0
        )


class SystemState:
    """Mutable system state driven by :mod:`repro.model.transitions`."""

    def __init__(self, architecture: ArchitectureModel) -> None:
        self.architecture = architecture
        self.queued: set[Task] = set()
        self.running: list[RunningEntry] = []
        self.blocked: list[BlockedEntry] = []
        # D: (m, d) -> present region (entries with empty regions are dropped)
        self.distribution: dict[tuple[MemorySpace, DataItemDecl], Region] = {}
        # Lr / Lw: (v, m, d) -> locked region
        self.read_locks: dict[
            tuple[Variant, MemorySpace, DataItemDecl], Region
        ] = {}
        self.write_locks: dict[
            tuple[Variant, MemorySpace, DataItemDecl], Region
        ] = {}
        # ghost fields (history / registries, see module docstring)
        self.items: set[DataItemDecl] = set()
        self.spawned: set[Task] = set()
        self.started: list[Task] = []
        self.completed: set[Task] = set()

    # -- D queries --------------------------------------------------------------

    def present_region(self, memory: MemorySpace, item: DataItemDecl) -> Region:
        """Elements of ``item`` present in ``memory``."""
        region = self.distribution.get((memory, item))
        return region if region is not None else item.empty_region()

    def coverage(self, item: DataItemDecl) -> Region:
        """Union of present regions over all address spaces."""
        total = item.empty_region()
        for (memory, d), region in self.distribution.items():
            if d is item:
                total = total.union(region)
        return total

    def memories_holding(self, item: DataItemDecl, region: Region) -> list[MemorySpace]:
        """Memories whose present region overlaps ``region``."""
        out = []
        for (memory, d), present in self.distribution.items():
            if d is item and present.overlaps(region):
                out.append(memory)
        return out

    def set_present(
        self, memory: MemorySpace, item: DataItemDecl, region: Region
    ) -> None:
        key = (memory, item)
        if region.is_empty():
            self.distribution.pop(key, None)
        else:
            self.distribution[key] = region

    # -- lock queries -------------------------------------------------------------

    def locked_region(
        self,
        locks: Mapping[tuple[Variant, MemorySpace, DataItemDecl], Region],
        memory: MemorySpace,
        item: DataItemDecl,
    ) -> Region:
        total = item.empty_region()
        for (_, m, d), region in locks.items():
            if m == memory and d is item:
                total = total.union(region)
        return total

    def read_locked(self, memory: MemorySpace, item: DataItemDecl) -> Region:
        return self.locked_region(self.read_locks, memory, item)

    def write_locked(self, memory: MemorySpace, item: DataItemDecl) -> Region:
        return self.locked_region(self.write_locks, memory, item)

    def any_locked(self, memory: MemorySpace, item: DataItemDecl) -> Region:
        return self.read_locked(memory, item).union(
            self.write_locked(memory, item)
        )

    def release_locks_of(self, variant: Variant) -> None:
        """Drop ``{v} × M × D × E`` from both lock relations (rule *end*)."""
        for locks in (self.read_locks, self.write_locks):
            for key in [k for k in locks if k[0] is variant]:
                del locks[key]

    def drop_item_locks(self, item: DataItemDecl) -> None:
        """Drop ``V × M × {d} × E`` from both lock relations (rule *destroy*)."""
        for locks in (self.read_locks, self.write_locks):
            for key in [k for k in locks if k[2] is item]:
                del locks[key]

    # -- snapshots ---------------------------------------------------------------

    def snapshot(self) -> StateSnapshot:
        return StateSnapshot(
            queued=frozenset(t.name for t in self.queued),
            running=frozenset(e.variant.name for e in self.running),
            blocked=frozenset(
                (e.variant.name, e.waiting_on.name) for e in self.blocked
            ),
            coverage={i.name: self.coverage(i).size() for i in self.items},
            read_locks=len(self.read_locks),
            write_locks=len(self.write_locks),
        )

    def is_terminal(self) -> bool:
        """Terminal per Definition 2.11: only ``D`` may be non-empty."""
        return (
            not self.queued
            and not self.running
            and not self.blocked
            and not self.read_locks
            and not self.write_locks
        )

    def __repr__(self) -> str:
        return (
            f"SystemState(|Q|={len(self.queued)}, |R|={len(self.running)}, "
            f"|B|={len(self.blocked)}, |D|={len(self.distribution)}, "
            f"|Lr|={len(self.read_locks)}, |Lw|={len(self.write_locks)})"
        )


def initial_state(
    architecture: ArchitectureModel, entry: Task
) -> SystemState:
    """``s0 = ({t0}, ∅, ∅, ∅, ∅, ∅, (C ⊎ M, L))`` (Definition 2.11)."""
    state = SystemState(architecture)
    state.queued.add(entry.check_well_formed())
    state.spawned.add(entry)
    return state
