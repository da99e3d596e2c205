"""Runtime task representation and treetures.

A :class:`TaskSpec` is the runtime-level counterpart of a model-level task
with two variants (paper Example 2.3): executed as a **leaf** it performs
its whole work sequentially (``flops`` of core time plus an optional
functional ``body``); executed as the **parallel variant** it is split by
``splitter`` into child tasks whose results ``combiner`` folds back
together.  Which variant runs is the scheduling policy's choice
(Algorithm 2, line 3).

The requirement dictionaries are exactly the compiler-generated
requirement functions of §3.3: for every accessed data item, the region
read and the region written.

A :class:`Treeture` (the AllScale API's name for a task-result handle) is a
completable future carrying the task's value; ``yield treeture.future``
inside a simulation process awaits completion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence, TYPE_CHECKING

from repro.items.base import DataItem, Fragment
from repro.regions.base import Region
from repro.util.ids import fresh_id

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Future, SimEngine

#: who owns what of the item a split task writes: ``(region, pid)``
#: pieces, as the scheduler's placement lookup (Algorithm 2) returned
#: them, or the item's home map at first touch; empty when unknown
OwnerMap = Sequence[tuple[Region, int]]

#: the charged Algorithm-1 lookup that placed a task (Algorithm 2): per
#: accessed item, the ``(region, pid)`` pieces of its accessed region as
#: they were owned then.  It travels with the task as a hint — ownership
#: may have moved since, which the process the task lands on checks
#: against its own leaves — and is empty for a task placed without one
Lookup = Mapping[DataItem, OwnerMap]


def clip(pieces: OwnerMap, region: Region) -> list[tuple[Region, int]]:
    """Looked-up ``pieces`` cut down to ``region``, empty cuts left out."""
    clipped = [(part.intersect(region), owner) for part, owner in pieces]
    return [(part, owner) for part, owner in clipped if not part.is_empty()]


@dataclass(slots=True)
class TaskSpec:
    """A schedulable unit of work with declared data requirements."""

    name: str = ""
    reads: dict[DataItem, Region] = field(default_factory=dict)
    writes: dict[DataItem, Region] = field(default_factory=dict)
    #: sequential-execution cost of the whole task, in FLOPs
    flops: float = 0.0
    #: iterations/elements covered — drives granularity decisions
    size_hint: float = 1.0
    #: functional leaf work; receives a TaskExecutionContext, returns a value
    body: Callable[["TaskExecutionContext"], Any] | None = None
    #: produce child tasks (the parallel variant) from the owner map the
    #: task was placed with; None = leaf-only task.  A splitter may ignore
    #: the map, and must split correctly for any map, stale or empty
    splitter: Callable[[OwnerMap], list["TaskSpec"]] | None = None
    #: fold child values into this task's value (default: list of them)
    combiner: Callable[[list[Any]], Any] | None = None
    #: stop splitting once size_hint falls to this value (None: use
    #: ``config.MIN_TASK_SIZE``); set by pfor/prec from range sizes
    granularity: float | None = None
    #: run the body even when fragments are virtual (the body must then not
    #: touch fragment values — e.g. TPC bodies read the shared kd-tree
    #: structure, not fragment storage)
    body_in_virtual: bool = False
    #: device cost of the leaf work, enabling a GPU variant (Example 2.3's
    #: "runtime may choose between these alternatives" extended to
    #: accelerators); None = CPU-only task
    gpu_flops: float | None = None
    #: the user-authored kernel ``body`` wraps, when they differ — pfor's
    #: point kernels and prec's base cases are closed over parameters
    #: before becoming ``body``, hiding their source from the static
    #: analyzer; builders record the original here for the AST lint pass
    origin_body: Callable[..., Any] | None = None

    def transfer_bytes(self) -> int:
        """Host↔device bytes an offloaded execution must move."""
        total = 0
        for item in self.accessed_items():
            total += item.region_bytes(self.accessed_region(item))
            total += item.region_bytes(self.write_region(item))
        return total

    def __post_init__(self) -> None:
        if not self.name:
            self.name = fresh_id("rtask")
        if self.flops < 0:
            raise ValueError(f"negative flops on task {self.name!r}")
        if self.size_hint <= 0:
            raise ValueError(f"non-positive size_hint on task {self.name!r}")

    @property
    def splittable(self) -> bool:
        return self.splitter is not None

    def expand_children(self) -> list["TaskSpec"]:
        """Child specs the split variant would spawn, without running them.

        Splitters are pure constructors (they evaluate requirement
        functions, never leaf bodies), so this is safe to call outside
        the scheduler — the static analyzer unfolds task trees with it,
        owner map unknown.
        """
        if self.splitter is None:
            raise ValueError(f"task {self.name!r} is leaf-only")
        return list(self.splitter(()))

    def accessed_items(self) -> frozenset[DataItem]:
        return frozenset(self.reads) | frozenset(self.writes)

    def accessed_items_ordered(self) -> tuple[DataItem, ...]:
        """Accessed items in the one canonical iteration order (by name).

        Every runtime component that walks a task's requirements
        (scheduler lookups, data staging, coverage checks) iterates in
        this order so message and allocation sequences are deterministic.
        """
        return tuple(sorted(self.accessed_items(), key=lambda item: item.name))

    def read_region(self, item: DataItem) -> Region:
        return self.reads.get(item, item.empty_region())

    def write_region(self, item: DataItem) -> Region:
        return self.writes.get(item, item.empty_region())

    def accessed_region(self, item: DataItem) -> Region:
        return self.read_region(item).union(self.write_region(item))

    def __repr__(self) -> str:
        kind = "splittable" if self.splittable else "leaf"
        return f"TaskSpec({self.name!r}, {kind}, size={self.size_hint:g})"


@dataclass
class TaskProgram:
    """The one declaration of an application run or a service job.

    Data items plus barrier-separated phases of root tasks (the paper's
    compiler output, §3: one source yields what the analysis *and* the
    runtime consume).  The static analyzer and the placement planner read
    ``phases``; :func:`repro.api.program.run_program` submits the same
    phases — the graph that was planned or admitted is the graph that runs.
    """

    label: str
    #: ``phases[k]``: the roots submitted concurrently in phase ``k``; a
    #: barrier orders phase ``k`` before phase ``k + 1``
    phases: list[list[TaskSpec]] = field(default_factory=list)
    #: data items to register before phase 0 ...
    items: list[DataItem] = field(default_factory=list)
    #: ... and, per item, an initial ownership (default: the policy's —
    #: the home map under the data-aware policy, else first touch)
    placement: dict[DataItem, list[Region]] = field(default_factory=dict)
    #: run the runtime in functional mode (bodies compute values)
    functional: bool = False
    #: index of the first phase inside the measured window — earlier
    #: phases (initialization) run before the clock starts
    measured_from: int = 0
    #: submit root ``k`` of the whole program at the ``k``-th available
    #: process (round robin) instead of at process 0
    rotate_origins: bool = False
    #: ``(phase index, process count) -> roots`` for a program whose
    #: tasks depend on the process count *at submission* (a loop that
    #: re-grains after a scale-out); ``phases`` is then its value at the
    #: count the program was declared for.  The count is
    #: ``runtime.num_processes``: every process that ever joined, drained
    #: and failed ones included.  None: submit ``phases`` as is
    regrain: Callable[[int, int], list[TaskSpec]] | None = None
    #: fold the last phase's root values into the program's result
    finalize: Callable[[list], Any] | None = None

    def add_phase(self, *roots: TaskSpec) -> "TaskProgram":
        self.phases.append(list(roots))
        return self

    def all_roots(self) -> list[TaskSpec]:
        return [root for phase in self.phases for root in phase]

    def total_flops(self) -> float:
        """Sequential FLOPs of every root — the admission cost estimate."""
        return sum(root.flops for root in self.all_roots())


class Treeture:
    """Handle to an (eventually computed) task result.

    Mirrors the AllScale API's ``treeture<T>``: composable completion plus
    a value.  ``then`` chains lightweight callbacks; simulation processes
    await via ``yield treeture.future``.
    """

    __slots__ = ("task_name", "future")

    def __init__(self, engine: "SimEngine", task_name: str) -> None:
        from repro.sim.engine import Future  # local import to avoid cycle

        self.task_name = task_name
        self.future: Future = engine.future()

    @property
    def done(self) -> bool:
        return self.future.done

    @property
    def value(self) -> Any:
        if not self.future.done:
            raise RuntimeError(f"treeture of {self.task_name!r} not complete")
        return self.future.value

    def complete(self, value: Any = None) -> None:
        self.future.complete(value)

    def then(self, fn: Callable[[Any], None]) -> None:
        self.future.add_callback(fn)

    def __repr__(self) -> str:
        state = f"value={self.future.value!r}" if self.done else "pending"
        return f"Treeture({self.task_name!r}, {state})"


class TaskExecutionContext:
    """What a functional task body sees while running on a process.

    Provides access to the local fragments of the data items the task
    declared requirements on — reads may touch replicated halo data, writes
    land in the owned region.  Bodies must stay within their declared
    regions; the data manager only guarantees presence for those.
    """

    __slots__ = ("process_id", "_fragments", "task")

    def __init__(
        self,
        process_id: int,
        task: TaskSpec,
        fragments: Mapping[DataItem, Fragment],
    ) -> None:
        self.process_id = process_id
        self.task = task
        self._fragments = fragments

    def fragment(self, item: DataItem) -> Fragment:
        fragment = self._fragments.get(item)
        if fragment is None:
            raise KeyError(
                f"task {self.task.name!r} declared no requirement on "
                f"item {item.name!r}"
            )
        return fragment


def constant_task(value: Any, name: str = "") -> TaskSpec:
    """A no-requirement, zero-cost task producing ``value`` (testing aid)."""
    return TaskSpec(name=name or fresh_id("const"), body=lambda ctx: value)
