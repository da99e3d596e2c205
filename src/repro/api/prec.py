"""The ``prec`` operator — context-aware nested recursive parallelism.

``prec`` (ref. [10] of the paper) captures a recursion scheme over a
parameter type ``P``:

* ``base_test(p)`` — is ``p`` small enough to handle directly?
* ``base(ctx, p)`` — the sequential base-case implementation;
* ``split(p)`` — decompose ``p`` into sub-parameters;
* ``combine(values)`` — fold sub-results.

The AllScale compiler turns each ``prec`` call into a task with a
sequential and a parallel variant; here :meth:`PrecFunction.task` builds
the same thing as a :class:`~repro.runtime.tasks.TaskSpec` whose leaf
variant runs ``base`` over the *whole* parameter (the sequential variant
of Example 2.3) and whose split variant spawns one child per
sub-parameter.  Requirement functions (``reads``/``writes`` of the
parameter) are evaluated per task, mirroring the compiler-attached
requirement closures.
"""

from __future__ import annotations

from typing import Any, Callable, Generic, TypeVar

from repro.items.base import DataItem
from repro.regions.base import Region
from repro.runtime.config import MIN_TASK_SIZE
from repro.runtime.runtime import AllScaleRuntime
from repro.runtime.tasks import (
    OwnerMap,
    TaskExecutionContext,
    TaskSpec,
    Treeture,
)
from repro.util.ids import fresh_id

P = TypeVar("P")

RequirementFn = Callable[[P], dict[DataItem, Region]]


class PrecFunction(Generic[P]):
    """A parallelizable recursive function produced by :func:`prec`."""

    def __init__(
        self,
        base_test: Callable[[P], bool],
        base: Callable[[TaskExecutionContext, P], Any],
        split: Callable[[P], list[P]],
        combine: Callable[[list[Any]], Any] | None = None,
        reads: RequirementFn | None = None,
        writes: RequirementFn | None = None,
        cost: Callable[[P], float] | None = None,
        size: Callable[[P], float] | None = None,
        name: str | None = None,
        body_in_virtual: bool = False,
        gpu_cost: Callable[[P], float] | None = None,
        origin_body: Callable[..., Any] | None = None,
    ) -> None:
        self.base_test = base_test
        self.base = base
        self.split = split
        self.combine = combine
        self.reads = reads or (lambda p: {})
        self.writes = writes or (lambda p: {})
        self.cost = cost or (lambda p: 0.0)
        self.size = size or (lambda p: 1.0)
        self.name = name or fresh_id("prec")
        self.body_in_virtual = body_in_virtual
        #: optional device cost of the base case — enables the GPU variant
        self.gpu_cost = gpu_cost
        #: user kernel for the static analyzer's lint pass; ``base`` when
        #: it is itself the user-authored kernel (pfor overrides this with
        #: the point kernel its bulk wrapper hides)
        self.origin_body = origin_body or base

    def split_along(self, param: P, owners: OwnerMap) -> list[P]:
        """Sub-parameters of ``param`` for a task placed with ``owners``.

        A generic recursion ignores the owner map; :func:`~repro.api.
        pfor.pfor` cuts its ranges along it.
        """
        return self.split(param)

    def task(self, param: P, granularity: float | None = None) -> TaskSpec:
        """Build the task (with both variants) for one recursion parameter."""
        is_base = self.base_test(param)

        def splitter(owners: OwnerMap) -> list[TaskSpec]:
            return [
                self.task(sub, granularity)
                for sub in self.split_along(param, owners)
            ]

        def body(ctx: TaskExecutionContext) -> Any:
            return self.base(ctx, param)

        return TaskSpec(
            name=f"{self.name}({param!r})"[:96],
            reads=dict(self.reads(param)),
            writes=dict(self.writes(param)),
            flops=float(self.cost(param)),
            size_hint=max(1.0, float(self.size(param))),
            body=body,
            splitter=None if is_base else splitter,
            combiner=self.combine,
            granularity=granularity,
            body_in_virtual=self.body_in_virtual,
            gpu_flops=(
                float(self.gpu_cost(param)) if self.gpu_cost is not None else None
            ),
            origin_body=self.origin_body,
        )

    def submit(
        self,
        runtime: AllScaleRuntime,
        param: P,
        origin: int = 0,
        granularity: float | None = None,
    ) -> Treeture:
        """Schedule the recursion on a runtime; returns the root treeture."""
        if granularity is None:
            granularity = default_granularity(runtime, self.size(param))
        return runtime.submit(self.task(param, granularity), origin=origin)

    def __call__(
        self, runtime: AllScaleRuntime, param: P, origin: int = 0
    ) -> Treeture:
        return self.submit(runtime, param, origin=origin)


def prec(
    base_test: Callable[[P], bool],
    base: Callable[[TaskExecutionContext, P], Any],
    split: Callable[[P], list[P]],
    combine: Callable[[list[Any]], Any] | None = None,
    **kwargs: Any,
) -> PrecFunction[P]:
    """Build a :class:`PrecFunction` from the recursion scheme's pieces.

    >>> fib = prec(
    ...     base_test=lambda n: n < 2,
    ...     base=lambda ctx, n: fib_seq(n),
    ...     split=lambda n: [n - 1, n - 2],
    ...     combine=sum,
    ... )
    """
    return PrecFunction(base_test, base, split, combine, **kwargs)


def loop_granularity(
    total_size: float,
    processes: int,
    cores_per_node: int,
    oversubscription: int,
) -> float:
    """Leaf size targeting ``total/(processes × cores × oversub)``.

    The runtime-free form of :func:`default_granularity`: program
    builders (``repro.apps``) size their loops with it — at the process
    count the program is declared for and, for a program that regrains,
    again at the runtime's process count on submission (departed
    processes included).
    """
    workers = max(1, processes * cores_per_node)
    return max(MIN_TASK_SIZE, total_size / (workers * oversubscription))


def default_granularity(runtime: AllScaleRuntime, total_size: float) -> float:
    """Split until leaves are ~``total/(processes × cores × oversub)``.

    The default the scheduling policy uses to balance task overhead against
    parallelism and load-balancing slack — the compiler/runtime analog of
    choosing a sensible OpenMP chunk size.
    """
    return loop_granularity(
        total_size,
        runtime.num_processes,
        runtime.cluster.spec.cores_per_node,
        runtime.config.oversubscription,
    )
