"""The one driver: execute a :class:`~repro.runtime.tasks.TaskProgram`.

:func:`run_program` is the simulation process every application run and
every service job goes through — it submits exactly the phases the
analyzer and the planner read from the same program object.
:func:`execute_program` wraps it for a stand-alone run on a whole cluster.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, replace
from typing import Any, Callable, Generator

from repro.runtime.config import RuntimeConfig
from repro.runtime.policies import SchedulingPolicy
from repro.runtime.runtime import AllScaleRuntime
from repro.runtime.tasks import TaskProgram
from repro.sim.cluster import Cluster


@dataclass
class ProgramRun:
    """Outcome of one :func:`run_program`."""

    runtime: AllScaleRuntime
    #: simulated seconds from the start of phase ``measured_from``
    elapsed: float
    #: per phase, the values of its roots in submission order
    values: list[list[Any]]
    #: ``program.finalize`` of the last phase's values (None without one)
    result: Any


def register_items(runtime: AllScaleRuntime, program: TaskProgram) -> None:
    """Introduce the program's data items (and initial ownership)."""
    for item in program.items:
        runtime.register_item(item, program.placement.get(item))


def run_program(runtime: AllScaleRuntime, program: TaskProgram) -> Generator:
    """Simulation process executing ``program`` phase by phase.

    Per phase: take the roots (``regrain``ed for
    ``runtime.num_processes`` if the program declares that — a count
    that keeps drained and failed processes, so a shrunk cluster keeps
    its finer grain), submit them all at once through
    ``runtime.submit_all`` (at process 0, or rotating over the processes
    that can take work now — on a static cluster every pid, under churn
    skipping corpses and leavers), and wait on the ``all_of`` barrier of
    their treetures.  With ``comm_coalescing`` on, the roots submitted at
    one process are placed together, as siblings
    (:meth:`~repro.runtime.scheduler.Scheduler.assign_all`): one
    Algorithm-1 lookup per item and one parcel per destination for the
    group; the barrier awaits every root, so no value arrives later than
    one by one would deliver it.  The balancer runs
    from before phase 0 until after the last barrier; the clock starts at
    phase ``program.measured_from``.  Returns a :class:`ProgramRun`.
    """
    if runtime.balancer is not None:
        runtime.balancer.start()
    started = runtime.now
    values: list[list[Any]] = []
    submitted = 0
    for index, roots in enumerate(program.phases):
        if index == program.measured_from:
            started = runtime.now
        # ``index`` and ``roots`` name the stalled phase in execute_program
        if program.regrain is not None:
            roots = program.regrain(index, runtime.num_processes)
        origins = [0]
        if program.rotate_origins:
            origins = runtime.available_processes() or runtime.alive_processes()
        treetures = runtime.submit_all(
            roots,
            [origins[(submitted + k) % len(origins)] for k in range(len(roots))],
        )
        submitted += len(roots)
        values.append(
            (yield runtime.engine.all_of([t.future for t in treetures]))
        )
    if runtime.balancer is not None:
        runtime.balancer.stop()
    result = None
    if program.finalize is not None:
        result = program.finalize(values[-1] if values else [])
    return ProgramRun(runtime, runtime.now - started, values, result)


def execute_program(
    cluster: Cluster,
    program: TaskProgram,
    config: RuntimeConfig | None = None,
    policy: SchedulingPolicy | None = None,
    on_runtime: Callable[[AllScaleRuntime], None] | None = None,
) -> ProgramRun:
    """Run ``program`` on its own runtime over ``cluster`` to completion.

    ``on_runtime`` is called with the assembled runtime (items registered)
    before the driver starts — the churn bench uses it to attach an
    elasticity controller whose membership changes then run concurrently
    with the phases.
    """
    config = replace(
        config or RuntimeConfig(), functional=program.functional
    )
    runtime = AllScaleRuntime(cluster, config, policy)
    register_items(runtime, program)
    if on_runtime is not None:
        on_runtime(runtime)
    driver = run_program(runtime, program)
    future = runtime.spawn(driver)
    runtime.run()
    if not future.done:
        state = inspect.getgeneratorlocals(driver)
        names = ", ".join(root.name for root in state["roots"])
        raise RuntimeError(
            f"program {program.label!r} did not complete: the event queue "
            f"drained with the barrier of phase {state['index']} "
            f"(roots: {names}) still open"
        )
    return future.value
