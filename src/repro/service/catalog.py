"""The job catalog: named, parameterized task-graph job kinds.

A job crosses the client/service boundary as JSON, so it cannot carry
callables — instead it names a *kind* from this catalog plus parameters,
and the service builds the actual task graph (a :class:`TaskProgram`) on
its side of the boundary.  The built program is what the admission gate
statically analyzes (once per distinct builder and parameters, see
:func:`register_kind`) and what the dispatcher executes, so the graph
that runs is always one the catalog built and the analyzer approved.

The built-in kinds are service-sized ports of the repository's workload
families: ``compute`` (pure-cost tasks with exactly predictable
node-seconds — the quota test workhorse), ``grid_sum`` (the quickstart
example's functional init+reduce), ``stencil`` (the paper's §4 stencil
sweeps), ``particles`` (iPiC3D-flavored particle pushes), ``queries``
(TPC-flavored read-only batched queries), and ``bad_overlap`` (a
deliberately racy graph whose sibling writes overlap — admission must
reject it; the CI smoke trace uses it to pin zero false-accepts).

In-process embedders (apps, examples, tests) can extend the catalog with
:func:`register_kind`.
"""

from __future__ import annotations

from typing import Callable

from repro.api import box_region, expand_box, pfor_task
from repro.items.grid import Grid
from repro.regions.base import Region
from repro.runtime.tasks import TaskProgram, TaskSpec


def _merge_params(kind: str, params: dict, defaults: dict) -> dict:
    unknown = set(params) - set(defaults)
    if unknown:
        raise ValueError(
            f"job kind {kind!r}: unknown parameter(s) "
            f"{sorted(unknown)!r}; accepted: {sorted(defaults)!r}"
        )
    merged = dict(defaults)
    merged.update(params)
    return merged


# -- built-in kinds ---------------------------------------------------------------


def _build_compute(params: dict) -> TaskProgram:
    """Pure-cost leaf tasks; node-seconds = flops / flops_per_core exactly."""
    p = _merge_params(
        "compute", params, {"flops": 2.0e7, "tasks": 4, "phases": 1}
    )
    flops = float(p["flops"])
    tasks = int(p["tasks"])
    n_phases = int(p["phases"])
    if flops <= 0 or tasks < 1 or n_phases < 1:
        raise ValueError("compute: flops > 0, tasks >= 1, phases >= 1")
    per_task = flops / (tasks * n_phases)
    phases = [
        [
            TaskSpec(
                name=f"compute[{phase}][{index}]",
                flops=per_task,
                size_hint=per_task,
            )
            for index in range(tasks)
        ]
        for phase in range(n_phases)
    ]
    return TaskProgram("compute", phases)


def _grid_init_task(grid: Grid, n: int, granularity: float) -> TaskSpec:
    return pfor_task(
        (0, 0),
        (n, n),
        body=_scatter_coords(grid),
        writes=lambda box: {grid: box_region(grid, box)},
        flops_per_element=2.0,
        granularity=granularity,
        name="svc-init",
    )


def _scatter_coords(grid: Grid):
    def body(ctx, box) -> None:
        import numpy as np

        rows = np.arange(box.lo[0], box.hi[0], dtype=np.float64)
        cols = np.arange(box.lo[1], box.hi[1], dtype=np.float64)
        ctx.fragment(grid).scatter(box, np.add.outer(rows, cols))

    return body


def _build_grid_sum(params: dict) -> TaskProgram:
    """Quickstart-shaped functional job: parallel init, then sum of squares."""
    p = _merge_params("grid_sum", params, {"n": 16})
    n = int(p["n"])
    if not 4 <= n <= 256:
        raise ValueError("grid_sum: n must be in [4, 256]")
    grid = Grid((n, n), name="grid")
    granularity = float(max(1, (n * n) // 8))
    init = _grid_init_task(grid, n, granularity)

    def sum_squares(ctx, box) -> float:
        return float((ctx.fragment(grid).gather(box) ** 2).sum())

    reduce_task = pfor_task(
        (0, 0),
        (n, n),
        body=sum_squares,
        reads=lambda box: {grid: box_region(grid, box)},
        combiner=sum,
        flops_per_element=2.0,
        granularity=granularity,
        name="svc-sumsq",
    )
    return TaskProgram(
        "grid_sum",
        [[init], [reduce_task]],
        items=[grid],
        functional=True,
        finalize=lambda values: float(values[0]),
    )


def _build_stencil(params: dict) -> TaskProgram:
    """Cost-only stencil sweeps (ping-pong grids, halo reads)."""
    p = _merge_params("stencil", params, {"n": 24, "steps": 2})
    n = int(p["n"])
    steps = int(p["steps"])
    if not 8 <= n <= 512 or not 1 <= steps <= 16:
        raise ValueError("stencil: n in [8, 512], steps in [1, 16]")
    grids = [Grid((n, n), name="cells-a"), Grid((n, n), name="cells-b")]
    granularity = float(max(1, (n * n) // 8))
    phases: list[list[TaskSpec]] = [
        [_grid_init_task(grids[0], n, granularity)]
    ]
    for step in range(steps):
        src, dst = grids[step % 2], grids[(step + 1) % 2]
        phases.append(
            [
                pfor_task(
                    (0, 0),
                    (n, n),
                    body=lambda ctx, box: None,
                    reads=lambda box, src=src: {src: expand_box(src, box, 1)},
                    writes=lambda box, dst=dst: {dst: box_region(dst, box)},
                    flops_per_element=7.0,
                    granularity=granularity,
                    name=f"svc-step{step}",
                )
            ]
        )
    return TaskProgram("stencil", phases, items=grids)


def _build_particles(params: dict) -> TaskProgram:
    """iPiC3D-flavored pushes: read a field grid, update a particle array."""
    p = _merge_params(
        "particles", params, {"particles": 4096, "cells": 8, "steps": 2}
    )
    count = int(p["particles"])
    cells = int(p["cells"])
    steps = int(p["steps"])
    if count < 64 or not 2 <= cells <= 64 or not 1 <= steps <= 16:
        raise ValueError(
            "particles: particles >= 64, cells in [2, 64], steps in [1, 16]"
        )
    field_grid = Grid((cells, cells), name="field")
    particles = Grid((count,), name="particles")
    field_whole = field_grid.full_region
    granularity = float(max(1, count // 8))
    init_field = pfor_task(
        (0, 0),
        (cells, cells),
        body=lambda ctx, box: None,
        writes=lambda box: {field_grid: box_region(field_grid, box)},
        flops_per_element=1.0,
        granularity=float(cells * cells),
        name="svc-field-init",
    )
    init_particles = pfor_task(
        (0,),
        (count,),
        body=lambda ctx, box: None,
        writes=lambda box: {particles: box_region(particles, box)},
        flops_per_element=2.0,
        granularity=granularity,
        name="svc-part-init",
    )
    phases: list[list[TaskSpec]] = [[init_field, init_particles]]
    for step in range(steps):
        phases.append(
            [
                pfor_task(
                    (0,),
                    (count,),
                    body=lambda ctx, box: None,
                    reads=lambda box: {field_grid: field_whole},
                    writes=lambda box: {particles: box_region(particles, box)},
                    flops_per_element=10.0,
                    granularity=granularity,
                    name=f"svc-push{step}",
                )
            ]
        )
    return TaskProgram("particles", phases, items=[field_grid, particles])


def _build_queries(params: dict) -> TaskProgram:
    """TPC-flavored batch: read-only queries over a shared structure."""
    p = _merge_params("queries", params, {"queries": 16, "n": 32})
    queries = int(p["queries"])
    n = int(p["n"])
    if not 1 <= queries <= 4096 or not 8 <= n <= 256:
        raise ValueError("queries: queries in [1, 4096], n in [8, 256]")
    grid = Grid((n, n), name="index-grid")
    whole = grid.full_region
    init = pfor_task(
        (0, 0),
        (n, n),
        body=lambda ctx, box: None,
        writes=lambda box: {grid: box_region(grid, box)},
        flops_per_element=1.0,
        granularity=float(max(1, (n * n) // 4)),
        name="svc-build-index",
    )
    batch = pfor_task(
        (0,),
        (queries,),
        body=lambda ctx, box: float(box.size()),
        reads=lambda box: {grid: whole},
        combiner=sum,
        flops_per_element=5.0e4,
        granularity=float(max(1, queries // 8)),
        name="svc-queries",
        body_in_virtual=True,
    )
    return TaskProgram(
        "queries",
        [[init], [batch]],
        items=[grid],
        finalize=lambda values: float(values[0]),
    )


def _build_bad_overlap(params: dict) -> TaskProgram:
    """Deliberately racy: every sibling writes the whole grid.

    The race detector reports sibling write/write overlaps as errors, so
    admission must reject this kind — the smoke trace's false-accept
    probe.
    """
    p = _merge_params("bad_overlap", params, {"n": 8})
    n = int(p["n"])
    if not 4 <= n <= 64:
        raise ValueError("bad_overlap: n must be in [4, 64]")
    grid = Grid((n, n), name="contested")
    whole: Region = grid.full_region
    racy = pfor_task(
        (0, 0),
        (n, n),
        body=lambda ctx, box: None,
        writes=lambda box: {grid: whole},
        flops_per_element=1.0,
        granularity=float(max(1, (n * n) // 4)),
        name="svc-racy",
    )
    return TaskProgram("bad_overlap", [[racy]], items=[grid])


_KINDS: dict[str, Callable[[dict], TaskProgram]] = {
    "compute": _build_compute,
    "grid_sum": _build_grid_sum,
    "stencil": _build_stencil,
    "particles": _build_particles,
    "queries": _build_queries,
    "bad_overlap": _build_bad_overlap,
}


def job_kinds() -> tuple[str, ...]:
    """Names of the registered job kinds."""
    return tuple(sorted(_KINDS))


def register_kind(
    name: str, builder: Callable[[dict], TaskProgram], replace: bool = False
) -> None:
    """Extend the catalog (in-process embedders: apps, examples, tests).

    ``builder`` must be *pure in its parameters*: called twice with equal
    ``params`` it returns structurally the same program — same phases,
    task names, requirement functions and kernels — over fresh data
    items.  The service's determinism guarantee always assumed this; the
    admission gate now relies on it too, analysing one program per
    (builder, params) and reusing that report for every later submission
    that builds an equal one.  A builder that reads a clock, a counter or
    a mutable global must fold that input into ``params`` instead.
    """
    if name in _KINDS and not replace:
        raise ValueError(f"job kind {name!r} already registered")
    _KINDS[name] = builder


def unregister_kind(name: str) -> None:
    if name not in set(_KINDS) - set(_BUILTINS):
        raise ValueError(f"job kind {name!r} is not a registered extension")
    del _KINDS[name]


_BUILTINS = tuple(_KINDS)


def kind_builder(kind: str) -> Callable[[dict], TaskProgram]:
    """The builder currently registered for ``kind``; raises KeyError."""
    try:
        return _KINDS[kind]
    except KeyError:
        raise KeyError(
            f"unknown job kind {kind!r}; available: {', '.join(job_kinds())}"
        ) from None


def build_program(kind: str, params: dict) -> TaskProgram:
    """Build the task graph of one job; raises KeyError/ValueError."""
    return kind_builder(kind)(dict(params))
