"""Specification level vs implementation level on the same logical program.

The same fork-join computation — workers writing disjoint slabs of one
data item while reading across slab boundaries — is executed twice:

* through the formal interpreter (`repro.model`) under many random
  schedules, with version tracking attached;
* through the AllScale runtime (`repro.runtime`) on a simulated cluster,
  in functional mode.

Both levels must agree on the observable outcome: every worker runs
exactly once, the item ends fully materialized with single ownership of
every element, and every element carries exactly one completed write
(version 1 at the spec level, the writer's value at the runtime level).
"""

import numpy as np
import pytest

from repro.model.architecture import distributed_cluster
from repro.model.elements import DataItemDecl
from repro.model.interpreter import Interpreter, InterpreterConfig
from repro.model.properties import check_single_execution, check_terminal
from repro.model.task import AccessSpec, Program, simple_task
from repro.model.values import VersionTracker
from repro.items.grid import Grid
from repro.regions.box import Box
from repro.regions.interval import IntervalRegion
from repro.runtime.config import RuntimeConfig
from repro.runtime.runtime import AllScaleRuntime
from repro.runtime.tasks import TaskSpec
from repro.sim.cluster import Cluster, ClusterSpec

TOTAL = 48
WORKERS = 4
SLAB = TOTAL // WORKERS


def slab_bounds(worker: int) -> tuple[int, int]:
    return worker * SLAB, (worker + 1) * SLAB


def halo_bounds(worker: int) -> tuple[int, int]:
    lo, hi = slab_bounds(worker)
    return max(0, lo - 1), min(TOTAL, hi + 1)


def noop(ctx):
    return
    yield  # pragma: no cover


@pytest.mark.parametrize("seed", range(6))
def test_both_levels_agree_on_the_outcome(seed):
    # -- specification level ------------------------------------------------
    item = DataItemDecl(IntervalRegion.span(0, TOTAL), name="slabbed")
    workers = []
    for worker in range(WORKERS):
        lo, hi = slab_bounds(worker)
        hlo, hhi = halo_bounds(worker)
        workers.append(
            simple_task(
                noop,
                AccessSpec(
                    reads={item: IntervalRegion.span(hlo, hhi)},
                    writes={item: IntervalRegion.span(lo, hi)},
                ),
                name=f"worker{worker}",
            )
        )

    def main(ctx):
        yield ctx.create(item)
        for task in workers:
            yield ctx.spawn(task)
        for task in workers:
            yield ctx.sync(task)

    program = Program(simple_task(main, name="main"))
    tracker = VersionTracker()
    interp = Interpreter(
        InterpreterConfig(seed=seed, chaos_data_ops=0.25, max_transitions=20_000),
        observer=tracker,
    )
    trace, state = interp.run_to_completion(
        program, distributed_cluster(WORKERS, 1)
    )
    check_terminal(state)
    check_single_execution(trace, state)
    # the item is fully materialized and every element was written once
    assert state.coverage(item).same_elements(item.full_region)
    for element in range(TOTAL):
        assert tracker.newest_version(item, element) == 1

    # -- implementation level ----------------------------------------------
    cluster = Cluster(
        ClusterSpec(num_nodes=WORKERS, cores_per_node=1, flops_per_core=1e9)
    )
    runtime = AllScaleRuntime(cluster, RuntimeConfig(functional=True))
    grid = Grid((TOTAL,), name="slabbed")
    runtime.register_item(grid)

    treetures = []
    for worker in range(WORKERS):
        lo, hi = slab_bounds(worker)
        hlo, hhi = halo_bounds(worker)

        def body(ctx, lo=lo, hi=hi, worker=worker):
            ctx.fragment(grid).scatter(
                Box.of((lo,), (hi,)),
                np.full(hi - lo, float(worker)),
            )

        treetures.append(
            runtime.submit(
                TaskSpec(
                    name=f"worker{worker}",
                    reads={grid: grid.box((hlo,), (hhi,))},
                    writes={grid: grid.box((lo,), (hi,))},
                    body=body,
                    size_hint=SLAB,
                ),
                origin=worker % WORKERS,
            )
        )
    for treeture in treetures:
        runtime.wait(treeture)
    runtime.check_ownership_invariants()

    # full single-ownership coverage, as at the spec level
    coverage = grid.empty_region()
    for pid in range(WORKERS):
        owned = runtime.process(pid).data_manager.owned_region(grid)
        assert coverage.intersect(owned).is_empty()
        coverage = coverage.union(owned)
    assert coverage.same_elements(grid.full_region)

    # every element holds exactly its (single) writer's value
    def read_all(ctx):
        return ctx.fragment(grid).gather(Box.of((0,), (TOTAL,))).copy()

    values = runtime.wait(
        runtime.submit(
            TaskSpec(
                name="readback",
                reads={grid: grid.full_region},
                body=read_all,
                size_hint=1,
            )
        )
    )
    expected = np.repeat(np.arange(WORKERS, dtype=float), SLAB)
    assert np.array_equal(values, expected)

    # and the executed-task census matches the model's single execution:
    # each worker leaf ran exactly once somewhere
    total_leaves = sum(p.executed_leaves for p in runtime.processes)
    assert total_leaves == WORKERS + 1  # workers + the readback task
