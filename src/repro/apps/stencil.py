"""2-D stencil application (paper §3.4 / §4, derived from the PRK suite).

A 5-point heat-diffusion stencil over a square-per-node grid, weak-scaled
along the first axis (20,000² elements per node at paper scale).  Two
ports:

* :func:`stencil_allscale` — the Fig. 6b program: ``pfor`` initialization,
  then a time loop of ``pfor`` update sweeps over API ``Grid`` items, with
  the runtime managing distribution, halos (read replication), and
  write-replica invalidation;
* :func:`stencil_mpi` — the reference: static block decomposition, ghost
  cells, isend/irecv halo exchange per step, node-wide compute.

In functional mode both ports move and compute real values, so tests can
check them against the sequential kernel and against each other; in
virtual mode only costs flow, enabling paper-scale sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

import numpy as np

from repro.api import expand_box, box_region, pfor_task
from repro.api.prec import loop_granularity
from repro.api.program import execute_program
from repro.apps.common import AppResult
from repro.items.grid import Grid, GridFragment
from repro.mpi.comm import Communicator
from repro.mpi.halo import plan_halo_exchange
from repro.mpi.program import run_spmd
from repro.regions.box import Box, grid_block_decomposition
from repro.runtime.config import RuntimeConfig
from repro.runtime.policies import SchedulingPolicy
from repro.runtime.tasks import TaskProgram, TaskSpec
from repro.sim.cluster import Cluster


@dataclass(frozen=True)
class StencilWorkload:
    """Parameters of one stencil run."""

    #: per-node square side; paper: 20,000 (20,000² elements per node)
    n_per_node: int = 20_000
    timesteps: int = 4
    #: FLOPs of the update kernel per element (Fig. 6: 4 adds, 1 sub, 1 mul
    #: by c, 1 mul by 4 → 7)
    flops_per_cell: float = 7.0
    diffusion: float = 0.1
    #: move/compute real values (tests) or only costs (benchmarks)
    functional: bool = False

    def global_shape(self, nodes: int) -> tuple[int, int]:
        """Weak scaling: stack the per-node squares along axis 0."""
        return (self.n_per_node * nodes, self.n_per_node)

    def interior_cells(self, nodes: int) -> int:
        rows, cols = self.global_shape(nodes)
        return (rows - 2) * (cols - 2)

    def total_flops(self, nodes: int) -> float:
        """The FLOP count of the measured phase (Fig. 7's numerator)."""
        return self.interior_cells(nodes) * self.timesteps * self.flops_per_cell


def _init_body(grid: Grid):
    def body(ctx, box: Box) -> None:
        values = np.add.outer(
            np.arange(box.lo[0], box.hi[0], dtype=np.float64),
            np.arange(box.lo[1], box.hi[1], dtype=np.float64),
        )
        fragment = ctx.fragment(grid)
        assert isinstance(fragment, GridFragment)
        fragment.scatter(box, values)

    return body


def _step_body(src: Grid, dst: Grid, c: float, shape: tuple[int, int]):
    rows, cols = shape

    def body(ctx, box: Box) -> None:
        fa = ctx.fragment(src)
        fb = ctx.fragment(dst)
        halo = Box(
            (max(0, box.lo[0] - 1), max(0, box.lo[1] - 1)),
            (min(rows, box.hi[0] + 1), min(cols, box.hi[1] + 1)),
        )
        a = fa.gather(halo)
        i0 = box.lo[0] - halo.lo[0]
        j0 = box.lo[1] - halo.lo[1]
        h, w = box.widths()
        core = a[i0 : i0 + h, j0 : j0 + w]
        up = a[i0 - 1 : i0 - 1 + h, j0 : j0 + w]
        down = a[i0 + 1 : i0 + 1 + h, j0 : j0 + w]
        left = a[i0 : i0 + h, j0 - 1 : j0 - 1 + w]
        right = a[i0 : i0 + h, j0 + 1 : j0 + 1 + w]
        fb.scatter(box, core + c * (up + down + left + right - 4.0 * core))

    return body


def stencil_program(
    workload: StencilWorkload,
    nodes: int,
    *,
    cores_per_node: int = 20,
    config: RuntimeConfig | None = None,
) -> TaskProgram:
    """The Fig. 6b program: the one declaration of a stencil run.

    Two initialization sweeps (under the default policy A and B are
    born spread at their home maps and each sweep writes in place; under
    round-robin or random placement first touch spreads them wherever
    the policy sends the tasks), then — the measured window —
    one update sweep per timestep, each ending in the ``swap(A, B)``
    barrier of Fig. 6b line 18.  Every sweep derives its granularity
    from the process count *at submission* (``regrain``), so after a
    scale-out the remaining sweeps split finer; a drain or a failure
    does not coarsen them, as departed processes still count.  The
    program's result is the buffer holding the final field.
    """
    config = config or RuntimeConfig()
    shape = workload.global_shape(nodes)
    rows, cols = shape

    def gran(total: float, processes: int) -> float:
        return loop_granularity(
            total, processes, cores_per_node, config.oversubscription
        )

    grids = [Grid(shape, name="stencil.A"), Grid(shape, name="stencil.B")]

    def sweep(index: int, processes: int) -> list[TaskSpec]:
        if index < 2:  # initialization of one buffer (Fig. 6b lines 5-7)
            grid = grids[index]
            return [
                pfor_task(
                    (0, 0),
                    shape,
                    body=_init_body(grid),
                    writes=lambda box: {grid: box_region(grid, box)},
                    flops_per_element=2.0,
                    granularity=gran(float(rows * cols), processes),
                    name=f"init.{grid.name}",
                )
            ]
        step = index - 2  # interior update src -> dst (Fig. 6b lines 10-17)
        src, dst = grids[step % 2], grids[(step + 1) % 2]
        return [
            pfor_task(
                (1, 1),
                (rows - 1, cols - 1),
                body=_step_body(src, dst, workload.diffusion, shape),
                reads=lambda box: {src: expand_box(src, box, 1)},
                writes=lambda box: {dst: box_region(dst, box)},
                flops_per_element=workload.flops_per_cell,
                granularity=gran(
                    float((rows - 2) * (cols - 2)), processes
                ),
                name=f"step{step}",
            )
        ]

    return TaskProgram(
        f"stencil[{nodes}]",
        [sweep(index, nodes) for index in range(2 + workload.timesteps)],
        items=grids,
        functional=workload.functional,
        measured_from=2,
        regrain=sweep,
        finalize=lambda _values: grids[workload.timesteps % 2],
    )


def stencil_allscale(
    cluster: Cluster,
    workload: StencilWorkload,
    config: RuntimeConfig | None = None,
    policy: SchedulingPolicy | None = None,
    on_runtime=None,
) -> AppResult:
    """Run the AllScale port and return the measured result.

    The returned extras include the runtime (``"runtime"``) so tests can
    inspect final data distribution and invariants.  ``on_runtime``: see
    :func:`~repro.api.program.execute_program`.
    """
    program = stencil_program(
        workload,
        cluster.num_nodes,
        cores_per_node=cluster.spec.cores_per_node,
        config=config,
    )
    run = execute_program(cluster, program, config, policy, on_runtime)
    # nodes/work read the node count *after* the run (joins included) —
    # kept as is, pinned by the churn baselines; see ROADMAP
    return AppResult(
        app="stencil",
        system="allscale",
        nodes=cluster.num_nodes,
        elapsed=run.elapsed,
        work=workload.total_flops(cluster.num_nodes),
        extras={"runtime": run.runtime, "final_grid": run.result},
    )


def stencil_mpi(cluster: Cluster, workload: StencilWorkload) -> AppResult:
    """Run the MPI reference port."""
    shape = workload.global_shape(cluster.num_nodes)
    rows, cols = shape
    blocks = grid_block_decomposition(shape, cluster.num_nodes)
    plan = plan_halo_exchange(blocks, radius=1, bytes_per_element=8)
    c = workload.diffusion
    functional = workload.functional
    final_fields: dict[int, np.ndarray] = {}

    def rank_main(comm: Communicator) -> Generator:
        rank = comm.rank
        block = blocks[rank]
        # local array covers the block plus a one-cell ghost ring
        ghost = Box(
            (max(0, block.lo[0] - 1), max(0, block.lo[1] - 1)),
            (min(rows, block.hi[0] + 1), min(cols, block.hi[1] + 1)),
        )
        field = prev = None
        if functional:
            field = np.add.outer(
                np.arange(ghost.lo[0], ghost.hi[0], dtype=np.float64),
                np.arange(ghost.lo[1], ghost.hi[1], dtype=np.float64),
            )
            prev = field.copy()
        yield comm.compute(block.size() * 2.0)  # initialization sweep
        yield from comm.barrier(tag=800)
        t0 = comm.engine.now
        for step in range(workload.timesteps):
            # exchange ghost values (bytes always; values when functional)
            base_tag = 1000
            for idx, transfer in enumerate(plan.transfers):
                if transfer.src == rank:
                    value = None
                    if functional:
                        value = _slab(field, ghost, transfer.box)
                    comm.isend(
                        transfer.dst, transfer.nbytes, value, base_tag + idx
                    )
            for idx, transfer in enumerate(plan.transfers):
                if transfer.dst == rank:
                    value = yield comm.recv(transfer.src, base_tag + idx)
                    if functional:
                        _write_slab(field, ghost, transfer.box, value)
            yield comm.compute(block.size() * workload.flops_per_cell)
            if functional:
                prev[...] = field
                interior = _interior_slices(block, ghost, rows, cols)
                gi, gj = interior
                core = prev[gi, gj]
                up = prev[_shift(gi, -1), gj]
                down = prev[_shift(gi, +1), gj]
                left = prev[gi, _shift(gj, -1)]
                right = prev[gi, _shift(gj, +1)]
                field[gi, gj] = core + c * (up + down + left + right - 4 * core)
        yield from comm.barrier(tag=801)
        elapsed = comm.engine.now - t0
        if functional:
            final_fields[rank] = field
        return elapsed

    times = run_spmd(cluster, rank_main)
    result = AppResult(
        app="stencil",
        system="mpi",
        nodes=cluster.num_nodes,
        elapsed=max(times),
        work=workload.total_flops(cluster.num_nodes),
        extras={"blocks": blocks, "ghosts": final_fields},
    )
    return result


# -- functional-mode helpers -----------------------------------------------------------


def _slab(field: np.ndarray, ghost: Box, box: Box) -> np.ndarray:
    si = slice(box.lo[0] - ghost.lo[0], box.hi[0] - ghost.lo[0])
    sj = slice(box.lo[1] - ghost.lo[1], box.hi[1] - ghost.lo[1])
    return field[si, sj].copy()


def _write_slab(field: np.ndarray, ghost: Box, box: Box, values: np.ndarray) -> None:
    si = slice(box.lo[0] - ghost.lo[0], box.hi[0] - ghost.lo[0])
    sj = slice(box.lo[1] - ghost.lo[1], box.hi[1] - ghost.lo[1])
    field[si, sj] = values


def _interior_slices(
    block: Box, ghost: Box, rows: int, cols: int
) -> tuple[slice, slice]:
    """Index slices (into the ghosted array) of the writable interior."""
    lo0 = max(block.lo[0], 1) - ghost.lo[0]
    hi0 = min(block.hi[0], rows - 1) - ghost.lo[0]
    lo1 = max(block.lo[1], 1) - ghost.lo[1]
    hi1 = min(block.hi[1], cols - 1) - ghost.lo[1]
    return slice(lo0, hi0), slice(lo1, hi1)


def _shift(s: slice, delta: int) -> slice:
    return slice(s.start + delta, s.stop + delta)


def sequential_reference(
    workload: StencilWorkload, nodes: int
) -> np.ndarray:
    """The sequential kernel of Fig. 6a — ground truth for functional tests."""
    shape = workload.global_shape(nodes)
    field = np.add.outer(
        np.arange(shape[0], dtype=np.float64),
        np.arange(shape[1], dtype=np.float64),
    )
    c = workload.diffusion
    scratch = field.copy()
    for _ in range(workload.timesteps):
        scratch[...] = field
        field[1:-1, 1:-1] = scratch[1:-1, 1:-1] + c * (
            scratch[:-2, 1:-1]
            + scratch[2:, 1:-1]
            + scratch[1:-1, :-2]
            + scratch[1:-1, 2:]
            - 4.0 * scratch[1:-1, 1:-1]
        )
    return field
