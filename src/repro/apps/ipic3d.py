"""iPiC3D — implicit particle-in-cell plasma simulator (paper §4.1).

The paper's real-world application: charged particles interacting with
electromagnetic fields.  Its data structures are "three regular 3D grids —
two holding electromagnetic field data, while an additional grid holds
lists of particles", with 48·10⁶ particles per node at paper scale and
*particle updates per second* as the metric.

The simulated port models the per-step structure of the implicit-moment
PIC cycle:

1. **field solve** — stencil sweeps over the E and B grids (halo radius 1);
2. **particle push + moment gather** — per-cell work proportional to the
   cell's particle population (the dominant cost);
3. **particle exchange** — particles crossing cell boundaries move between
   neighboring nodes, modelled as a boundary-cell transfer grid whose
   element size is the expected crossing volume.

The AllScale port expresses each phase as a ``pfor`` over the respective
grid with compiler-style requirement functions; the MPI port uses static
blocks, ghost exchange, and neighbor particle exchange.  Functional
particle physics is out of scope of the paper's evaluation (it measures
throughput, not plasma observables); a real miniature PIC push using the
same API lives in ``examples/particle_in_cell.py``.

Calibration note: ``flops_per_particle_update`` is an *effective* cost
matching the paper's measured single-node throughput (~6.5·10⁴ particle
updates/s/node, the Fig. 7 left edge) — it folds the full implicit-moment
iteration (multiple field/moment sub-iterations per visible update) into
one constant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

from repro.api import box_region, expand_box, pfor_task
from repro.api.prec import loop_granularity
from repro.api.program import execute_program
from repro.apps.common import AppResult
from repro.items.grid import Grid
from repro.mpi.comm import Communicator
from repro.mpi.halo import plan_halo_exchange
from repro.mpi.program import run_spmd
from repro.regions.box import grid_block_decomposition
from repro.runtime.config import RuntimeConfig
from repro.runtime.policies import SchedulingPolicy
from repro.runtime.tasks import TaskProgram, TaskSpec
from repro.sim.cluster import Cluster


@dataclass(frozen=True)
class IPic3DWorkload:
    """Parameters of one iPiC3D run."""

    #: particles per node; paper: 48·10⁶
    particles_per_node: int = 48_000_000
    #: per-node field grid (cube side); fields are secondary to particles
    cells_per_node_side: int = 32
    timesteps: int = 4
    #: effective FLOPs per visible particle update (see calibration note)
    flops_per_particle_update: float = 7.0e5
    #: field-solver FLOPs per cell per step (both grids together)
    flops_per_field_cell: float = 60.0
    #: bytes of one particle on the wire (position+velocity+charge, 7 doubles)
    particle_bytes: int = 56
    #: fraction of a boundary cell's particles crossing per step
    crossing_fraction: float = 0.05

    def field_shape(self, nodes: int) -> tuple[int, int, int]:
        """Weak scaling: stack per-node cubes along axis 0."""
        side = self.cells_per_node_side
        return (side * nodes, side, side)

    def particles_per_cell(self, nodes: int) -> float:
        side = self.cells_per_node_side
        return self.particles_per_node / float(side**3)

    def total_particles(self, nodes: int) -> int:
        return self.particles_per_node * nodes

    def total_updates(self, nodes: int) -> float:
        """Particle updates in the measured phase (Fig. 7's numerator)."""
        return float(self.total_particles(nodes)) * self.timesteps


def _noop_body(ctx, box) -> None:
    return None


def ipic3d_program(
    workload: IPic3DWorkload,
    nodes: int,
    *,
    cores_per_node: int = 20,
    config: RuntimeConfig | None = None,
) -> TaskProgram:
    """The implicit-moment PIC cycle: the one declaration of an iPiC3D run.

    Three initialization sweeps spread fields and particle populations;
    the measured window is four phases per timestep.  One granularity,
    fixed at the declared node count, serves every phase (the port sizes
    its loops once, before the first sweep — membership changes during
    the run do not re-grain it).
    """
    config = config or RuntimeConfig()
    shape = workload.field_shape(nodes)
    ppc = workload.particles_per_cell(nodes)
    gran = loop_granularity(
        float(shape[0] * shape[1] * shape[2]),
        nodes,
        cores_per_node,
        config.oversubscription,
    )
    # E and B carry 3 components per cell (3 × 8 B)
    e_field = Grid(shape, name="ipic3d.E", element_bytes=24)
    b_field = Grid(shape, name="ipic3d.B", element_bytes=24)
    # the particle grid's per-element weight is a full cell population
    particles = Grid(
        shape,
        name="ipic3d.P",
        element_bytes=max(1, int(ppc * workload.particle_bytes)),
    )
    # crossing buffers: only the expected migrating volume per cell
    xfer = Grid(
        shape,
        name="ipic3d.X",
        element_bytes=max(
            1, int(ppc * workload.crossing_fraction * workload.particle_bytes)
        ),
    )

    def sweep(name: str, cost: float, reads=None, writes=None) -> TaskSpec:
        """One cost-only ``pfor`` over every cell."""
        return pfor_task(
            (0, 0, 0),
            shape,
            body=_noop_body,
            reads=reads,
            writes=writes,
            flops_per_element=cost,
            granularity=gran,
            name=name,
        )

    def cells_of(*grids: Grid):
        return lambda box: {g: box_region(g, box) for g in grids}

    def halo_of(grid: Grid):
        return lambda box: {grid: expand_box(grid, box, 1)}

    program = TaskProgram(
        f"ipic3d[{nodes}]",
        items=[e_field, b_field, particles, xfer],
        measured_from=3,
    )
    # initialization: fields and particle populations, born spread at
    # their home maps under the default policy (first touch otherwise)
    for item, cost in (
        (e_field, 3.0),
        (b_field, 3.0),
        (particles, ppc * 2.0),
    ):
        program.add_phase(
            sweep(f"init.{item.name}", cost, writes=cells_of(item))
        )
    for step in range(workload.timesteps):
        # 1. field solve: E reads B's halo and vice versa
        for dst, src in ((e_field, b_field), (b_field, e_field)):
            program.add_phase(
                sweep(
                    f"field{step}.{dst.name}",
                    workload.flops_per_field_cell / 2.0,
                    reads=halo_of(src),
                    writes=cells_of(dst),
                )
            )
        # 2. particle push + moment gather, the dominant cost: per cell
        #    ∝ its population; reads local fields, emits crossing buffers
        program.add_phase(
            sweep(
                f"push{step}",
                ppc * workload.flops_per_particle_update,
                reads=cells_of(e_field, b_field, particles),
                writes=cells_of(particles, xfer),
            )
        )
        # 3. particle exchange: absorb neighbors' crossing buffers
        program.add_phase(
            sweep(
                f"absorb{step}",
                ppc * workload.crossing_fraction * 10.0,
                reads=halo_of(xfer),
                writes=cells_of(particles),
            )
        )
    return program


def ipic3d_allscale(
    cluster: Cluster,
    workload: IPic3DWorkload,
    config: RuntimeConfig | None = None,
    policy: SchedulingPolicy | None = None,
    on_runtime=None,
) -> AppResult:
    """Run the AllScale port of iPiC3D.

    ``on_runtime``: see :func:`~repro.api.program.execute_program`.
    """
    nodes = cluster.num_nodes
    program = ipic3d_program(
        workload,
        nodes,
        cores_per_node=cluster.spec.cores_per_node,
        config=config,
    )
    run = execute_program(cluster, program, config, policy, on_runtime)
    return AppResult(
        app="ipic3d",
        system="allscale",
        nodes=nodes,
        elapsed=run.elapsed,
        work=workload.total_updates(nodes),
        extras={"runtime": run.runtime},
    )


def ipic3d_mpi(cluster: Cluster, workload: IPic3DWorkload) -> AppResult:
    """Run the MPI reference port of iPiC3D."""
    nodes = cluster.num_nodes
    shape = workload.field_shape(nodes)
    blocks = grid_block_decomposition(shape, nodes)
    field_plan = plan_halo_exchange(blocks, radius=1, bytes_per_element=24)
    ppc = workload.particles_per_cell(nodes)
    crossing_bytes = ppc * workload.crossing_fraction * workload.particle_bytes
    particle_plan = plan_halo_exchange(
        blocks, radius=1, bytes_per_element=max(1, int(crossing_bytes))
    )

    def rank_main(comm: Communicator) -> Generator:
        rank = comm.rank
        cells = blocks[rank].size()
        yield comm.compute(cells * (6.0 + ppc * 2.0))  # initialization
        yield from comm.barrier(tag=800)
        t0 = comm.engine.now
        for step in range(workload.timesteps):
            # 1. field halo exchange (E and B) + field solve
            for idx, t in enumerate(field_plan.transfers):
                if t.src == rank:
                    comm.isend(t.dst, t.nbytes * 2, None, 2000 + idx)
            for idx, t in enumerate(field_plan.transfers):
                if t.dst == rank:
                    yield comm.recv(t.src, 2000 + idx)
            yield comm.compute(cells * workload.flops_per_field_cell)
            # 2. particle push
            yield comm.compute(
                cells * ppc * workload.flops_per_particle_update
            )
            # 3. particle exchange with neighbors
            for idx, t in enumerate(particle_plan.transfers):
                if t.src == rank:
                    comm.isend(t.dst, t.nbytes, None, 3000 + idx)
            for idx, t in enumerate(particle_plan.transfers):
                if t.dst == rank:
                    yield comm.recv(t.src, 3000 + idx)
            yield comm.compute(cells * ppc * workload.crossing_fraction * 10.0)
        yield from comm.barrier(tag=801)
        return comm.engine.now - t0

    times = run_spmd(cluster, rank_main)
    return AppResult(
        app="ipic3d",
        system="mpi",
        nodes=nodes,
        elapsed=max(times),
        work=workload.total_updates(nodes),
        extras={"blocks": blocks},
    )
