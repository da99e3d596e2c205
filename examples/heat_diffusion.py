#!/usr/bin/env python
"""Heat diffusion — the paper's running example (Fig. 6), end to end.

Runs the 2-D stencil application in three ways on the same simulated
cluster and compares them:

1. the sequential kernel (Fig. 6a) — ground truth;
2. the AllScale port (Fig. 6b) — `pfor` sweeps over runtime-managed grids,
   halos fetched as read replicas, buffers swapped each step;
3. the MPI reference port — static blocks and ghost-cell exchange.

Run:  python examples/heat_diffusion.py
"""

import numpy as np

from repro.apps.stencil import (
    StencilWorkload,
    sequential_reference,
    stencil_allscale,
    stencil_mpi,
)
from repro.regions.box import Box
from repro.runtime import TaskSpec
from repro.runtime.monitoring import Monitor
from repro.sim import Cluster, ClusterSpec

NODES = 4
workload = StencilWorkload(n_per_node=24, timesteps=5, functional=True)


def make_cluster():
    return Cluster(
        ClusterSpec(num_nodes=NODES, cores_per_node=2, flops_per_core=1e9)
    )


print(f"grid: {workload.global_shape(NODES)}, {workload.timesteps} timesteps")
print()

# 1. sequential ground truth
reference = sequential_reference(workload, NODES)

# 2. AllScale port
result = stencil_allscale(make_cluster(), workload)
runtime = result.extras["runtime"]
final_grid = result.extras["final_grid"]


def read_back(ctx):
    return ctx.fragment(final_grid).gather(Box.of((0, 0), final_grid.shape))


values = runtime.wait(
    runtime.submit(
        TaskSpec(
            name="readback",
            reads={final_grid: final_grid.full_region},
            body=read_back,
            size_hint=1,
        )
    )
)
assert np.allclose(values, reference)
print("AllScale port matches the sequential kernel ✓")
report = Monitor(runtime).report()
print(
    f"  simulated {result.elapsed * 1e3:.3f} ms for the time loop; "
    f"{report.migrations:.0f} migrations, {report.replications:.0f} halo "
    f"replications, {report.invalidations:.0f} invalidations"
)

# 3. MPI reference port
mpi_result = stencil_mpi(make_cluster(), workload)
assembled = np.zeros(workload.global_shape(NODES))
for rank, block in enumerate(mpi_result.extras["blocks"]):
    ghosted = mpi_result.extras["ghosts"][rank]
    glo = (max(0, block.lo[0] - 1), max(0, block.lo[1] - 1))
    si = slice(block.lo[0] - glo[0], block.hi[0] - glo[0])
    sj = slice(block.lo[1] - glo[1], block.hi[1] - glo[1])
    assembled[block.lo[0]:block.hi[0], block.lo[1]:block.hi[1]] = ghosted[si, sj]
assert np.allclose(assembled, reference)
print("MPI reference port matches the sequential kernel ✓")
print()
print(
    f"throughput (simulated): AllScale {result.throughput / 1e9:.3f} GFLOPS, "
    f"MPI {mpi_result.throughput / 1e9:.3f} GFLOPS"
)
print(
    "note: at this toy size per-task overheads dominate;\n"
    "python -m repro.bench stencil runs the paper-scale problem."
)
