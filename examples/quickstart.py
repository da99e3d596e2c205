#!/usr/bin/env python
"""Quickstart: a distributed parallel loop over a runtime-managed grid.

Mirrors the paper's Fig. 6b in ~40 lines: create `Grid` data items, run a
`pfor`-parallelized computation, and let the AllScale runtime decide where
data lives and where tasks run — on a simulated 4-node cluster.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.api import box_region, pfor
from repro.items import Grid
from repro.regions.box import Box
from repro.runtime import AllScaleRuntime, RuntimeConfig, monitoring
from repro.sim import Cluster, ClusterSpec

N = 64

# a 4-node cluster, 4 cores per node, modelled after a small commodity setup
cluster = Cluster(ClusterSpec(num_nodes=4, cores_per_node=4, flops_per_core=1e9))
runtime = AllScaleRuntime(cluster, RuntimeConfig(functional=True))

# one N×N grid data item — the runtime will distribute it
grid = Grid((N, N), name="values")
runtime.register_item(grid)


# initialize in parallel: each sub-range task writes its own block;
# first touch spreads the grid evenly across the 4 nodes
def init_block(ctx, box: Box) -> None:
    rows = np.arange(box.lo[0], box.hi[0], dtype=np.float64)
    cols = np.arange(box.lo[1], box.hi[1], dtype=np.float64)
    ctx.fragment(grid).scatter(box, np.add.outer(rows, cols))


init = pfor(
    runtime,
    (0, 0),
    (N, N),
    body=init_block,
    writes=lambda box: {grid: box_region(grid, box)},
    flops_per_element=2.0,
    name="init",
)
runtime.wait(init)  # barrier

# a parallel reduction: sum of squares, combined up the task tree
square_sum = pfor(
    runtime,
    (0, 0),
    (N, N),
    body=lambda ctx, box: float((ctx.fragment(grid).gather(box) ** 2).sum()),
    reads=lambda box: {grid: box_region(grid, box)},
    combiner=sum,
    flops_per_element=2.0,
    name="square-sum",
)
total = runtime.wait(square_sum)

expected = float((np.add.outer(np.arange(N), np.arange(N)) ** 2.0).sum())
assert total == expected, (total, expected)

print(f"sum of squares = {total:.6g}  (verified against NumPy)")
print(f"simulated time = {runtime.now * 1e3:.3f} ms")
print()
print("how the runtime distributed the grid:")
for pid in range(runtime.num_processes):
    owned = runtime.process(pid).data_manager.owned_region(grid)
    print(f"  node {pid}: owns {owned.size():4d} of {N * N} elements")
print()
print("runtime monitoring summary:")
for line in monitoring.report(runtime).summary_lines():
    print(" ", line)
