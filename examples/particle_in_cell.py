#!/usr/bin/env python
"""A miniature functional particle-in-cell step on the AllScale runtime.

The full iPiC3D application is benchmarked at paper scale in virtual mode
(`python -m repro.bench ipic3d`); this example shows the same structure
*computing real physics* at toy scale, with every piece of state held in
runtime-managed data items:

* the electric field — a 2-D ``Grid``;
* the particle state — four 1-D ``Grid`` items (x, y, vx, vy), distributed
  by particle index.

Each timestep runs (1) a parallel particle push reading the field and
updating the particle arrays, and (2) a charge deposit + field relaxation.
The result is verified against a plain NumPy implementation.

Run:  python examples/particle_in_cell.py
"""

import numpy as np

from repro.api import box_region, expand_box, pfor
from repro.items import Grid
from repro.regions.box import Box
from repro.runtime import AllScaleRuntime, RuntimeConfig, TaskSpec
from repro.sim import Cluster, ClusterSpec

GRID = 16  # field cells per side


def expand_region(grid, box):
    """Read requirement of the relax kernel: the sub-range plus a halo."""
    return expand_box(grid, box, 1)


N_PARTICLES = 4096
STEPS = 3
DT = 0.2

rng = np.random.default_rng(7)
x0 = rng.uniform(0, GRID, N_PARTICLES)
y0 = rng.uniform(0, GRID, N_PARTICLES)
vx0 = rng.normal(0, 0.3, N_PARTICLES)
vy0 = rng.normal(0, 0.3, N_PARTICLES)
field0 = rng.normal(0, 1.0, (GRID, GRID))

cluster = Cluster(ClusterSpec(num_nodes=4, cores_per_node=2, flops_per_core=1e9))
runtime = AllScaleRuntime(cluster, RuntimeConfig(functional=True))

field = Grid((GRID, GRID), name="E")
field_next = Grid((GRID, GRID), name="E.next")
px = Grid((N_PARTICLES,), name="px")
py = Grid((N_PARTICLES,), name="py")
pvx = Grid((N_PARTICLES,), name="vx")
pvy = Grid((N_PARTICLES,), name="vy")
for item in (field, field_next, px, py, pvx, pvy):
    runtime.register_item(item)


def write_array(item, values):
    """Parallel initialization — each task writes where the item was born."""

    def body(ctx, box):
        window = tuple(slice(l, h) for l, h in zip(box.lo, box.hi))
        ctx.fragment(item).scatter(box, values[window])

    runtime.wait(
        pfor(
            runtime,
            (0,) * len(item.shape),
            item.shape,
            body=body,
            writes=lambda box: {item: box_region(item, box)},
            flops_per_element=1.0,
            name=f"load.{item.name}",
        )
    )


def read_array(item):
    def body(ctx):
        return ctx.fragment(item).gather(Box.full(item.shape)).copy()

    task = TaskSpec(
        name=f"dump.{item.name}",
        reads={item: item.full_region},
        body=body,
        size_hint=1,
    )
    return runtime.wait(runtime.submit(task))


# load the initial state
write_array(field, field0)
for item, values in ((px, x0), (py, y0), (pvx, vx0), (pvy, vy0)):
    write_array(item, values)


def make_push_body(src_field):
    def push_body(ctx, box: Box) -> None:
        """Leapfrog push for one slice of the particle arrays."""
        sl = box  # 1-D box over particle indices
        x = ctx.fragment(px).gather(sl)
        y = ctx.fragment(py).gather(sl)
        vx = ctx.fragment(pvx).gather(sl)
        vy = ctx.fragment(pvy).gather(sl)
        e = ctx.fragment(src_field).gather(Box.full((GRID, GRID)))
        ci = np.clip(x.astype(int), 0, GRID - 1)
        cj = np.clip(y.astype(int), 0, GRID - 1)
        acc = e[ci, cj]
        vx = vx + DT * acc
        vy = vy + DT * acc
        x = (x + DT * vx) % GRID
        y = (y + DT * vy) % GRID
        ctx.fragment(px).scatter(sl, x)
        ctx.fragment(py).scatter(sl, y)
        ctx.fragment(pvx).scatter(sl, vx)
        ctx.fragment(pvy).scatter(sl, vy)

    return push_body


def make_relax_body(src_field, dst_field):
    def relax_body(ctx, box: Box) -> None:
        """Jacobi field relaxation: reads src (with halo), writes dst."""
        halo = Box(
            (max(0, box.lo[0] - 1), max(0, box.lo[1] - 1)),
            (min(GRID, box.hi[0] + 1), min(GRID, box.hi[1] + 1)),
        )
        e = ctx.fragment(src_field).gather(halo)
        i0, j0 = box.lo[0] - halo.lo[0], box.lo[1] - halo.lo[1]
        h, w = box.widths()
        core = e[i0 : i0 + h, j0 : j0 + w]
        up = np.empty_like(core)
        if box.lo[0] == 0:
            # the global top row relaxes against itself
            up[0] = core[0]
            up[1:] = e[i0 : i0 + h - 1, j0 : j0 + w]
        else:
            up[:] = e[i0 - 1 : i0 - 1 + h, j0 : j0 + w]
        ctx.fragment(dst_field).scatter(box, 0.9 * core + 0.1 * up)

    return relax_body


def reference_step(x, y, vx, vy, e):
    ci = np.clip(x.astype(int), 0, GRID - 1)
    cj = np.clip(y.astype(int), 0, GRID - 1)
    acc = e[ci, cj]
    vx = vx + DT * acc
    vy = vy + DT * acc
    x = (x + DT * vx) % GRID
    y = (y + DT * vy) % GRID
    e2 = e.copy()
    for i in range(GRID):
        up = e[max(0, i - 1)] if i > 0 else e[0]
        e2[i] = 0.9 * e[i] + 0.1 * up
    return x, y, vx, vy, e2


# reference evolution in plain NumPy
rx, ry, rvx, rvy, re = x0.copy(), y0.copy(), vx0.copy(), vy0.copy(), field0.copy()
for _ in range(STEPS):
    rx, ry, rvx, rvy, re = reference_step(rx, ry, rvx, rvy, re)

# distributed evolution on the runtime (double-buffered field)
particle_items = {px, py, pvx, pvy}
src, dst = field, field_next
for step in range(STEPS):
    push = pfor(
        runtime,
        (0,),
        (N_PARTICLES,),
        body=make_push_body(src),
        reads=lambda box, g=src: {
            g: g.full_region,
            **{item: box_region(item, box) for item in particle_items},
        },
        writes=lambda box: {
            item: box_region(item, box) for item in particle_items
        },
        flops_per_element=20.0,
        name=f"push{step}",
    )
    runtime.wait(push)
    relax = pfor(
        runtime,
        (0, 0),
        (GRID, GRID),
        body=make_relax_body(src, dst),
        reads=lambda box, g=src: {g: expand_region(g, box)},
        writes=lambda box, g=dst: {g: box_region(g, box)},
        flops_per_element=4.0,
        name=f"relax{step}",
    )
    runtime.wait(relax)
    src, dst = dst, src
field = src  # the buffer holding the latest field

# verify
assert np.allclose(read_array(px), rx)
assert np.allclose(read_array(py), ry)
assert np.allclose(read_array(pvx), rvx)
assert np.allclose(read_array(pvy), rvy)
assert np.allclose(read_array(field), re)
runtime.check_ownership_invariants()

print(f"{N_PARTICLES} particles × {STEPS} steps verified against NumPy ✓")
print(f"simulated time: {runtime.now * 1e3:.3f} ms on 4 nodes")
for item in (px, field):
    owners = [
        runtime.process(p).data_manager.owned_region(item).size()
        for p in range(4)
    ]
    print(f"distribution of {item.name}: {owners}")
