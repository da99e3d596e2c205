"""Randomized runtime stress tests.

Random sequences of read/write tasks over a functional grid, executed on
random cluster shapes, validated three ways after every barrier:

* ownership stays disjoint and index-consistent;
* every replica holds byte-identical values to the owner (the runtime
  analog of the model's coherence property — see
  :mod:`repro.model.values`);
* the final grid equals a sequential replay of the same writes.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.items.grid import Grid
from repro.regions.box import Box
from repro.runtime.config import RuntimeConfig
from repro.runtime.runtime import AllScaleRuntime
from repro.runtime.tasks import TaskSpec
from repro.sim.cluster import Cluster, ClusterSpec

GRID_SIDE = 12


def check_replica_coherence(runtime, grid):
    """Every replicated element equals the owner's value."""
    owners = {}
    for pid in range(runtime.num_processes):
        manager = runtime.process(pid).data_manager
        for coord in manager.owned_region(grid).elements():
            owners[coord] = (pid, manager.fragment(grid).get(coord))
    for pid in range(runtime.num_processes):
        manager = runtime.process(pid).data_manager
        for coord in manager.replica_region(grid).elements():
            owner_pid, value = owners[coord]
            assert owner_pid != pid
            assert manager.fragment(grid).get(coord) == value, (
                f"replica of {coord} at {pid} diverged from owner {owner_pid}"
            )


boxes = st.tuples(
    st.integers(0, GRID_SIDE - 1),
    st.integers(0, GRID_SIDE - 1),
    st.integers(1, 6),
    st.integers(1, 6),
).map(
    lambda t: Box.of(
        (t[0], t[1]),
        (min(GRID_SIDE, t[0] + t[2]), min(GRID_SIDE, t[1] + t[3])),
    )
)

operations = st.lists(
    st.tuples(st.sampled_from(["read", "write"]), boxes),
    min_size=1,
    max_size=12,
)


@given(
    ops=operations,
    nodes=st.integers(1, 4),
)
@settings(max_examples=30, deadline=None)
def test_random_workload_stays_consistent(ops, nodes):
    cluster = Cluster(
        ClusterSpec(num_nodes=nodes, cores_per_node=2, flops_per_core=1e9)
    )
    runtime = AllScaleRuntime(cluster, RuntimeConfig(functional=True))
    grid = Grid((GRID_SIDE, GRID_SIDE), name="g")
    runtime.register_item(grid)
    reference = np.zeros((GRID_SIDE, GRID_SIDE))

    for index, (kind, box) in enumerate(ops):
        region = grid.box(box.lo, box.hi)
        if region.is_empty():
            continue
        if kind == "write":
            value = float(index + 1)

            def body(ctx, box=box, value=value):
                ctx.fragment(grid).scatter(
                    box, np.full(box.widths(), value)
                )

            reference[box.lo[0]:box.hi[0], box.lo[1]:box.hi[1]] = value
            task = TaskSpec(
                name=f"w{index}",
                writes={grid: region},
                body=body,
                size_hint=region.size(),
            )
        else:
            def body(ctx, box=box):
                return float(ctx.fragment(grid).gather(box).sum())

            task = TaskSpec(
                name=f"r{index}",
                reads={grid: region},
                body=body,
                size_hint=region.size(),
            )
        result = runtime.wait(runtime.submit(task, origin=index % nodes))
        if kind == "read":
            expected = float(
                reference[box.lo[0]:box.hi[0], box.lo[1]:box.hi[1]].sum()
            )
            assert result == expected
        runtime.check_ownership_invariants()
        check_replica_coherence(runtime, grid)

    # final full read matches the sequential replay
    def read_all(ctx):
        return ctx.fragment(grid).gather(
            Box.of((0, 0), (GRID_SIDE, GRID_SIDE))
        ).copy()

    final = runtime.wait(
        runtime.submit(
            TaskSpec(
                name="final",
                reads={grid: grid.full_region},
                body=read_all,
                size_hint=1,
            )
        )
    )
    assert np.array_equal(final, reference)


@given(nodes=st.integers(2, 4))
@settings(max_examples=10, deadline=None)
def test_concurrent_disjoint_writers(nodes):
    """Many simultaneous writers on disjoint regions never interfere."""
    cluster = Cluster(
        ClusterSpec(num_nodes=nodes, cores_per_node=2, flops_per_core=1e9)
    )
    runtime = AllScaleRuntime(cluster, RuntimeConfig(functional=True))
    grid = Grid((GRID_SIDE, GRID_SIDE), name="g")
    runtime.register_item(grid)

    treetures = []
    for row in range(GRID_SIDE):
        box = Box.of((row, 0), (row + 1, GRID_SIDE))
        region = grid.box(box.lo, box.hi)

        def body(ctx, box=box, row=row):
            ctx.fragment(grid).scatter(
                box, np.full(box.widths(), float(row))
            )

        treetures.append(
            runtime.submit(
                TaskSpec(
                    name=f"row{row}",
                    writes={grid: region},
                    body=body,
                    size_hint=GRID_SIDE,
                ),
                origin=row % nodes,
            )
        )
    for treeture in treetures:
        runtime.wait(treeture)
    runtime.check_ownership_invariants()
    check_replica_coherence(runtime, grid)

    def read_all(ctx):
        return ctx.fragment(grid).gather(
            Box.of((0, 0), (GRID_SIDE, GRID_SIDE))
        ).copy()

    final = runtime.wait(
        runtime.submit(
            TaskSpec(
                name="final",
                reads={grid: grid.full_region},
                body=read_all,
                size_hint=1,
            )
        )
    )
    expected = np.repeat(
        np.arange(GRID_SIDE, dtype=float)[:, None], GRID_SIDE, axis=1
    )
    assert np.array_equal(final, expected)
