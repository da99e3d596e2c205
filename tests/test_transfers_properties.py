"""Property-based tests for transfer plans under random task DAGs.

Three invariants of the staging/prefetch plans, driven by randomized
read/write task chains over a distributed grid:

* every byte that moved was planned (`moved ⊆ planned` per item — the
  sentinel's planned-versus-moved audit, checked here structurally);
* uncontended DAGs never move the same elements twice within one plan
  (`refetched_bytes == 0`);
* the whole machinery is sentinel-clean: a strict
  :class:`RuntimeSentinel` observes no invariant violation.

Each runs with ``comm_coalescing`` and ``replica_prefetch`` both off and
both on — every caller sets the two alike — and a sequential DAG must
leave identical fragment contents and identical ``dm.*_bytes`` in both:
the flags change how transfers are grouped and accounted on the wire,
never what moves.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.items.grid import Grid
from repro.runtime.config import RuntimeConfig
from repro.runtime.runtime import AllScaleRuntime
from repro.runtime.sentinel import RuntimeSentinel, SentinelConfig
from repro.runtime.tasks import TaskSpec
from repro.sim.cluster import Cluster, ClusterSpec

SIDE = 16


def make_runtime(nodes, enabled):
    cluster = Cluster(
        ClusterSpec(num_nodes=nodes, cores_per_node=2, flops_per_core=1e9)
    )
    runtime = AllScaleRuntime(
        cluster,
        RuntimeConfig(
            comm_coalescing=enabled, replica_prefetch=enabled
        ),
    )
    # REPRO_SENTINEL fixture may have attached one already
    if runtime.probe.observer(RuntimeSentinel) is None:
        RuntimeSentinel(runtime, SentinelConfig(strict=True)).attach()
    return runtime


def aligned_boxes(grid):
    """4-aligned sub-boxes of the grid (no first-touch slivers)."""

    def build(t):
        x0, y0, w, h = t
        return grid.box(
            (4 * x0, 4 * y0),
            (min(SIDE, 4 * (x0 + w)), min(SIDE, 4 * (y0 + h))),
        )

    return st.tuples(
        st.integers(0, 3),
        st.integers(0, 3),
        st.integers(1, 4),
        st.integers(1, 4),
    ).map(build)


@st.composite
def task_specs(draw, grid, index):
    reads = draw(aligned_boxes(grid))
    writes = draw(
        st.one_of(st.none(), aligned_boxes(grid))
    )
    spec = {"reads": {grid: reads}}
    if writes is not None:
        spec["writes"] = {grid: writes}

    def body(ctx):
        # a write stores a digest of what the task read, so a stale or
        # missing replica shows up in the final contents
        fragment = ctx.fragment(grid)
        digest = float(fragment.gather(reads.boxes[0]).sum() % 1009 + index)
        if writes is not None:
            window = writes.boxes[0]
            fragment.scatter(window, np.full(window.widths(), digest))

    return TaskSpec(name=f"t{index}", body=body, size_hint=1, **spec)


def contents(runtime, grid):
    """Every process's fragment of ``grid``: boxes and their values."""
    return [
        [
            (box, process.data_manager.fragment(grid).gather(box).tolist())
            for box in process.data_manager.present_region(grid).boxes
        ]
        for process in runtime.processes
    ]


def moved_bytes(runtime):
    return {
        name: value
        for name, value in runtime.metrics.snapshot().items()
        if name.startswith("dm.") and name.endswith("_bytes")
    }


def check_plans(runtime, require_no_refetch, require_exact=False):
    plans = runtime.transfer_plans()
    for plan in plans:
        assert plan.finished
        for item in plan.items():
            moved = plan.moved_region(item)
            planned = plan.planned_region(item)
            # everything that moved was planned first — always
            assert moved.difference(planned).is_empty()
            if require_exact:
                # without contention or prefetch racing the demand path,
                # plans are precise: every planned element materializes
                # (or was a replica hit).  Under contention a writer may
                # claim a planned piece mid-flight, so this only holds
                # for the uncontended, prefetch-free runs.
                leftover = planned.difference(moved).difference(
                    plan.hit_region(item)
                )
                assert leftover.is_empty(), (plan, item, leftover)
        if require_no_refetch:
            assert plan.refetched_bytes() == 0, plan
    return plans


class TestPlanProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        data=st.data(),
        nodes=st.sampled_from([2, 4]),
        count=st.integers(1, 6),
    )
    def test_sequential_dag_plans_consistent(self, data, nodes, count):
        grid = Grid((SIDE, SIDE), name="g")
        tasks = [data.draw(task_specs(grid, i)) for i in range(count)]
        outcomes = []
        for enabled in (False, True):
            runtime = make_runtime(nodes, enabled)
            runtime.register_item(grid, placement=grid.decompose(nodes))
            for i, task in enumerate(tasks):
                runtime.wait(runtime.submit(task, origin=i % nodes))
            runtime.check_ownership_invariants()
            # uncontended chain: nothing can invalidate a fetch mid-plan
            check_plans(
                runtime, require_no_refetch=True, require_exact=not enabled
            )
            assert not runtime.probe.observer(RuntimeSentinel).violations
            counters = runtime.metrics.snapshot()
            if not enabled:
                assert counters.get("net.bulk_messages", 0) == 0
                assert counters.get("comms.coalesced_fetches", 0) == 0
            outcomes.append((contents(runtime, grid), moved_bytes(runtime)))
        assert outcomes[1] == outcomes[0]

    @settings(max_examples=15, deadline=None)
    @given(
        data=st.data(),
        nodes=st.sampled_from([2, 4]),
        enabled=st.booleans(),
        count=st.integers(2, 6),
    )
    def test_concurrent_dag_is_sentinel_clean(
        self, data, nodes, enabled, count
    ):
        runtime = make_runtime(nodes, enabled)
        grid = Grid((SIDE, SIDE), name="g")
        runtime.register_item(grid, placement=grid.decompose(nodes))
        tasks = [data.draw(task_specs(grid, i)) for i in range(count)]
        treetures = [
            runtime.submit(task, origin=i % nodes)
            for i, task in enumerate(tasks)
        ]
        for treeture in treetures:
            runtime.wait(treeture)
        runtime.check_ownership_invariants()
        # contended: refetches are legal (writers may invalidate replicas
        # mid-staging), but moved-never-planned still must not happen
        check_plans(runtime, require_no_refetch=False)
        assert not runtime.probe.observer(RuntimeSentinel).violations
        if not enabled:
            counters = runtime.metrics.snapshot()
            assert counters.get("net.bulk_messages", 0) == 0
            assert counters.get("comms.coalesced_fetches", 0) == 0
