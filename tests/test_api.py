"""Tests for the user-facing API: access derivation, prec, pfor."""

import pytest

from repro.api.access import (
    box_region,
    expand_box,
    shifted_union,
    stencil_requirements,
)
from repro.api.pfor import pfor, pfor_task
from repro.api.prec import default_granularity, prec
from repro.api.program import execute_program
from repro.items.grid import Grid
from repro.regions.box import Box
from repro.runtime.config import MIN_TASK_SIZE, RuntimeConfig
from repro.runtime.runtime import AllScaleRuntime
from repro.runtime.tasks import TaskProgram, Treeture, constant_task
from repro.sim.cluster import Cluster, ClusterSpec


def make_runtime(nodes=2, cores=2, functional=True):
    cluster = Cluster(
        ClusterSpec(num_nodes=nodes, cores_per_node=cores, flops_per_core=1e9)
    )
    return AllScaleRuntime(cluster, RuntimeConfig(functional=functional))


class TestAccessDerivation:
    def setup_method(self):
        self.grid = Grid((10, 10), name="g")

    def test_box_region_clipped(self):
        region = box_region(self.grid, Box.of((8, 8), (15, 15)))
        assert region.size() == 4

    def test_expand_box(self):
        region = expand_box(self.grid, Box.of((2, 2), (4, 4)), 1)
        assert region.same_elements(box_region(self.grid, Box.of((1, 1), (5, 5))))
        # clipping at the border
        region = expand_box(self.grid, Box.of((0, 0), (2, 2)), 1)
        assert region.same_elements(box_region(self.grid, Box.of((0, 0), (3, 3))))
        with pytest.raises(ValueError):
            expand_box(self.grid, Box.of((0, 0), (2, 2)), -1)

    def test_shifted_union_is_exact_stencil_footprint(self):
        offsets = [(0, 0), (0, -1), (0, 1), (-1, 0), (1, 0)]
        box = Box.of((2, 2), (4, 4))
        region = shifted_union(self.grid, box, offsets)
        expected = set()
        for x in range(2, 4):
            for y in range(2, 4):
                for dx, dy in offsets:
                    expected.add((x + dx, y + dy))
        assert set(region.elements()) == expected
        # the cross footprint excludes corners — smaller than the square
        assert region.size() < expand_box(self.grid, box, 1).size()

    def test_shifted_union_rank_check(self):
        with pytest.raises(ValueError):
            shifted_union(self.grid, Box.of((0, 0), (1, 1)), [(0, 0, 0)])

    def test_stencil_requirements(self):
        a, b = Grid((10, 10), name="a"), Grid((10, 10), name="b")
        reads_fn, writes_fn = stencil_requirements(
            a, b, [(0, 0), (1, 0), (-1, 0)]
        )
        box = Box.of((3, 3), (5, 5))
        reads = reads_fn(box)
        writes = writes_fn(box)
        assert set(reads) == {a}
        assert set(writes) == {b}
        assert writes[b].same_elements(box_region(b, box))
        assert reads[a].covers(box_region(a, box))


class TestPrec:
    def test_fibonacci(self):
        runtime = make_runtime()

        def fib_seq(n):
            return n if n < 2 else fib_seq(n - 1) + fib_seq(n - 2)

        fib = prec(
            base_test=lambda n: n < 8,
            base=lambda ctx, n: fib_seq(n),
            split=lambda n: [n - 1, n - 2],
            combine=sum,
            size=lambda n: float(2**n),
        )
        treeture = fib.submit(runtime, 15, granularity=1)
        assert runtime.wait(treeture) == fib_seq(15)
        assert runtime.metrics.counter("proc.splits") > 0

    def test_callable_protocol(self):
        runtime = make_runtime()
        double = prec(
            base_test=lambda n: True,
            base=lambda ctx, n: n * 2,
            split=lambda n: [n],
        )
        assert runtime.wait(double(runtime, 21)) == 42

    def test_default_granularity(self):
        runtime = make_runtime(nodes=2, cores=2)
        g = default_granularity(runtime, 1600.0)
        # 2 nodes × 2 cores × oversubscription(4) = 16 slots
        assert g == pytest.approx(100.0)
        assert default_granularity(runtime, 1.0) == MIN_TASK_SIZE


class TestPfor:
    def test_point_kernel_touches_every_point(self):
        runtime = make_runtime(nodes=1)
        grid = Grid((6, 6), name="g")
        runtime.register_item(grid, placement=[grid.full_region])

        def kernel(ctx, coord):
            ctx.fragment(grid).set(coord, coord[0] * 10 + coord[1])

        treeture = pfor(
            runtime,
            (0, 0),
            (6, 6),
            point_kernel=kernel,
            writes=lambda box: {grid: box_region(grid, box)},
            granularity=9,
        )
        runtime.wait(treeture)
        fragment = runtime.process(0).data_manager.fragment(grid)
        assert fragment.get((3, 4)) == 34
        assert fragment.get((5, 5)) == 55

    def test_bulk_body_and_combiner(self):
        runtime = make_runtime(nodes=2)
        treeture = pfor(
            runtime,
            (0,),
            (100,),
            body=lambda ctx, box: box.size(),
            combiner=sum,
            granularity=10,
        )
        assert runtime.wait(treeture) == 100

    def test_requirement_functions_evaluated_per_subrange(self):
        runtime = make_runtime(nodes=2, functional=False)
        grid = Grid((32, 8), name="g")
        runtime.register_item(grid, placement=grid.decompose(2))
        seen_boxes = []

        def writes(box):
            seen_boxes.append(box)
            return {grid: box_region(grid, box)}

        treeture = pfor(
            runtime, (0, 0), (32, 8), body=lambda ctx, box: None,
            writes=writes, granularity=64,
        )
        runtime.wait(treeture)
        # requirements were computed for sub-ranges, not just the root
        assert len(seen_boxes) > 2
        assert runtime.process(0).executed_leaves > 0
        assert runtime.process(1).executed_leaves > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            pfor_task((0, 0), (2, 2))
        with pytest.raises(ValueError):
            pfor_task(
                (0, 0), (2, 2),
                body=lambda ctx, box: None,
                point_kernel=lambda ctx, c: None,
            )
        with pytest.raises(ValueError):
            pfor_task((2, 2), (2, 2), body=lambda ctx, box: None)

    def test_pfor_task_structure(self):
        task = pfor_task(
            (0, 0), (8, 8), body=lambda ctx, box: None, granularity=16
        )
        assert task.splittable
        children = task.expand_children()
        assert len(children) == 2
        assert sum(c.size_hint for c in children) == 64


class TestExecuteProgram:
    def test_stalled_barrier_names_program_phase_and_roots(self):
        program = TaskProgram(
            "toy",
            [
                [constant_task(1, "ok")],
                [constant_task(2, "stuck-a"), constant_task(3, "stuck-b")],
            ],
        )

        def lose_a_dependency(runtime):
            assign = runtime.scheduler.assign
            never = Treeture(runtime.engine, "never")
            runtime.scheduler.assign = (
                lambda task, origin=0, after=None, parent=None: assign(
                    task, origin, [never] if task.name == "stuck-b" else after,
                    parent,
                )
            )

        cluster = Cluster(ClusterSpec(num_nodes=2, cores_per_node=1))
        with pytest.raises(RuntimeError) as raised:
            execute_program(cluster, program, on_runtime=lose_a_dependency)
        message = str(raised.value)
        assert "program 'toy' did not complete" in message
        assert "phase 1 (roots: stuck-a, stuck-b)" in message
