"""GPU variants through the user API (pfor/prec device costs)."""

import pytest

from repro.api import box_region
from repro.api.pfor import pfor, pfor_task
from repro.items.grid import Grid
from repro.runtime.config import RuntimeConfig
from repro.runtime.runtime import AllScaleRuntime
from repro.sim.accelerator import AcceleratorSpec
from repro.sim.cluster import Cluster, ClusterSpec


def gpu_runtime(gpus=1):
    cluster = Cluster(
        ClusterSpec(
            num_nodes=2,
            cores_per_node=2,
            flops_per_core=1e9,
            gpus_per_node=gpus,
            gpu=AcceleratorSpec(flops=1e12),
        )
    )
    return AllScaleRuntime(cluster, RuntimeConfig(functional=False))


class TestPforGpuVariant:
    def test_gpu_flops_attached_down_the_tree(self):
        task = pfor_task(
            (0, 0),
            (64, 64),
            body=lambda ctx, box: None,
            flops_per_element=100.0,
            gpu_flops_per_element=10.0,
            granularity=512,
        )
        assert task.gpu_flops == pytest.approx(10.0 * 64 * 64)
        children = task.expand_children()
        for child in children:
            assert child.gpu_flops == pytest.approx(10.0 * child.size_hint)

    def test_no_gpu_cost_means_cpu_only(self):
        task = pfor_task(
            (0,), (8,), body=lambda ctx, box: None, granularity=8
        )
        assert task.gpu_flops is None

    def test_compute_bound_pfor_offloads_and_speeds_up(self):
        def run(gpus):
            runtime = gpu_runtime(gpus)
            grid = Grid((256, 256), name="g")
            runtime.register_item(grid, placement=grid.decompose(2))
            sweep = pfor(
                runtime,
                (0, 0),
                (256, 256),
                body=lambda ctx, box: None,
                writes=lambda box: {grid: box_region(grid, box)},
                flops_per_element=5e4,  # compute-bound
                gpu_flops_per_element=5e4,
            )
            runtime.wait(sweep)
            return runtime.now, runtime.metrics.counter("proc.gpu_offloads")

        cpu_time, cpu_offloads = run(0)
        gpu_time, gpu_offloads = run(1)
        assert cpu_offloads == 0
        assert gpu_offloads > 0
        assert gpu_time < cpu_time / 5

    def test_transfer_bound_pfor_stays_on_cpu(self):
        runtime = gpu_runtime(1)
        grid = Grid((256, 256), name="g")
        runtime.register_item(grid, placement=grid.decompose(2))
        sweep = pfor(
            runtime,
            (0, 0),
            (256, 256),
            body=lambda ctx, box: None,
            reads=lambda box: {grid: box_region(grid, box)},
            writes=lambda box: {grid: box_region(grid, box)},
            flops_per_element=1.0,  # trivial compute, heavy data
            gpu_flops_per_element=1.0,
        )
        runtime.wait(sweep)
        assert runtime.metrics.counter("proc.gpu_offloads") == 0
