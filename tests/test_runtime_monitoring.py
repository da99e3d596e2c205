"""Tests for the monitoring component, including periodic sampling."""

import pytest

from repro.runtime.config import RuntimeConfig
from repro.runtime.monitoring import Monitor
from repro.runtime.runtime import AllScaleRuntime
from repro.runtime.tasks import TaskSpec
from repro.sim.cluster import Cluster, ClusterSpec


def make_runtime(nodes=2):
    cluster = Cluster(
        ClusterSpec(num_nodes=nodes, cores_per_node=2, flops_per_core=1e9)
    )
    return AllScaleRuntime(cluster, RuntimeConfig(functional=False))


class TestPeriodicSampling:
    def test_samples_accumulate_while_work_runs(self):
        runtime = make_runtime()
        monitor = Monitor(runtime)
        monitor.start_sampling(interval=1e-3)
        treetures = [
            runtime.submit(
                TaskSpec(name=f"t{k}", flops=2e6, size_hint=1),
                origin=k % 2,
            )
            for k in range(16)
        ]
        for treeture in treetures:
            runtime.wait(treeture)
        monitor.stop_sampling()
        runtime.run(until=runtime.now + 0.01)  # let the loop notice the stop
        assert len(monitor.samples) >= 2
        times = [s.sim_time for s in monitor.samples]
        assert times == sorted(times)
        # leaf counts are monotone across samples
        leaves = [s.total_leaves for s in monitor.samples]
        assert leaves == sorted(leaves)
        assert leaves[-1] <= 16

    def test_throughput_series(self):
        runtime = make_runtime()
        monitor = Monitor(runtime)
        monitor.start_sampling(interval=1e-3)
        for k in range(8):
            runtime.wait(
                runtime.submit(TaskSpec(name=f"t{k}", flops=2e6, size_hint=1))
            )
        monitor.stop_sampling()
        runtime.run(until=runtime.now + 0.01)
        series = monitor.throughput_series()
        assert len(series) == len(monitor.samples)
        assert any(rate > 0 for _t, rate in series)

    def test_utilization_series_shape(self):
        runtime = make_runtime()
        monitor = Monitor(runtime)
        monitor.start_sampling(interval=1e-3)
        runtime.wait(
            runtime.submit(TaskSpec(name="t", flops=5e6, size_hint=1))
        )
        monitor.stop_sampling()
        runtime.run(until=runtime.now + 0.01)
        for time, backlog in monitor.utilization_series():
            assert time >= 0 and backlog >= 0

    def test_invalid_interval(self):
        monitor = Monitor(make_runtime())
        with pytest.raises(ValueError):
            monitor.start_sampling(0)

    def test_start_is_idempotent(self):
        runtime = make_runtime()
        monitor = Monitor(runtime)
        monitor.start_sampling(1e-3)
        monitor.start_sampling(1e-3)
        runtime.run(until=5e-3)
        monitor.stop_sampling()
        runtime.run(until=runtime.now + 5e-3)
        # a second start must not double the sampling rate
        assert len(monitor.samples) <= 6

    def test_stop_records_no_sample_after_it(self):
        runtime = make_runtime()
        monitor = Monitor(runtime)
        monitor.start_sampling(1e-3)
        runtime.run(until=3.5e-3)
        monitor.stop_sampling()
        runtime.run(until=1e-2)
        # samples at 1, 2 and 3 ms only: none after the stop
        assert len(monitor.samples) == 3

    def test_restart_within_one_interval_leaves_one_loop(self):
        runtime = make_runtime()
        monitor = Monitor(runtime)
        monitor.start_sampling(1e-3)
        runtime.run(until=1.5e-3)
        monitor.stop_sampling()
        monitor.start_sampling(1e-3)
        runtime.run(until=1e-2)
        monitor.stop_sampling()
        times = [s.sim_time for s in monitor.samples]
        gaps = [later - earlier for earlier, later in zip(times, times[1:])]
        assert len(times) >= 5
        assert min(gaps) > 1e-3 - 1e-9
