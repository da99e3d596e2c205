"""Unit tests for simulated nodes, clusters, and metrics."""

import pytest

from repro.sim.cluster import Cluster, ClusterSpec, meggie_like_spec
from repro.sim.engine import SimEngine
from repro.sim.metrics import MetricRegistry
from repro.sim.node import MemoryExhaustedError, SimNode


class TestSimNode:
    def make(self, cores=2, rate=1e9, memory=float("inf")):
        engine = SimEngine()
        return engine, SimNode(engine, 0, cores, rate, memory)

    def test_work_packs_onto_free_cores(self):
        engine, node = self.make(cores=2)
        node.execute(1.0)
        node.execute(1.0)
        node.execute(1.0)  # queues behind one of the first two
        engine.run()
        assert engine.now == pytest.approx(2.0)

    def test_execute_parallel_uses_all_cores(self):
        engine, node = self.make(cores=4)
        node.execute(1.0)  # one core busy until t=1
        node.execute_parallel(2.0)  # waits for all cores
        engine.run()
        assert engine.now == pytest.approx(3.0)

    def test_interleave_on_an_idle_core_is_execute(self):
        runs = []
        for method in ("execute", "interleave"):
            engine, node = self.make(cores=2)
            node.execute(3.0)  # the other core stays idle
            done = getattr(node, method)(0.5)
            engine.run()
            runs.append(
                (
                    done.value,
                    sorted(node._core_free_at),
                    node.busy_fraction(engine.now),
                    node.metrics.snapshot(),
                )
            )
        assert runs[0] == runs[1]

    def test_interleave_slots_in_ahead_of_booked_work(self):
        engine, node = self.make(cores=2)
        node.execute(4.0)
        node.execute(6.0)
        engine.run(until=1.0)
        done = node.interleave(0.25)
        assert sorted(node._core_free_at) == [4.25, 6.0]
        engine.run()
        assert done.value == pytest.approx(1.25)
        assert node.metrics.counter("node.tasks_executed") == 3
        assert node.busy_fraction(engine.now) == pytest.approx(
            10.25 / (2 * engine.now)
        )

    def test_flops_conversion(self):
        _, node = self.make(cores=4, rate=2e9)
        assert node.flops_to_seconds(4e9) == pytest.approx(2.0)
        assert node.flops_to_seconds_parallel(4e9) == pytest.approx(0.5)

    def test_backlog_and_busy_fraction(self):
        engine, node = self.make(cores=2)
        node.execute(4.0)
        assert node.backlog() == pytest.approx(2.0)  # 4s over 2 cores
        engine.run()
        assert node.busy_fraction(4.0) == pytest.approx(0.5)

    def test_memory_budget(self):
        _, node = self.make(memory=100.0)
        node.allocate(60)
        with pytest.raises(MemoryExhaustedError):
            node.allocate(50)
        node.free(30)
        node.allocate(50)
        assert node.memory_used == pytest.approx(80)
        node.free(1000)
        assert node.memory_used == 0.0

    def test_validation(self):
        engine = SimEngine()
        with pytest.raises(ValueError):
            SimNode(engine, 0, 0, 1e9)
        with pytest.raises(ValueError):
            SimNode(engine, 0, 1, 0)
        _, node = self.make()
        with pytest.raises(ValueError):
            node.execute(-1.0)


class TestCluster:
    def test_assembly(self):
        cluster = Cluster(ClusterSpec(num_nodes=4, cores_per_node=8))
        assert cluster.num_nodes == 4
        assert cluster.total_cores() == 32
        assert len(cluster.nodes) == 4
        assert cluster.node(2).node_id == 2

    def test_meggie_preset(self):
        spec = meggie_like_spec(64)
        assert spec.num_nodes == 64
        assert spec.cores_per_node == 20
        assert spec.memory_per_node == pytest.approx(64e9)
        # single-node effective rate lands near the paper's ~48 GFLOPS
        assert spec.cores_per_node * spec.flops_per_core == pytest.approx(
            48e9
        )

    def test_spec_with_nodes(self):
        spec = meggie_like_spec(4).with_nodes(16)
        assert spec.num_nodes == 16
        assert spec.cores_per_node == 20

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ClusterSpec(num_nodes=0)
        with pytest.raises(ValueError):
            ClusterSpec(num_nodes=1, cores_per_node=0)


class TestMetrics:
    def test_counters(self):
        metrics = MetricRegistry()
        metrics.incr("x")
        metrics.incr("x", 2.5)
        assert metrics.counter("x") == 3.5
        assert metrics.counter("missing") == 0.0

    def test_stats(self):
        metrics = MetricRegistry()
        for v in (1.0, 3.0, 5.0):
            metrics.observe("lat", v)
        stat = metrics.stat("lat")
        assert stat.count == 3
        assert stat.mean == pytest.approx(3.0)
        assert stat.minimum == 1.0 and stat.maximum == 5.0
        assert metrics.stat("missing").count == 0

    def test_merged(self):
        a, b = MetricRegistry(), MetricRegistry()
        a.incr("n", 1)
        b.incr("n", 2)
        a.observe("s", 1.0)
        b.observe("s", 3.0)
        merged = a.merged(b)
        assert merged.counter("n") == 3
        assert merged.stat("s").mean == pytest.approx(2.0)

    def test_snapshot(self):
        metrics = MetricRegistry()
        metrics.incr("c", 2)
        metrics.observe("s", 4.0)
        snap = metrics.snapshot()
        assert snap["c"] == 2
        assert snap["s.mean"] == 4.0
        assert snap["s.count"] == 1.0
