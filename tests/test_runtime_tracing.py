"""Tests for the per-task execution tracer."""


from repro.api import box_region, pfor
from repro.items.grid import Grid
from repro.runtime.config import RuntimeConfig
from repro.runtime.elastic import drain
from repro.runtime.runtime import AllScaleRuntime
from repro.runtime.tasks import TaskSpec
from repro.runtime.tracing import ExecutionTracer, TaskRecord
from repro.sim.cluster import Cluster, ClusterSpec


def traced_runtime(nodes=2, cores=2, **config):
    cluster = Cluster(
        ClusterSpec(num_nodes=nodes, cores_per_node=cores, flops_per_core=1e9)
    )
    runtime = AllScaleRuntime(
        cluster, RuntimeConfig(functional=False, **config)
    )
    tracer = ExecutionTracer()
    runtime.probe.attach(tracer)
    return runtime, tracer


class TestTaskRecord:
    def test_phase_arithmetic(self):
        record = TaskRecord(
            name="t", pid=0, enqueued=1.0, started=2.0, data_ready=5.0,
            locks_held=6.0, finished=10.0,
        )
        assert record.queue_wait == 1.0
        assert record.staging_time == 3.0
        assert record.lock_wait == 1.0
        assert record.compute_time == 4.0
        assert record.total == 9.0


class TestExecutionTracer:
    def test_records_leaf_lifecycle(self):
        runtime, tracer = traced_runtime()
        grid = Grid((8, 8), name="g")
        runtime.register_item(grid, placement=grid.decompose(2))
        task = TaskSpec(
            name="work",
            reads={grid: grid.full_region},
            flops=1e6,
            size_hint=64,
        )
        runtime.wait(runtime.submit(task))
        assert len(tracer.records) == 1
        record = tracer.records[0]
        assert record.name == "work"
        assert record.finished >= record.locks_held >= record.data_ready
        assert record.data_ready >= record.started >= record.enqueued
        assert record.compute_time > 0
        # the full-grid read had to replicate remote data: staging happened
        assert record.staging_time > 0

    def test_breakdown_over_pfor(self):
        runtime, tracer = traced_runtime()
        grid = Grid((32, 32), name="g")
        runtime.register_item(grid)
        sweep = pfor(
            runtime,
            (0, 0),
            (32, 32),
            body=lambda ctx, box: None,
            writes=lambda box: {grid: box_region(grid, box)},
            flops_per_element=100.0,
        )
        runtime.wait(sweep)
        breakdown = tracer.breakdown()
        assert breakdown.tasks == len(tracer.records) > 1
        fractions = breakdown.fractions()
        assert abs(sum(fractions.values()) - 1.0) < 1e-9
        assert fractions["compute"] > 0

    def test_slowest_sorted(self):
        runtime, tracer = traced_runtime()
        for k, flops in enumerate((1e5, 5e6, 1e6)):
            runtime.wait(
                runtime.submit(
                    TaskSpec(name=f"t{k}", flops=flops, size_hint=1)
                )
            )
        slowest = tracer.slowest(2)
        assert len(slowest) == 2
        assert slowest[0].name == "t1"  # the 5e6-flop task

    def test_render_outputs(self):
        runtime, tracer = traced_runtime()
        for k in range(4):
            runtime.wait(
                runtime.submit(
                    TaskSpec(name=f"t{k}", flops=1e6, size_hint=1),
                    origin=k % 2,
                )
            )
        gantt = tracer.render_gantt(num_processes=2)
        assert "p0" in gantt and "p1" in gantt
        breakdown = tracer.render_breakdown()
        assert "compute" in breakdown and "%" in breakdown

    def test_stolen_task_is_credited_to_the_process_that_ran_it(self):
        runtime, tracer = traced_runtime(cores=1, work_stealing=True)
        # no data requirements: the policy queues every task at origin 0
        treetures = [
            runtime.submit(
                TaskSpec(name=f"t{k}", flops=5e6, size_hint=1), origin=0
            )
            for k in range(20)
        ]
        for treeture in treetures:
            runtime.wait(treeture)
        assert runtime.metrics.counter("proc.stolen_tasks") >= 1
        per_pid = [
            sum(1 for record in tracer.records if record.pid == pid)
            for pid in range(2)
        ]
        assert per_pid == [p.executed_leaves for p in runtime.processes]
        # the thief's compute shows up in its own utilization row
        assert sum(tracer.utilization(2)[1]) > 0

    def test_forwarded_task_keeps_its_first_enqueue_time(self):
        runtime, tracer = traced_runtime(nodes=2, cores=1)
        grid = Grid((8, 8), name="g")
        runtime.register_item(grid, placement=grid.decompose(2))
        home = runtime.process(1).data_manager.owned_region(grid)
        submitted = runtime.now
        # more work than the victim can start at once, then it leaves
        treetures = [
            runtime.submit(
                TaskSpec(
                    name=f"w{k}", writes={grid: home}, flops=1e5,
                    size_hint=home.size(),
                ),
                origin=1,
            )
            for k in range(6)
        ]
        leaving = runtime.engine.spawn(drain(runtime, 1))
        for treeture in treetures:
            runtime.wait(treeture)
        runtime.run()
        assert leaving.done
        assert runtime.metrics.counter("elastic.evacuated_tasks") >= 1
        assert len(tracer.records) == 6
        for record in tracer.records:
            # queue wait counts from submission, not from the forward
            assert record.enqueued == submitted
        assert any(record.pid == 0 for record in tracer.records)

    def test_record_cap(self):
        tracer = ExecutionTracer(max_records=2)
        for k in range(5):
            task = TaskSpec(name=f"t{k}")
            tracer.on_task_enqueued(task, k, 0, "leaf", 0.0)
            tracer.on_task_finish(task, k, 0, 1.0)
        assert len(tracer.records) <= 2

    def test_empty_tracer_renders(self):
        tracer = ExecutionTracer()
        assert tracer.utilization(2) == [[0.0] * 20, [0.0] * 20]
        assert "0 tasks" in tracer.render_breakdown()
