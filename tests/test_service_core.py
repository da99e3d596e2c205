"""ServiceCore: admission gates, lifecycle, quotas, and one-shot inertness."""

from __future__ import annotations

import numpy as np
import pytest

from repro.items.grid import Grid
from repro.regions.box import Box
from repro.runtime.config import RuntimeConfig
from repro.runtime.jobs import JobContext
from repro.runtime.runtime import AllScaleRuntime
from repro.runtime.tasks import TaskProgram, TaskSpec
from repro.service import (
    JobSpec,
    JobState,
    ServiceConfig,
    ServiceCore,
    TenantConfig,
)
from repro.service.catalog import (
    build_program,
    job_kinds,
    register_kind,
    unregister_kind,
)
from repro.sim.cluster import Cluster, ClusterSpec

COMPUTE = {"flops": 4.8e7, "tasks": 4}  # 0.02 node-seconds at 2.4e9 flops/core


def small_core(**overrides) -> ServiceCore:
    defaults = dict(
        nodes=2,
        cores_per_node=2,
        tenants=(
            TenantConfig("alpha", weight=2.0),
            TenantConfig("beta", weight=1.0),
        ),
        max_running_jobs=2,
    )
    defaults.update(overrides)
    return ServiceCore(ServiceConfig(**defaults))


# -- admission gates ---------------------------------------------------------------


def test_unknown_tenant_is_structured_rejection():
    core = small_core()
    record = core.submit(JobSpec(tenant="nobody", kind="compute"))
    assert record.state == JobState.REJECTED
    assert record.verdict is not None
    assert record.verdict.reason == "unknown_tenant"
    assert "alpha" in record.verdict.detail
    assert record.terminal


def test_unknown_kind_lists_catalog():
    core = small_core()
    record = core.submit(JobSpec(tenant="alpha", kind="nope"))
    assert record.verdict.reason == "unknown_kind"
    for kind in job_kinds():
        assert kind in record.verdict.detail


def test_build_error_from_bad_params():
    core = small_core()
    record = core.submit(
        JobSpec(tenant="alpha", kind="grid_sum", params={"n": 100000})
    )
    assert record.verdict.reason == "build_error"
    record = core.submit(
        JobSpec(tenant="alpha", kind="compute", params={"bogus": 1})
    )
    assert record.verdict.reason == "build_error"
    assert "bogus" in record.verdict.detail


def test_racy_job_rejected_with_findings():
    core = small_core()
    record = core.submit(JobSpec(tenant="alpha", kind="bad_overlap"))
    assert record.state == JobState.REJECTED
    assert record.verdict.reason == "analysis"
    assert record.verdict.counts.get("error", 0) > 0
    checks = {finding["check"] for finding in record.verdict.findings}
    assert any(check.startswith("race.") for check in checks)
    # rejected before touching the cluster: no simulated time, no cost
    assert record.node_seconds == 0.0
    assert core.engine.now == 0.0


def test_draining_refuses_new_work():
    core = small_core()
    core.drain()
    record = core.submit(JobSpec(tenant="alpha", kind="compute"))
    assert record.verdict.reason == "draining"


def test_clean_job_admitted_with_estimate():
    core = small_core()
    record = core.submit(
        JobSpec(tenant="alpha", kind="compute", params=COMPUTE)
    )
    assert record.state == JobState.QUEUED
    assert record.verdict.accepted and record.verdict.reason == "ok"
    assert record.verdict.estimated_node_seconds == pytest.approx(0.02)


# -- lifecycle ---------------------------------------------------------------------


def test_compute_job_runs_to_exact_estimate():
    core = small_core()
    record = core.submit(
        JobSpec(tenant="alpha", kind="compute", params=COMPUTE)
    )
    core.run_until_drained()
    assert record.state == JobState.COMPLETED
    assert record.node_seconds == pytest.approx(0.02)
    assert record.started_at is not None and record.finished_at is not None
    assert record.queue_wait == pytest.approx(0.0)
    assert not record.over_budget


def test_functional_job_returns_value():
    core = small_core()
    record = core.submit(
        JobSpec(tenant="alpha", kind="grid_sum", params={"n": 8})
    )
    core.run_until_drained()
    assert record.state == JobState.COMPLETED
    # sum over (i+j)^2 for an 8x8 coordinate grid
    expected = float(
        sum((i + j) ** 2 for i in range(8) for j in range(8))
    )
    assert record.result == pytest.approx(expected)


def test_status_and_result_views_are_json_shaped():
    import json

    core = small_core()
    record = core.submit(
        JobSpec(tenant="alpha", kind="queries", params={"queries": 8})
    )
    core.run_until_drained()
    status = core.status(record.job_id)
    result = core.result(record.job_id)
    json.dumps(status)
    json.dumps(result)
    assert "result" not in status and result["result"] == 8.0
    assert core.status("job-99999") is None


def test_stats_block_is_json_shaped():
    import json

    core = small_core()
    for _ in range(3):
        core.submit(JobSpec(tenant="alpha", kind="compute", params=COMPUTE))
    core.submit(JobSpec(tenant="alpha", kind="bad_overlap"))
    core.run_until_drained()
    stats = core.stats()
    json.dumps(stats)
    assert stats["states"] == {"completed": 3, "rejected": 1}
    assert stats["fairness_index"] == pytest.approx(1.0)
    by_name = {row["name"]: row for row in stats["tenants"]}
    assert by_name["alpha"]["completed"] == 3
    assert by_name["beta"]["observed_share"] == 0.0


def test_scheduled_arrivals_advance_simulated_time():
    core = small_core()
    core.schedule(
        JobSpec(tenant="alpha", kind="compute", params=COMPUTE), at=1.5
    )
    core.run_until_drained()
    record = core.jobs["job-00001"]
    assert record.submitted_at == pytest.approx(1.5)
    assert record.state == JobState.COMPLETED
    assert core.engine.now >= 1.5


def test_queue_waits_reflect_contention():
    core = small_core(max_running_jobs=1)
    first = core.submit(
        JobSpec(tenant="alpha", kind="compute", params=COMPUTE)
    )
    second = core.submit(
        JobSpec(tenant="alpha", kind="compute", params=COMPUTE)
    )
    core.run_until_drained()
    assert first.queue_wait == pytest.approx(0.0)
    assert second.queue_wait > 0.0
    assert second.started_at >= first.finished_at


# -- quotas ------------------------------------------------------------------------


def test_concurrency_quota_caps_peak_running():
    core = small_core(
        tenants=(TenantConfig("alpha", weight=1.0, max_concurrent_jobs=1),),
        max_running_jobs=4,
    )
    for _ in range(4):
        core.submit(JobSpec(tenant="alpha", kind="compute", params=COMPUTE))
    core.run_until_drained()
    core.check_invariants()
    assert core.ledgers["alpha"].peak_running == 1
    assert core.ledgers["alpha"].completed == 4


def test_node_seconds_budget_rejects_burst_excess():
    core = small_core(
        tenants=(
            TenantConfig("alpha", weight=1.0, max_node_seconds=0.05),
        ),
    )
    records = [
        core.submit(JobSpec(tenant="alpha", kind="compute", params=COMPUTE))
        for _ in range(4)
    ]
    # reservation happens at admission: only two 0.02 jobs fit in 0.05
    states = [record.state for record in records]
    assert states == [
        JobState.QUEUED,
        JobState.QUEUED,
        JobState.REJECTED,
        JobState.REJECTED,
    ]
    assert records[2].verdict.reason == "quota"
    assert "budget" in records[2].verdict.detail
    core.run_until_drained()
    core.check_invariants()
    ledger = core.ledgers["alpha"]
    assert ledger.used == pytest.approx(0.04)
    assert ledger.reserved == 0.0
    assert [record.node_seconds for record in records[2:]] == [0.0, 0.0]


def test_budget_frees_nothing_on_completion():
    # the budget is cumulative: finished jobs' usage stays charged
    core = small_core(
        tenants=(
            TenantConfig("alpha", weight=1.0, max_node_seconds=0.05),
        ),
    )
    first = core.submit(
        JobSpec(tenant="alpha", kind="compute", params=COMPUTE)
    )
    core.run_until_drained()
    assert first.state == JobState.COMPLETED
    for _ in range(2):
        core.submit(JobSpec(tenant="alpha", kind="compute", params=COMPUTE))
    core.run_until_drained()
    core.check_invariants()
    ledger = core.ledgers["alpha"]
    assert ledger.completed == 2 and ledger.rejected == 1
    assert ledger.used <= 0.05 + 1e-9


# -- catalog extension -------------------------------------------------------------


def test_registered_kind_is_admitted_and_runs():
    def build_noop(params):
        return build_program("compute", {"flops": 2.4e6, "tasks": 1})

    register_kind("noop", build_noop)
    try:
        core = small_core()
        record = core.submit(JobSpec(tenant="alpha", kind="noop"))
        core.run_until_drained()
        assert record.state == JobState.COMPLETED
        assert record.node_seconds == pytest.approx(0.001)
    finally:
        unregister_kind("noop")
    with pytest.raises(ValueError):
        unregister_kind("compute")  # built-ins cannot be removed


def _two_phase_program(racy: bool) -> TaskProgram:
    """Fill an 8x8 grid with ones, then count them; ``racy``: both fill
    roots write the whole grid."""
    grid = Grid((8, 8), name="ones")
    halves = [Box((0, 0), (4, 8)), Box((4, 0), (8, 8))]

    def fill(box):
        return TaskSpec(
            name=f"fill{box!r}",
            writes={grid: grid.full_region if racy else grid.box(box.lo, box.hi)},
            flops=64.0,
            body=lambda ctx: ctx.fragment(grid).scatter(
                box, np.ones(box.widths())
            ),
        )

    count = TaskSpec(
        name="count",
        reads={grid: grid.full_region},
        flops=64.0,
        body=lambda ctx: float(
            ctx.fragment(grid).gather(Box((0, 0), (8, 8))).sum()
        ),
    )
    return TaskProgram(
        "ones",
        [[fill(box) for box in halves], [count]],
        items=[grid],
        functional=True,
        finalize=lambda values: {"ones": values[0]},
    )


def test_registered_task_program_runs_and_racy_one_never_submits(monkeypatch):
    submitted = []
    real_submit = AllScaleRuntime.submit

    def spy(self, task, origin=0, after=None):
        submitted.append(task.name)
        return real_submit(self, task, origin=origin, after=after)

    monkeypatch.setattr(AllScaleRuntime, "submit", spy)
    register_kind("ones", lambda params: _two_phase_program(params["racy"]))
    try:
        core = small_core()
        racy = core.submit(JobSpec("alpha", "ones", params={"racy": True}))
        assert racy.state == JobState.REJECTED
        assert racy.verdict.reason == "analysis"
        core.run_until_drained()
        assert submitted == []  # rejected before anything reached a runtime
        clean = core.submit(JobSpec("alpha", "ones", params={"racy": False}))
        core.run_until_drained()
        assert clean.state == JobState.COMPLETED
        assert clean.result == {"ones": 64.0}
        assert submitted[-1] == "count" and len(submitted) == 3
    finally:
        unregister_kind("ones")


# -- runtime-layer job context -----------------------------------------------------


def test_one_shot_runtime_has_no_job_context():
    runtime = AllScaleRuntime(
        Cluster(ClusterSpec(num_nodes=1, cores_per_node=1))
    )
    assert runtime.job_context is None
    assert runtime.config.tenant is None
    assert runtime.config.job_node_seconds_cap is None


def test_job_context_over_budget_is_sticky_not_fatal():
    context = JobContext(
        job_id="j", tenant="alpha", node_seconds_cap=0.05
    )
    context.on_leaf(0.04)
    assert not context.over_budget
    context.on_leaf(0.02)
    assert context.over_budget
    context.on_leaf(0.01)  # no exception: determinism preserved
    assert context.over_budget
    assert context.cpu_seconds == pytest.approx(0.07)
    snap = context.snapshot()
    assert snap["over_budget"] and snap["leaves_executed"] == 3


def test_runtime_config_rejects_negative_cap():
    with pytest.raises(ValueError):
        RuntimeConfig(job_node_seconds_cap=-1.0)
