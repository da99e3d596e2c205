"""ServiceCore: admission gates, lifecycle, quotas, and one-shot inertness."""

from __future__ import annotations

import pathlib
import random

import numpy as np
import pytest

from repro.analysis import AnalysisConfig, analyze_program
from repro.items.grid import Grid
from repro.regions.box import Box
from repro.runtime.runtime import AllScaleRuntime
from repro.runtime.tasks import TaskProgram, TaskSpec
from repro.service import (
    JobSpec,
    JobState,
    ServiceConfig,
    ServiceCore,
    TenantConfig,
)
from repro.service import core as core_module
from repro.service.catalog import (
    build_program,
    job_kinds,
    kind_builder,
    register_kind,
    unregister_kind,
)
from repro.service.jobs import AdmissionVerdict, JobContext
from repro.service.trace import Trace, TraceEvent, replay
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
    real_submit_all = AllScaleRuntime.submit_all

    def spy(self, tasks, origins):
        submitted.extend(task.name for task in tasks)
        return real_submit_all(self, tasks, origins)

    monkeypatch.setattr(AllScaleRuntime, "submit_all", spy)
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


# -- analysis memo -----------------------------------------------------------------

KIND_PARAMS = {
    "compute": ({}, {"flops": 4.8e7, "tasks": 4, "phases": 2}),
    "grid_sum": ({}, {"n": 8}),
    "stencil": ({}, {"n": 16, "steps": 3}),
    "particles": ({}, {"particles": 1024, "cells": 4, "steps": 1}),
    "queries": ({}, {"queries": 8, "n": 16}),
    "bad_overlap": ({}, {"n": 4}),
}


@pytest.fixture
def analyses(monkeypatch):
    """Labels of the programs ``ServiceCore`` handed to the analyzer."""
    analysed = []

    def counting(program, config=None):
        analysed.append(program.label)
        return analyze_program(program, config)

    monkeypatch.setattr(core_module, "analyze_program", counting)
    return analysed


def open_loop_mix(jobs: int = 60) -> Trace:
    """Every built-in kind at its defaults, one engine event per slice."""
    rng = random.Random(17)
    kinds = [kind for kind in sorted(KIND_PARAMS) for _ in range(jobs // 6)]
    rng.shuffle(kinds)
    tenants = ("alpha", "beta", "gamma")
    return Trace(
        config=ServiceConfig(
            max_running_jobs=3,
            events_per_slice=1,
            tenants=tuple(TenantConfig(name) for name in tenants),
        ),
        events=[
            TraceEvent(index / 600.0, JobSpec(tenants[index % 3], kind))
            for index, kind in enumerate(kinds)
        ],
    )


@pytest.mark.parametrize("kind", sorted(KIND_PARAMS))
def test_memoised_verdict_equals_fresh_analysis_of_own_program(
    kind, monkeypatch, analyses
):
    built = []
    real = kind_builder(kind)

    def recording(params):
        built.append(real(params))
        return built[-1]

    monkeypatch.setattr(core_module, "kind_builder", lambda kind: recording)
    core = small_core()
    for params in KIND_PARAMS[kind]:
        for _ in range(3):
            record = core.submit(JobSpec("alpha", kind, params=params))
            own = built[-1]
            fresh = AdmissionVerdict.from_report(
                analyze_program(own, core.config.analysis),
                own.total_flops() / core.config.flops_per_core,
            )
            assert record.verdict.to_dict() == fresh.to_dict()
            assert record.verdict.accepted == (kind != "bad_overlap")
    assert len(built) == 6 and len({id(p) for p in built}) == 6
    assert analyses == [kind, kind]  # once per param set, not per job


def test_analysis_runs_once_per_distinct_program(analyses):
    trace = open_loop_mix()
    core = ServiceCore(trace.config)
    report = replay(trace, core)
    assert sorted(analyses) == sorted(KIND_PARAMS)
    assert report["rejected_by_reason"] == {"analysis": 10}
    assert report["false_accepts"] == 0
    racy = [r for r in core.jobs.values() if r.spec.kind == "bad_overlap"]
    assert len(racy) == 10
    assert all(r.verdict.findings == racy[0].verdict.findings for r in racy)
    assert racy[0].verdict.counts["error"] > 0


def test_reregistered_kind_is_not_served_its_predecessors_report(analyses):
    register_kind("ones", lambda params: _two_phase_program(False))
    try:
        core = small_core()
        for _ in range(2):
            assert core.submit(JobSpec("alpha", "ones")).verdict.accepted
        register_kind(
            "ones", lambda params: _two_phase_program(True), replace=True
        )
        swapped = core.submit(JobSpec("alpha", "ones"))
        assert swapped.state == JobState.REJECTED
        assert swapped.verdict.reason == "analysis"
        assert analyses == ["ones", "ones"]
    finally:
        unregister_kind("ones")


def test_list_and_non_json_params_neither_crash_nor_alias(analyses):
    register_kind("ones", lambda params: _two_phase_program(params["racy"][0]))
    try:
        core = small_core()
        verdicts = [
            core.submit(JobSpec("alpha", "ones", params={"racy": racy})).verdict
            for racy in ([False], [True], [False], [True], [0], (False,))
        ]
        assert [v.accepted for v in verdicts] == [
            True, False, True, False, True, True,
        ]
        # [False] / [True] / [0] are three programs; the tuple is [False]
        # on the wire
        assert len(analyses) == 3
        # a set is not JSON: no key, analysed on every submission
        register_kind(
            "ones",
            lambda params: _two_phase_program(True in params["racy"]),
            replace=True,
        )
        for _ in range(2):
            record = core.submit(JobSpec("alpha", "ones", params={"racy": {True}}))
            assert record.verdict.reason == "analysis"
        assert len(analyses) == 5
    finally:
        unregister_kind("ones")


def test_cores_with_different_analysis_configs_share_nothing(analyses):
    lenient = small_core(
        analysis=AnalysisConfig(races=False, coverage=False)
    )
    strict = small_core()
    for _ in range(2):
        assert lenient.submit(JobSpec("alpha", "bad_overlap")).verdict.accepted
        assert strict.submit(JobSpec("alpha", "bad_overlap")).verdict.reason == (
            "analysis"
        )
    assert len(analyses) == 2


# -- the pump ----------------------------------------------------------------------

#: ``replay`` of the committed smoke trace at the parent of the PR that
#: made idle steps free — dispatch instants and order must not move.
#: Re-pinned when fragment ops stopped queueing behind booked compute:
#: the makespan and turnarounds moved by under a microsecond.  Re-pinned
#: again when leaves began staging reads from their placement lookup:
#: fewer index messages, the makespan 19.8 µs shorter
SMOKE_REPLAY = {
    "events": 26,
    "jobs": 26,
    "makespan": 0.11069453671999985,
    "total_node_seconds": 0.3003364266666667,
    "fairness_index": 0.818645419092335,
    "rejected_by_reason": {"analysis": 3, "quota": 3},
    "false_accepts": 0,
    "tenants": {
        "alpha": {
            "weight": 3.0,
            "submitted": 9,
            "admitted": 8,
            "rejected": 1,
            "completed": 8,
            "node_seconds": 0.12033418666666669,
            "observed_share": 0.40066464132311713,
            "configured_share": 0.5,
            "mean_queue_wait": 0.05086357377999995,
            "mean_turnaround": 0.05843305826333327,
            "throughput_jobs_per_second": 72.27095606566274,
            "over_budget_jobs": 0,
        },
        "beta": {
            "weight": 2.0,
            "submitted": 7,
            "admitted": 6,
            "rejected": 1,
            "completed": 6,
            "node_seconds": 0.08000213333333332,
            "observed_share": 0.26637505886731816,
            "configured_share": 0.3333333333333333,
            "mean_queue_wait": 0.05023089838666662,
            "mean_turnaround": 0.058627728844444386,
            "throughput_jobs_per_second": 54.20321704924706,
            "over_budget_jobs": 0,
        },
        "gamma": {
            "weight": 1.0,
            "submitted": 10,
            "admitted": 6,
            "rejected": 4,
            "completed": 6,
            "node_seconds": 0.10000010666666667,
            "observed_share": 0.33296029980956465,
            "configured_share": 0.16666666666666666,
            "mean_queue_wait": 0.0695339846177777,
            "mean_turnaround": 0.07460908708888879,
            "throughput_jobs_per_second": 54.20321704924706,
            "over_budget_jobs": 0,
        },
    },
}


def test_smoke_trace_replay_is_unchanged():
    root = pathlib.Path(__file__).resolve().parents[1]
    trace = Trace.load(str(root / "traces" / "multi_tenant_smoke.json"))
    assert replay(trace) == SMOKE_REPLAY


def test_open_loop_drains_and_idle_steps_never_reach_the_scheduler(monkeypatch):
    trace = open_loop_mix()
    core = ServiceCore(trace.config)
    select = core.fairshare.select
    steps = []

    def guarded_select(now, eligible):
        assert core.fairshare.backlog() > 0, "scheduler scanned empty queues"
        return select(now, eligible)

    step = core.step
    monkeypatch.setattr(core.fairshare, "select", guarded_select)
    monkeypatch.setattr(
        core, "step", lambda until=None: steps.append(1) or step(until)
    )
    for event in trace.events:
        core.schedule(event.spec, event.at)
    # hundreds of steps per job: what is bounded is stalls, not steps
    core.run_until_drained()
    assert len(steps) > 100 * len(trace.events)
    assert core.idle and core.fairshare.dispatches == 50


def test_queue_that_can_never_dispatch_is_reported_at_once(monkeypatch):
    core = small_core()
    monkeypatch.setattr(core.ledgers["alpha"], "can_start", lambda: False)
    stuck = core.submit(JobSpec("alpha", "compute", params=COMPUTE))
    steps = []
    step = core.step
    monkeypatch.setattr(
        core, "step", lambda until=None: steps.append(1) or step(until)
    )
    with pytest.raises(RuntimeError) as raised:
        core.run_until_drained()
    message = str(raised.value)
    assert len(steps) == 1
    assert f"'alpha': ['{stuck.job_id}']" in message
    assert "running []" in message and "0 engine event(s) pending" in message


# -- job accounting ----------------------------------------------------------------


def test_one_shot_runtime_has_no_job_context():
    runtime = AllScaleRuntime(
        Cluster(ClusterSpec(num_nodes=1, cores_per_node=1))
    )
    assert runtime.probe.observer(JobContext) is None


def test_job_context_over_budget_is_sticky_not_fatal():
    """Leaves charging ten times what the root declares: the job runs to
    completion, and its ``JobContext`` — subscribed to the job's runtime
    probe — only raises the sticky flag the service settles at the end."""

    def build_underdeclared(params):
        leaves = [TaskSpec(name=f"leaf{i}", flops=2.4e7) for i in range(2)]
        root = TaskSpec(
            name="root", flops=4.8e6, size_hint=2, splitter=lambda _owners: leaves
        )
        return TaskProgram("underdeclared", [[root]])

    register_kind("underdeclared", build_underdeclared)
    try:
        core = small_core(
            tenants=(TenantConfig("alpha", weight=1.0, max_node_seconds=0.01),)
        )
        record = core.submit(JobSpec("alpha", "underdeclared"))
        assert record.verdict.estimated_node_seconds == pytest.approx(0.002)
        core.run_until_drained()
    finally:
        unregister_kind("underdeclared")
    assert record.state == JobState.COMPLETED
    assert record.over_budget
    assert record.node_seconds == pytest.approx(0.02)
    assert core.metrics.counter("service.over_budget") == 1
