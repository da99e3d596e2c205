"""Recorded multi-tenant arrival traces: save, load, deterministic replay.

A trace is a self-contained JSON document: the service configuration
(tenants, weights, quotas, cluster shape) plus a list of arrival events,
each a simulated timestamp and a :class:`~repro.service.jobs.JobSpec`.
Replaying a trace in-process is fully deterministic — arrivals become
engine events via :meth:`ServiceCore.schedule`, so the same trace always
yields the same verdicts, dispatch order, and per-tenant node-second
totals.  That is what lets ``repro.bench --service`` pin exact replay
numbers in ``BENCH_service_baseline.json``, and what the CI ``service``
job replays through the socket frontend with concurrent clients.

The committed smoke trace (``traces/multi_tenant_smoke.json``) is built
by :func:`smoke_trace`: three tenants with 3:2:1 weights, racy
``bad_overlap`` probes from every tenant (admission must reject all of
them — the zero-false-accepts assertion), and a budget-capped tenant
whose burst overruns its node-seconds quota (the quota-enforcement
assertion).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.service.core import ServiceConfig, ServiceCore
from repro.service.fairshare import jain_fairness
from repro.service.jobs import JobSpec, JobState
from repro.service.quotas import TenantConfig

TRACE_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class TraceEvent:
    """One recorded arrival: a submission at a simulated timestamp."""

    at: float
    spec: JobSpec

    def to_dict(self) -> dict:
        out = {"at": self.at}
        out.update(self.spec.to_dict())
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "TraceEvent":
        return cls(at=float(data["at"]), spec=JobSpec.from_dict(data))


@dataclass
class Trace:
    """A service configuration plus its recorded arrival events."""

    config: ServiceConfig
    events: list[TraceEvent] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "schema": TRACE_SCHEMA_VERSION,
            "service": self.config.to_dict(),
            "events": [event.to_dict() for event in self.events],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Trace":
        schema = int(data.get("schema", 0))
        if schema != TRACE_SCHEMA_VERSION:
            raise ValueError(
                f"trace schema {schema} != supported {TRACE_SCHEMA_VERSION}"
            )
        return cls(
            config=ServiceConfig.from_dict(data.get("service") or {}),
            events=[TraceEvent.from_dict(e) for e in data.get("events", [])],
        )

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    @classmethod
    def load(cls, path: str) -> "Trace":
        with open(path, encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))


def replay(
    trace: Trace,
    core: ServiceCore | None = None,
    horizon_dispatches: int | None = None,
) -> dict:
    """Deterministically replay a trace in-process; return the report.

    Every arrival is scheduled as an engine event at its recorded
    simulated time, the service is pumped until drained, and ledger
    invariants are checked.  The report carries per-tenant latency and
    throughput plus the weighted fairness index — the exact numbers the
    bench baseline pins.

    ``horizon_dispatches`` additionally snapshots per-tenant *committed*
    node-seconds (completed plus in-flight estimates) once that many
    jobs have been dispatched, while every tenant is still backlogged.
    Shares must be measured at such a contended horizon: a full drain
    completes everyone's work, so end-of-run shares reflect demand, not
    the scheduler.  At the horizon they reflect the configured weights.
    """
    core = core or ServiceCore(trace.config)
    for event in trace.events:
        core.schedule(event.spec, event.at)
    contended = None
    if horizon_dispatches is not None:
        while (
            not core.idle
            and core.fairshare.dispatches < horizon_dispatches
        ):
            core.step()
        contended = contended_shares(core)
    core.run_until_drained()
    core.check_invariants()
    report = replay_report(core, trace)
    if contended is not None:
        report["contended"] = contended
    return report


def contended_shares(core: ServiceCore) -> dict:
    """Per-tenant committed node-seconds and shares at this instant.

    Committed = node-seconds of completed jobs plus the static estimates
    of currently running ones; queued admissions are excluded (their
    budget reservation is not yet scheduler work).
    """
    committed: dict[str, float] = {
        name: ledger.used for name, ledger in core.ledgers.items()
    }
    for record in core.jobs.values():
        if record.state == JobState.RUNNING:
            assert record.verdict is not None
            committed[record.spec.tenant] += (
                record.verdict.estimated_node_seconds
            )
    total = sum(committed.values())
    weights = {
        name: ledger.config.weight for name, ledger in core.ledgers.items()
    }
    active = {name for name, value in committed.items() if value > 0.0}
    weight_total = sum(weights[name] for name in active)
    shares = {}
    for name in core.ledgers:
        shares[name] = {
            "committed_node_seconds": committed[name],
            "observed_share": committed[name] / total if total else 0.0,
            "configured_share": (
                weights[name] / weight_total if name in active else 0.0
            ),
        }
    fairness = jain_fairness(
        [committed[name] / weights[name] for name in sorted(active)]
    )
    return {
        "dispatches": core.fairshare.dispatches,
        "time": core.engine.now,
        "fairness_index": fairness,
        "tenants": shares,
    }


def replay_report(core: ServiceCore, trace: Trace) -> dict:
    """Summarize a drained replay: per-tenant latency/throughput/shares."""
    makespan = core.engine.now
    stats = core.stats()
    per_tenant: dict[str, dict] = {}
    for snap in stats["tenants"]:
        completed = [
            record
            for record in core.jobs.values()
            if record.spec.tenant == snap["name"]
            and record.state == JobState.COMPLETED
        ]
        turnarounds = [
            record.finished_at - record.submitted_at for record in completed
        ]
        per_tenant[snap["name"]] = {
            "weight": snap["weight"],
            "submitted": snap["submitted"],
            "admitted": snap["admitted"],
            "rejected": snap["rejected"],
            "completed": snap["completed"],
            "node_seconds": snap["used_node_seconds"],
            "observed_share": snap["observed_share"],
            "configured_share": snap["configured_share"],
            "mean_queue_wait": snap["mean_queue_wait"],
            "mean_turnaround": (
                sum(turnarounds) / len(turnarounds) if turnarounds else 0.0
            ),
            "throughput_jobs_per_second": (
                len(completed) / makespan if makespan > 0 else 0.0
            ),
            "over_budget_jobs": snap["over_budget_jobs"],
        }
    rejected_by_reason: dict[str, int] = {}
    false_accepts = 0
    for record in core.jobs.values():
        if record.state == JobState.REJECTED:
            assert record.verdict is not None
            reason = record.verdict.reason
            rejected_by_reason[reason] = rejected_by_reason.get(reason, 0) + 1
        if record.spec.kind == "bad_overlap" and record.state != (
            JobState.REJECTED
        ):
            false_accepts += 1
    return {
        "events": len(trace.events),
        "jobs": len(core.jobs),
        "makespan": makespan,
        "total_node_seconds": stats["total_node_seconds"],
        "fairness_index": stats["fairness_index"],
        "rejected_by_reason": rejected_by_reason,
        "false_accepts": false_accepts,
        "tenants": per_tenant,
    }


# -- canned traces ----------------------------------------------------------------


def smoke_trace() -> Trace:
    """The committed CI smoke trace: three tenants, probes, a quota burst.

    * ``alpha`` (weight 3) and ``beta`` (weight 2) submit steady compute
      work plus functional and stencil jobs whose results the smoke run
      cross-checks.
    * ``gamma`` (weight 1) carries a 0.11 node-seconds budget and bursts
      eight 0.02 node-seconds jobs — exactly five fit (its grid_sum's
      tiny estimate reserves first), so three must be rejected with
      reason ``quota``.
    * every tenant sends a racy ``bad_overlap`` probe — all three must
      be rejected with reason ``analysis`` (zero false-accepts).
    """
    config = ServiceConfig(
        nodes=2,
        cores_per_node=4,
        tenants=(
            TenantConfig("alpha", weight=3.0, max_concurrent_jobs=2),
            TenantConfig("beta", weight=2.0, max_concurrent_jobs=2),
            TenantConfig(
                "gamma",
                weight=1.0,
                max_concurrent_jobs=1,
                max_node_seconds=0.11,
            ),
        ),
        max_running_jobs=2,
    )
    compute = {"flops": 4.8e7, "tasks": 4}
    events: list[TraceEvent] = []

    def add(at: float, tenant: str, kind: str, **params) -> None:
        events.append(
            TraceEvent(
                at, JobSpec(tenant=tenant, kind=kind, params=params)
            )
        )

    for index in range(6):
        add(0.005 * index, "alpha", "compute", **compute)
    for index in range(4):
        add(0.010 * index, "beta", "compute", **compute)
    add(0.0, "alpha", "grid_sum", n=16)
    add(0.010, "beta", "grid_sum", n=16)
    add(0.020, "beta", "stencil", n=16, steps=2)
    add(0.030, "alpha", "queries", queries=16, n=32)
    # gamma's budget burst: grid_sum (~0 cost) then eight 0.02-cost jobs
    add(0.0, "gamma", "grid_sum", n=8)
    for index in range(8):
        add(0.004 * index, "gamma", "compute", **compute)
    # the racy probes: admission must reject every one of these
    add(0.015, "alpha", "bad_overlap")
    add(0.025, "beta", "bad_overlap")
    add(0.035, "gamma", "bad_overlap")
    events.sort(key=lambda event: event.at)
    return Trace(config=config, events=events)


#: dispatch horizon at which the demo / bench panel measures shares;
#: divisible by the 3+2+1 weight total so the stride split is exact
DEMO_HORIZON_DISPATCHES = 72

#: maximum relative deviation of an observed contended share from the
#: configured weight share that the demo and the bench panel accept
SHARE_TOLERANCE = 0.10


def share_problems(report: dict, tolerance: float) -> list[tuple[str, str]]:
    """Tenants whose contended share misses its configured weight share.

    Returns ``(tenant, "share X deviates Y% from configured Z")`` for each
    tenant of a :func:`replay` report off by more than ``tolerance``.
    """
    problems = []
    for name, share in report["contended"]["tenants"].items():
        observed = share["observed_share"]
        configured = share["configured_share"]
        if configured <= 0:
            continue
        error = abs(observed - configured) / configured
        if error > tolerance:
            problems.append(
                (
                    name,
                    f"share {observed:.4f} deviates {error:.1%} from "
                    f"configured {configured:.4f}",
                )
            )
    return problems


def demo_trace() -> Trace:
    """The acceptance demo: 3 tenants, 120+ concurrent jobs at t=0.

    All arrivals land at time zero, so the whole batch contends for the
    two running-job slots at once and the fair-share scheduler's 3:2:1
    split is visible in per-tenant committed node-seconds at the
    :data:`DEMO_HORIZON_DISPATCHES` horizon (while everyone is still
    backlogged).  ``gamma``'s budget also forces a batch of structured
    quota rejections, and each tenant sends one racy probe.
    """
    config = ServiceConfig(
        tenants=(
            TenantConfig("alpha", weight=3.0, max_concurrent_jobs=2),
            TenantConfig("beta", weight=2.0, max_concurrent_jobs=2),
            TenantConfig(
                "gamma",
                weight=1.0,
                max_concurrent_jobs=2,
                max_node_seconds=0.3,
            ),
        ),
        max_running_jobs=2,
    )
    compute = {"flops": 4.8e7, "tasks": 4}
    events: list[TraceEvent] = []
    for tenant in ("alpha", "beta", "gamma"):
        for index in range(40):
            events.append(
                TraceEvent(
                    0.0,
                    JobSpec(tenant=tenant, kind="compute", params=compute),
                )
            )
        events.append(
            TraceEvent(
                0.0, JobSpec(tenant=tenant, kind="grid_sum", params={"n": 16})
            )
        )
        events.append(
            TraceEvent(0.0, JobSpec(tenant=tenant, kind="bad_overlap"))
        )
    return Trace(config=config, events=events)
