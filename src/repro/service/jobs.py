"""Job descriptions, lifecycle records, and structured admission verdicts.

A :class:`JobSpec` is what crosses the client/service boundary: a tenant
name, a catalog job kind, JSON-serializable parameters, and a priority.
The service turns each submission into a :class:`JobRecord` that tracks
the job through its lifecycle and carries the :class:`AdmissionVerdict`
the static analyzer produced at the front door — rejections are not
exceptions but structured API responses, so a client can always ask
*why* a job never ran.  While a job runs, its :class:`JobContext` listens
on the job's runtime probe and charges the core-seconds its leaves use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.findings import AnalysisReport
    from repro.runtime.runtime import AllScaleRuntime
    from repro.runtime.tasks import TaskSpec


class JobState:
    """Lifecycle states of a submitted job (plain strings on the wire)."""

    QUEUED = "queued"
    RUNNING = "running"
    COMPLETED = "completed"
    REJECTED = "rejected"
    FAILED = "failed"

    #: states from which a job never leaves
    TERMINAL = frozenset({COMPLETED, REJECTED, FAILED})


@dataclass(frozen=True)
class JobSpec:
    """One client-side job submission."""

    tenant: str
    kind: str
    params: Mapping[str, Any] = field(default_factory=dict)
    #: larger = more urgent within the tenant's queue; aging lifts
    #: long-waiting low-priority jobs past fresher urgent ones
    priority: int = 0
    #: optional client-chosen label (surfaced in status, never unique)
    name: str = ""

    def to_dict(self) -> dict:
        return {
            "tenant": self.tenant,
            "kind": self.kind,
            "params": dict(self.params),
            "priority": self.priority,
            "name": self.name,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "JobSpec":
        return cls(
            tenant=str(data.get("tenant", "")),
            kind=str(data.get("kind", "")),
            params=dict(data.get("params") or {}),
            priority=int(data.get("priority", 0)),
            name=str(data.get("name", "")),
        )


@dataclass
class AdmissionVerdict:
    """Structured outcome of the submit-time admission gate.

    ``accepted`` is True only when the job cleared every gate: known
    tenant, buildable task graph, zero error-severity analyzer findings,
    and a node-seconds estimate within the tenant's remaining budget.
    """

    accepted: bool
    #: machine-readable cause: ``ok`` | ``analysis`` | ``quota`` |
    #: ``build_error`` | ``unknown_tenant`` | ``unknown_kind`` | ``draining``
    reason: str
    #: human-readable elaboration of the reason
    detail: str = ""
    #: analyzer findings as plain dicts (check/severity/message/task/item)
    findings: list[dict] = field(default_factory=list)
    #: finding counts by severity (error/warning/info)
    counts: dict[str, int] = field(default_factory=dict)
    #: statically estimated core-seconds the job will charge
    estimated_node_seconds: float = 0.0

    @classmethod
    def from_report(
        cls, report: "AnalysisReport", estimate: float
    ) -> "AdmissionVerdict":
        findings = [
            {
                "check": f.check,
                "severity": f.severity,
                "message": f.message,
                "task": f.task,
                "item": f.item,
            }
            for f in report.findings
        ]
        accepted = report.clean
        return cls(
            accepted=accepted,
            reason="ok" if accepted else "analysis",
            detail=(
                ""
                if accepted
                else f"{len(report.errors)} error finding(s) from the "
                "static requirement analyzer"
            ),
            findings=findings,
            counts=report.counts(),
            estimated_node_seconds=estimate,
        )

    @classmethod
    def refusal(cls, reason: str, detail: str) -> "AdmissionVerdict":
        """A rejection that never reached the analyzer."""
        return cls(accepted=False, reason=reason, detail=detail)

    def to_dict(self) -> dict:
        return {
            "accepted": self.accepted,
            "reason": self.reason,
            "detail": self.detail,
            "findings": self.findings,
            "counts": dict(self.counts),
            "estimated_node_seconds": self.estimated_node_seconds,
        }


@dataclass(eq=False)
class JobContext:
    """Core-second accounting of one running job: a probe subscriber on
    the job's own runtime over the shared cluster.

    ``over_budget`` is sticky and side-effect free: the simulation stays
    deterministic (no mid-run exception through shared engine state), and
    the service settles the overrun when the job completes.
    """

    runtime: "AllScaleRuntime" = field(repr=False)
    #: core-seconds this job may charge before ``over_budget`` is raised
    #: (None = unlimited)
    node_seconds_cap: float | None = None
    #: core-seconds charged by leaf executions so far
    cpu_seconds: float = 0.0
    #: sticky flag: the cap was exceeded at some leaf boundary
    over_budget: bool = False

    def on_task_finish(
        self, task: "TaskSpec", treeture: object, pid: int, now: float
    ) -> None:
        # service clusters have no accelerators: every leaf ran on a core
        self.cpu_seconds += self.runtime.process(pid).node.flops_to_seconds(
            task.flops
        )
        cap = self.node_seconds_cap
        if cap is not None and self.cpu_seconds > cap:
            self.over_budget = True


@dataclass
class JobRecord:
    """Server-side state of one submission, from arrival to terminal."""

    job_id: str
    spec: JobSpec
    state: str = JobState.QUEUED
    verdict: AdmissionVerdict | None = None
    #: simulated timestamps (seconds on the shared cluster's clock)
    submitted_at: float = 0.0
    started_at: float | None = None
    finished_at: float | None = None
    #: core-seconds actually charged (0.0 until completion; stays 0.0 for
    #: rejected jobs — they never touch the cluster)
    node_seconds: float = 0.0
    #: job result value (JSON-serializable or None)
    result: Any = None
    #: failure description when state == failed
    error: str = ""
    #: the job exceeded its node-seconds cap (sticky, settled at completion)
    over_budget: bool = False
    #: monotonically increasing arrival sequence (tie-breaks scheduling)
    seq: int = 0

    @property
    def terminal(self) -> bool:
        return self.state in JobState.TERMINAL

    @property
    def queue_wait(self) -> float | None:
        """Simulated seconds between arrival and dispatch (None if never ran)."""
        if self.started_at is None:
            return None
        return self.started_at - self.submitted_at

    def to_status(self) -> dict:
        """JSON-ready status view (no result payload)."""
        return {
            "job_id": self.job_id,
            "tenant": self.spec.tenant,
            "kind": self.spec.kind,
            "name": self.spec.name,
            "priority": self.spec.priority,
            "state": self.state,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "queue_wait": self.queue_wait,
            "node_seconds": self.node_seconds,
            "over_budget": self.over_budget,
            "verdict": self.verdict.to_dict() if self.verdict else None,
        }

    def to_result(self) -> dict:
        """JSON-ready result view (status plus the result value / error)."""
        out = self.to_status()
        out["result"] = self.result
        out["error"] = self.error
        return out
