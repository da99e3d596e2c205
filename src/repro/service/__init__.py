"""Runtime-as-a-service: a multi-tenant job frontend over one shared cluster.

The paper's runtime executes a single task-graph application per run.
This package turns it into a long-lived service: an asyncio frontend
(:mod:`repro.service.frontend`) accepts job submissions from many
concurrent clients, a mandatory admission gate runs the static
requirement analyzer over every submitted task graph before it touches
the cluster (:mod:`repro.service.core`), per-tenant quotas bound
concurrency and node-seconds (:mod:`repro.service.quotas`), and admitted
jobs are dispatched over one shared simulated cluster by a weighted
stride/deficit fair-share scheduler with priority aging
(:mod:`repro.service.fairshare`).

``python -m repro.service`` exposes serve/submit/status/result/drain
over a local socket plus in-process replay of recorded multi-tenant
arrival traces (:mod:`repro.service.trace`).
"""

from repro.service.catalog import job_kinds, register_kind
from repro.service.core import ServiceConfig, ServiceCore
from repro.service.fairshare import FairShareScheduler
from repro.service.jobs import (
    AdmissionVerdict,
    JobRecord,
    JobSpec,
    JobState,
)
from repro.service.quotas import QuotaError, TenantConfig, TenantLedger

__all__ = [
    "AdmissionVerdict",
    "FairShareScheduler",
    "JobRecord",
    "JobSpec",
    "JobState",
    "QuotaError",
    "ServiceConfig",
    "ServiceCore",
    "TenantConfig",
    "TenantLedger",
    "job_kinds",
    "register_kind",
]
