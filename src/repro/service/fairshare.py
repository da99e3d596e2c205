"""Weighted fair-share scheduling over per-tenant queues.

A stride/deficit scheduler: every tenant carries a *pass* value, and the
next job comes from the backlogged, capacity-eligible tenant with the
smallest pass.  Dispatching charges the tenant's pass by the job's
statically estimated core-seconds divided by the tenant's weight; when
the job completes, the difference between actual and estimated charge is
settled the same way (the deficit correction).  Over any backlogged
window, each tenant's consumed core-seconds therefore track its share of
the total weight to within one job's worth of quantization — the bound
the bench panel's fairness index measures.

Within one tenant's queue, jobs are ordered by *aged priority*: a job's
effective priority is ``priority + waited_seconds / aging_seconds``, so
urgent jobs jump ahead but long-waiting background jobs eventually
overtake fresher urgent ones (no intra-tenant starvation).  Ties fall
back to arrival order.  Cross-tenant starvation cannot occur at all:
stride scheduling hands every positive-weight tenant turns in proportion
to its weight regardless of the others' demand.

Everything here is deterministic — simulated timestamps in, pure
arithmetic inside — which is what lets the service bench pin exact
per-tenant node-second totals in its committed baseline.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.jobs import JobRecord


def jain_fairness(values: list[float]) -> float:
    """Jain's fairness index: ``(sum x)^2 / (n * sum x^2)``.

    Feed it weight-normalized shares (``share / weight``) and 1.0 means
    observed consumption matches configured weights exactly; the floor
    is ``1/n`` when one participant takes everything.  Empty input
    (nothing consumed yet) reads as perfectly fair.
    """
    if not values:
        return 1.0
    total = sum(values)
    squares = sum(v * v for v in values)
    if squares == 0.0:
        return 1.0
    return (total * total) / (len(values) * squares)


class FairShareScheduler:
    """Stride scheduler with per-tenant queues and priority aging."""

    def __init__(self, aging_seconds: float | None = None) -> None:
        #: simulated seconds of waiting worth one priority level; None
        #: disables aging (strict priority within a tenant)
        self.aging_seconds = aging_seconds
        self._weights: dict[str, float] = {}
        self._passes: dict[str, float] = {}
        self._queues: dict[str, list["JobRecord"]] = {}
        self.dispatches = 0

    # -- tenant registry ---------------------------------------------------------

    def register_tenant(self, name: str, weight: float) -> None:
        if name in self._weights:
            raise ValueError(f"tenant {name!r} registered twice")
        if weight <= 0:
            raise ValueError(f"tenant {name!r}: weight must be > 0")
        self._weights[name] = weight
        self._passes[name] = 0.0
        self._queues[name] = []

    def tenants(self) -> tuple[str, ...]:
        return tuple(self._weights)

    def queue_length(self, tenant: str) -> int:
        return len(self._queues[tenant])

    def backlog(self) -> int:
        """Total queued jobs across all tenants."""
        return sum(len(q) for q in self._queues.values())

    def queued(self) -> dict[str, list[str]]:
        """Queued job ids per backlogged tenant, in arrival order."""
        return {
            tenant: [job.job_id for job in queue]
            for tenant, queue in self._queues.items()
            if queue
        }

    def pass_value(self, tenant: str) -> float:
        return self._passes[tenant]

    # -- queue operations --------------------------------------------------------

    def enqueue(self, job: "JobRecord") -> None:
        """Add an admitted job to its tenant's queue.

        A tenant waking from idle has its pass clamped up to the minimum
        pass of the currently backlogged tenants — idle time does not
        bank credit (the standard stride-virtual-time correction).
        """
        tenant = job.spec.tenant
        queue = self._queues[tenant]
        if not queue:
            active = [
                self._passes[name]
                for name, q in self._queues.items()
                if q and name != tenant
            ]
            if active:
                self._passes[tenant] = max(
                    self._passes[tenant], min(active)
                )
        queue.append(job)

    def _effective_priority(self, job: "JobRecord", now: float) -> float:
        if self.aging_seconds is None:
            return float(job.spec.priority)
        return job.spec.priority + (now - job.submitted_at) / self.aging_seconds

    def select(
        self,
        now: float,
        eligible: Callable[[str], bool],
    ) -> "JobRecord | None":
        """Pop the next job to dispatch, or None when nothing may run.

        ``eligible`` is the capacity gate (tenant concurrency quota,
        typically).  The caller must follow up with :meth:`charge` once
        the job actually starts.
        """
        best_tenant: str | None = None
        for tenant, queue in self._queues.items():
            if not queue or not eligible(tenant):
                continue
            if best_tenant is None or (
                self._passes[tenant],
                tenant,
            ) < (self._passes[best_tenant], best_tenant):
                best_tenant = tenant
        if best_tenant is None:
            return None
        queue = self._queues[best_tenant]
        # max aged priority; ties resolve to the oldest arrival
        best_index = 0
        best_key = (self._effective_priority(queue[0], now), -queue[0].seq)
        for index in range(1, len(queue)):
            key = (
                self._effective_priority(queue[index], now),
                -queue[index].seq,
            )
            if key > best_key:
                best_index, best_key = index, key
        job = queue.pop(best_index)
        self.dispatches += 1
        return job

    def charge(self, tenant: str, cost_node_seconds: float) -> None:
        """Advance a tenant's pass by consumed (or corrected) cost."""
        self._passes[tenant] += cost_node_seconds / self._weights[tenant]

    def remove(self, job: "JobRecord") -> bool:
        """Drop a queued job (client-side cancellation)."""
        queue = self._queues[job.spec.tenant]
        try:
            queue.remove(job)
            return True
        except ValueError:
            return False
