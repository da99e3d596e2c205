"""The deterministic heart of the service: admission, queues, dispatch.

:class:`ServiceCore` is synchronous and event-driven — it owns one shared
simulated :class:`~repro.sim.cluster.Cluster` and advances it in bounded
slices via :meth:`ServiceCore.step`, which the asyncio frontend interleaves
with socket I/O (and tests call directly).  Everything that decides a
job's fate is deterministic: same submissions at the same simulated times
produce the same verdicts, dispatch order, and per-tenant node-second
totals — which is what lets the bench panel pin exact numbers in its
committed baseline.

A submission passes through the gates in order:

1. **draining / tenant / kind** — structural refusals, no analysis run.
2. **build** — the catalog materializes the task graph on the service
   side of the boundary, so what the analyzer judges is what the
   catalog builds, never a client's description of it.
3. **analysis** — :func:`repro.analysis.program.analyze_program` under
   the bounded admission profile; any error-severity finding rejects the
   job with the findings attached to the structured verdict.  A job's
   requirements are a static function of its declaration, so the report
   is computed once per distinct (builder, params, analysis config) and
   looked up for every later submission of an equal program.
4. **budget** — the static node-seconds estimate must fit the tenant's
   remaining budget (used + reserved headroom).

Admitted jobs wait in their tenant's fair-share queue; the dispatcher
starts them whenever a global running-jobs slot is free, picking tenants
by stride pass and jobs within a tenant by aged priority.  Each running
job gets its *own* :class:`~repro.runtime.runtime.AllScaleRuntime` (own
index, own processes) over the *shared* cluster nodes and engine — so
jobs genuinely contend for the same simulated cores while their data
items and schedulers stay isolated.
"""

from __future__ import annotations

import json
from dataclasses import astuple, dataclass, field, replace
from typing import Any, Callable, Generator, Mapping

from repro.analysis.expansion import AnalysisConfig
from repro.analysis.findings import AnalysisReport
from repro.analysis.program import analyze_program
from repro.api.program import register_items, run_program
from repro.runtime.config import RuntimeConfig
from repro.runtime.runtime import AllScaleRuntime
from repro.runtime.sentinel import RuntimeSentinel
from repro.runtime.tasks import TaskProgram
from repro.service.catalog import kind_builder
from repro.service.fairshare import FairShareScheduler, jain_fairness
from repro.service.jobs import (
    AdmissionVerdict,
    JobContext,
    JobRecord,
    JobSpec,
    JobState,
)
from repro.service.quotas import TenantConfig, TenantLedger
from repro.sim.cluster import Cluster, ClusterSpec


@dataclass(frozen=True)
class ServiceConfig:
    """Static configuration of one service instance."""

    #: shared cluster shape
    nodes: int = 4
    cores_per_node: int = 4
    flops_per_core: float = 2.4e9
    #: the tenants allowed to submit (unknown tenants are refused)
    tenants: tuple[TenantConfig, ...] = (
        TenantConfig("alpha", weight=3.0),
        TenantConfig("beta", weight=2.0),
        TenantConfig("gamma", weight=1.0),
    )
    #: global bound on concurrently running jobs (cluster multiprogramming
    #: level); per-tenant concurrency quotas apply on top
    max_running_jobs: int = 2
    #: engine events processed per :meth:`ServiceCore.step` slice — the
    #: frontend's latency/throughput knob
    events_per_slice: int = 20_000
    #: simulated seconds of queue wait worth one priority level
    #: (None = no aging, strict priority within a tenant)
    priority_aging_seconds: float | None = 0.05
    #: bounded analyzer profile for the admission gate
    analysis: AnalysisConfig = field(
        default_factory=AnalysisConfig.admission_profile
    )

    def __post_init__(self) -> None:
        if self.nodes < 1 or self.cores_per_node < 1:
            raise ValueError("service cluster needs >= 1 node and core")
        if self.flops_per_core <= 0:
            raise ValueError("flops_per_core must be positive")
        if self.max_running_jobs < 1:
            raise ValueError("max_running_jobs must be >= 1")
        if self.events_per_slice < 1:
            raise ValueError("events_per_slice must be >= 1")
        if not self.tenants:
            raise ValueError("a service needs at least one tenant")
        names = [t.name for t in self.tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tenant names in {names!r}")

    def to_dict(self) -> dict:
        return {
            "nodes": self.nodes,
            "cores_per_node": self.cores_per_node,
            "flops_per_core": self.flops_per_core,
            "tenants": [t.to_dict() for t in self.tenants],
            "max_running_jobs": self.max_running_jobs,
            "events_per_slice": self.events_per_slice,
            "priority_aging_seconds": self.priority_aging_seconds,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ServiceConfig":
        kwargs: dict[str, Any] = {}
        for key in (
            "nodes",
            "cores_per_node",
            "max_running_jobs",
            "events_per_slice",
        ):
            if key in data:
                kwargs[key] = int(data[key])
        if "flops_per_core" in data:
            kwargs["flops_per_core"] = float(data["flops_per_core"])
        if "priority_aging_seconds" in data:
            raw = data["priority_aging_seconds"]
            kwargs["priority_aging_seconds"] = (
                None if raw is None else float(raw)
            )
        if "tenants" in data:
            kwargs["tenants"] = tuple(
                TenantConfig.from_dict(t) for t in data["tenants"]
            )
        return cls(**kwargs)


#: memo key of an admission report: the registered builder object, the
#: params as canonical JSON text, the fields of the ``AnalysisConfig``
_ReportKey = tuple[Callable[[dict], TaskProgram], str, tuple]


@dataclass
class _RunningJob:
    """Book-keeping for one job currently on the cluster."""

    record: JobRecord
    runtime: AllScaleRuntime
    future: Any
    program: TaskProgram
    estimate: float
    context: JobContext


class ServiceCore:
    """Multi-tenant job service over one shared simulated cluster."""

    def __init__(self, config: ServiceConfig | None = None) -> None:
        self.config = config or ServiceConfig()
        self.cluster = Cluster(
            ClusterSpec(
                num_nodes=self.config.nodes,
                cores_per_node=self.config.cores_per_node,
                flops_per_core=self.config.flops_per_core,
            )
        )
        self.engine = self.cluster.engine
        self.metrics = self.cluster.metrics
        self.fairshare = FairShareScheduler(
            aging_seconds=self.config.priority_aging_seconds
        )
        self.ledgers: dict[str, TenantLedger] = {}
        for tenant in self.config.tenants:
            self.fairshare.register_tenant(tenant.name, tenant.weight)
            self.ledgers[tenant.name] = TenantLedger(tenant)
        self.jobs: dict[str, JobRecord] = {}
        self._programs: dict[str, tuple[TaskProgram, float]] = {}
        #: the report of the first program built from each key; one entry
        #: per *distinct* program, each smaller than the ``JobRecord`` the
        #: service keeps per submission
        self._reports: dict[_ReportKey, AnalysisReport] = {}
        self._running: list[_RunningJob] = []
        self._seq = 0
        self.draining = False

    # -- submission (the admission gate) -----------------------------------------

    def submit(self, spec: JobSpec) -> JobRecord:
        """Admit or reject one submission; always returns a record.

        Rejections are structured verdicts, never exceptions: the record
        lands in state ``rejected`` with ``verdict.reason`` saying why,
        and — pinned by the property tests — consumes zero cluster time.
        """
        self._seq += 1
        record = JobRecord(
            job_id=f"job-{self._seq:05d}",
            spec=spec,
            submitted_at=self.engine.now,
            seq=self._seq,
        )
        self.jobs[record.job_id] = record
        self.metrics.incr("service.submitted")
        ledger = self.ledgers.get(spec.tenant)
        if ledger is not None:
            ledger.submitted += 1
        verdict, program = self._admit(spec, ledger)
        record.verdict = verdict
        if not verdict.accepted:
            record.state = JobState.REJECTED
            record.finished_at = self.engine.now
            self.metrics.incr("service.rejected")
            self.metrics.incr(f"service.rejected.{verdict.reason}")
            if ledger is not None:
                ledger.rejected += 1
                self.metrics.incr(f"service.tenant.{spec.tenant}.rejected")
            return record
        self.metrics.incr("service.admitted")
        self.metrics.incr(f"service.tenant.{spec.tenant}.admitted")
        assert ledger is not None and program is not None
        ledger.admitted += 1
        ledger.on_admit(verdict.estimated_node_seconds)
        self._programs[record.job_id] = (
            program,
            verdict.estimated_node_seconds,
        )
        self.fairshare.enqueue(record)
        return record

    def _admit(
        self, spec: JobSpec, ledger: TenantLedger | None
    ) -> tuple[AdmissionVerdict, TaskProgram | None]:
        if self.draining:
            return (
                AdmissionVerdict.refusal(
                    "draining", "service is draining; not accepting new jobs"
                ),
                None,
            )
        if ledger is None:
            known = ", ".join(sorted(self.ledgers))
            return (
                AdmissionVerdict.refusal(
                    "unknown_tenant",
                    f"unknown tenant {spec.tenant!r}; configured: {known}",
                ),
                None,
            )
        # every job is built: it needs its own data items, and the graph
        # that runs is the graph the catalog built for *this* submission
        try:
            builder = kind_builder(spec.kind)
            program = builder(dict(spec.params))
        except KeyError as exc:
            return (
                AdmissionVerdict.refusal("unknown_kind", str(exc.args[0])),
                None,
            )
        except ValueError as exc:
            return AdmissionVerdict.refusal("build_error", str(exc)), None
        report = self._analyze(builder, spec.params, program)
        estimate = program.total_flops() / self.config.flops_per_core
        verdict = AdmissionVerdict.from_report(report, estimate)
        if not verdict.accepted:
            return verdict, None
        refusal = ledger.admission_refusal(estimate)
        if refusal is not None:
            verdict.accepted = False
            verdict.reason = "quota"
            verdict.detail = refusal
            return verdict, None
        # what runs is the program built for this very submission
        return verdict, program

    def _analyze(
        self,
        builder: Callable[[dict], TaskProgram],
        params: Mapping[str, Any],
        program: TaskProgram,
    ) -> AnalysisReport:
        """The analyzer's report on ``program``, computed once per program.

        Builders are pure in their params (:func:`register_kind`), so
        equal (builder, params) build structurally equal programs and
        the analyzer — a function of the declaration alone — reports the
        same findings on each.  Keying on the builder *object*, not the
        kind name, means a re-registered or unregistered kind can never
        be served its predecessor's report.
        """
        try:
            # JSON text tells 1 from 1.0 from true and a list from its repr
            canonical = json.dumps(dict(params), sort_keys=True)
        except (TypeError, ValueError):
            # an in-process embedder passed non-JSON values: no safe key
            return analyze_program(program, self.config.analysis)
        key: _ReportKey = (builder, canonical, astuple(self.config.analysis))
        report = self._reports.get(key)
        if report is None:
            report = self._reports[key] = analyze_program(
                program, self.config.analysis
            )
        return report

    def schedule(self, spec: JobSpec, at: float) -> None:
        """Arrange a future submission at simulated time ``at``.

        Trace replay uses this: arrivals become engine events, so
        :meth:`step` advances simulated time through idle gaps naturally.
        """
        self.engine.schedule_at(at, lambda: self.submit(spec))

    # -- dispatch ----------------------------------------------------------------

    def _dispatch(self) -> int:
        started = 0
        # ``_programs`` holds exactly the admitted-but-not-started jobs:
        # with none, the scheduler's scan over tenants can select nothing
        while (
            self._programs
            and len(self._running) < self.config.max_running_jobs
        ):
            record = self.fairshare.select(
                self.engine.now,
                lambda tenant: self.ledgers[tenant].can_start(),
            )
            if record is None:
                break
            program, estimate = self._programs.pop(record.job_id)
            ledger = self.ledgers[record.spec.tenant]
            self._start(record, program, estimate, ledger)
            started += 1
        return started

    def _start(
        self,
        record: JobRecord,
        program: TaskProgram,
        estimate: float,
        ledger: TenantLedger,
    ) -> None:
        # the job may spend its own reservation plus unreserved headroom,
        # but never another admitted job's reservation
        headroom = ledger.remaining_node_seconds()
        runtime = AllScaleRuntime(
            self.cluster, RuntimeConfig(functional=program.functional)
        )
        context = JobContext(
            runtime,
            node_seconds_cap=(
                None
                if headroom == float("inf")
                else estimate + max(0.0, headroom)
            ),
        )
        runtime.probe.attach(context)
        register_items(runtime, program)
        record.state = JobState.RUNNING
        record.started_at = self.engine.now
        wait = record.started_at - record.submitted_at
        ledger.on_start(estimate, wait)
        self.fairshare.charge(record.spec.tenant, estimate)
        future = self.engine.spawn(self._driver(runtime, program))
        self._running.append(
            _RunningJob(record, runtime, future, program, estimate, context)
        )
        self.metrics.incr("service.dispatched")
        self.metrics.incr(f"service.tenant.{record.spec.tenant}.dispatched")
        self.metrics.observe(
            f"service.tenant.{record.spec.tenant}.queue_wait", wait
        )

    def _driver(
        self, runtime: AllScaleRuntime, program: TaskProgram
    ) -> Generator:
        """Engine process executing one job; returns the job's result."""
        run = yield from run_program(runtime, program)
        sentinel = runtime.probe.observer(RuntimeSentinel)
        if sentinel is not None:
            sentinel.verify_all()
        return run.result

    # -- completion --------------------------------------------------------------

    def _collect(self) -> int:
        for run in self._running:
            if run.future.done:
                break
        else:
            return 0
        finished = 0
        still_running: list[_RunningJob] = []
        for run in self._running:
            if not run.future.done:
                still_running.append(run)
                continue
            record = run.record
            tenant = record.spec.tenant
            ledger = self.ledgers[tenant]
            # the job is over: unsubscribe (a subscriber left on finished
            # runtimes' probes raised an 800-job replay's peak RSS ~1 MB)
            context = run.context
            run.runtime.probe.detach(context)
            actual = context.cpu_seconds
            ledger.on_finish(run.estimate, actual)
            # deficit correction: the dispatch charge used the estimate;
            # settle the difference so long-run shares track actual use
            self.fairshare.charge(tenant, actual - run.estimate)
            record.node_seconds = actual
            record.over_budget = context.over_budget
            if context.over_budget:
                ledger.over_budget_jobs += 1
                self.metrics.incr("service.over_budget")
            record.result = run.future.value
            record.state = JobState.COMPLETED
            record.finished_at = self.engine.now
            for item in run.program.items:
                run.runtime.destroy_item(item)
            self.metrics.incr("service.completed")
            self.metrics.incr(f"service.tenant.{tenant}.completed")
            self.metrics.observe(
                f"service.tenant.{tenant}.node_seconds", actual
            )
            finished += 1
        self._running = still_running
        return finished

    # -- the pump ----------------------------------------------------------------

    @property
    def running_jobs(self) -> int:
        return len(self._running)

    @property
    def idle(self) -> bool:
        """Nothing queued, running, or scheduled to arrive."""
        return (
            not self._running
            and self.fairshare.backlog() == 0
            and self.engine.pending_events == 0
        )

    def step(self, until: float | None = None) -> bool:
        """One bounded slice of service progress; True if anything moved.

        Dispatches what fits, advances the shared engine by at most
        ``events_per_slice`` events (to ``until`` at the latest), then
        collects completions.  The asyncio frontend calls this between
        socket polls; :meth:`run_until_drained` loops it for batch runs.
        """
        progressed = self._dispatch() > 0
        processed = 0
        if self._running or self.engine.pending_events:
            processed = self.engine.run(
                until=until, max_events=self.config.events_per_slice
            )
            if processed:
                progressed = True
        if self._collect() > 0:
            progressed = True
        if self._dispatch() > 0:
            progressed = True
        if (
            until is None
            and processed == 0
            and self._running
            and not progressed
        ):
            raise RuntimeError(
                "service: event queue drained with jobs still running "
                "(lost dependency?)"
            )
        return progressed

    def run_until_drained(self) -> None:
        """Pump until every submitted and scheduled job is terminal.

        What is bounded is *steps that move nothing*, not steps: a
        healthy replay at one event per slice takes hundreds of steps per
        job.  Nothing but an engine event changes what a step sees, so a
        step without progress on a non-idle service will not progress
        next time either — the stall is reported at once, naming what is
        stuck.
        """
        while True:
            if self.step():
                continue
            if self.idle:
                return
            queued = self.fairshare.queued()
            running = [run.record.job_id for run in self._running]
            raise RuntimeError(
                "service did not drain: a step made no progress with "
                f"queued {queued!r}, running {running!r}, "
                f"{self.engine.pending_events} engine event(s) pending"
            )

    def drain(self) -> None:
        """Stop admitting; already-queued jobs still run to completion."""
        self.draining = True
        self.metrics.incr("service.drain_requests")

    # -- elasticity --------------------------------------------------------------

    def add_node(
        self,
        cores: int | None = None,
        flops_per_core: float | None = None,
        memory_bytes: int | None = None,
        gpus: int | None = None,
    ) -> int:
        """Grow the shared cluster by one node and rescale tenant quotas.

        Jobs already running keep their runtime's original process set
        (an AllScale runtime's index geometry is fixed at construction);
        jobs dispatched from here on span the enlarged cluster.
        """
        node_id = self.cluster.add_node(
            cores=cores,
            flops_per_core=flops_per_core,
            memory_bytes=memory_bytes,
            gpus=gpus,
        )
        self.on_capacity_change()
        return node_id

    def on_capacity_change(self) -> None:
        """Recompute metered tenant budgets for the current capacity.

        ``max_node_seconds`` quotas were sized against the configured
        cluster; when capacity changes they scale pro-rata against the
        *original* core count (idempotent — repeated calls do not
        compound).  A shrink never cuts a budget below what a tenant has
        already used plus reserved, so the ledger oversubscription
        invariant keeps holding for in-flight work.
        """
        baseline = self.config.nodes * self.config.cores_per_node
        factor = self.cluster.total_cores() / baseline
        for name, ledger in self.ledgers.items():
            configured = next(
                t for t in self.config.tenants if t.name == name
            )
            if configured.max_node_seconds is None:
                continue
            scaled = max(
                configured.max_node_seconds * factor,
                ledger.used + ledger.reserved,
            )
            ledger.config = replace(
                ledger.config, max_node_seconds=scaled
            )
        self.metrics.incr("service.capacity_changes")
        self.metrics.set("service.total_cores", self.cluster.total_cores())

    # -- introspection -----------------------------------------------------------

    def status(self, job_id: str) -> dict | None:
        record = self.jobs.get(job_id)
        return record.to_status() if record is not None else None

    def result(self, job_id: str) -> dict | None:
        record = self.jobs.get(job_id)
        return record.to_result() if record is not None else None

    def check_invariants(self) -> None:
        """Raise if any tenant ledger broke an accounting invariant."""
        for ledger in self.ledgers.values():
            ledger.check_invariants()

    def fairness_index(self) -> float:
        """Weighted Jain index over per-tenant consumed node-seconds.

        1.0 means every tenant's share exactly matches its weight;
        tenants that consumed nothing (never submitted or all-rejected)
        are excluded so an idle tenant does not read as unfairness.
        """
        normalized = [
            ledger.used / ledger.config.weight
            for ledger in self.ledgers.values()
            if ledger.used > 0.0
        ]
        return jain_fairness(normalized)

    def stats(self) -> dict:
        """JSON-ready service-wide statistics block."""
        total_used = sum(lg.used for lg in self.ledgers.values())
        tenants = []
        for ledger in self.ledgers.values():
            snap = ledger.snapshot()
            snap["observed_share"] = (
                ledger.used / total_used if total_used > 0 else 0.0
            )
            snap["pass"] = self.fairshare.pass_value(ledger.name)
            snap["queued"] = self.fairshare.queue_length(ledger.name)
            tenants.append(snap)
        total_weight = sum(
            lg.config.weight
            for lg in self.ledgers.values()
            if lg.used > 0.0
        )
        for snap in tenants:
            snap["configured_share"] = (
                snap["weight"] / total_weight
                if total_weight > 0 and snap["used_node_seconds"] > 0
                else 0.0
            )
        states: dict[str, int] = {}
        for record in self.jobs.values():
            states[record.state] = states.get(record.state, 0) + 1
        return {
            "time": self.engine.now,
            "draining": self.draining,
            "jobs": len(self.jobs),
            "states": states,
            "running": self.running_jobs,
            "queued": self.fairshare.backlog(),
            "dispatches": self.fairshare.dispatches,
            "total_node_seconds": total_used,
            "fairness_index": self.fairness_index(),
            "tenants": tenants,
        }
