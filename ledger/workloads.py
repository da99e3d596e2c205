"""The seven ledger workloads: inputs, set-up, and one repetition each.

Every workload is a function ``prepare(seed, scale) -> Prepared`` that
does the *set-up* work (cluster spec, workload dataclass, ``make_problem``,
arrival-trace generation, ``plan_placement``, the churn calibration run)
and returns closures for one repetition and, where the paper has one, the
MPI reference.  Inputs are pure functions of ``seed``; the program only
ever sees the generated inputs, never the seed's purpose.

Three sizes exist per workload: ``full`` (the frozen sizes the regression
bounds refer to), ``smoke`` (``check.sh``, a few seconds for all seven)
and ``warm`` (the discarded warm-up repetition).  The sizes are a property
of the benchmark, not of the program — nothing under ``src/`` knows them.

Only public entry points of ``repro`` are used.  The churn schedule
re-states ``storm2xr2`` of ``repro.bench.churn`` (two join/drain cycles
plus one two-node storm) from :class:`~repro.runtime.elastic.ChurnEvent`
because that module keeps its schedule builder private.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable

from repro.apps.common import AppResult
from repro.apps.ipic3d import (
    IPic3DWorkload,
    ipic3d_allscale,
    ipic3d_mpi,
    ipic3d_program,
)
from repro.apps.stencil import StencilWorkload, stencil_allscale, stencil_mpi
from repro.apps.tpc import TPCWorkload, make_problem, tpc_allscale, tpc_mpi
from repro.placement import PlannedPolicy, plan_placement
from repro.runtime.config import RuntimeConfig
from repro.runtime.elastic import ChurnController, ChurnEvent
from repro.runtime.policies import RoundRobinPolicy
from repro.service.core import ServiceConfig, ServiceCore
from repro.service.jobs import JobSpec, JobState
from repro.service.quotas import TenantConfig
from repro.service.trace import Trace, TraceEvent, replay
from repro.sim.cluster import Cluster, ClusterSpec, meggie_like_spec

@dataclass
class Outcome:
    """One repetition's observable results, in one shape for all workloads."""

    #: simulated seconds of the measured phase (service: makespan)
    sim_elapsed: float
    #: work units completed (FLOPs, particle updates, queries, jobs)
    work: float
    #: operations attempted (leaf tasks, or jobs) and how many failed
    attempted: int
    failed: int
    #: ``MetricRegistry.snapshot()`` of the run's cluster
    counters: dict[str, float]
    #: engine events processed / tombstone compactions
    events: int
    compactions: int
    #: workload-specific objects the verifier inspects (runtime, core, ...)
    extras: dict[str, Any] = field(default_factory=dict)

    def sim_signature(self) -> dict[str, float]:
        """Every simulated statistic; must be identical across repetitions."""
        out = {
            name: value
            for name, value in self.counters.items()
            # the admission controller accumulates *host* seconds there
            if name != "analysis.elapsed"
        }
        out["sim_elapsed"] = self.sim_elapsed
        out["work"] = self.work
        out["events"] = float(self.events)
        out["attempted"] = float(self.attempted)
        out["failed"] = float(self.failed)
        return out


@dataclass
class Prepared:
    """A set-up workload: everything a timed repetition needs."""

    run: Callable[[], Outcome]
    #: the MPI port on the same cluster spec (None where the paper has none)
    mpi: Callable[[], AppResult] | None = None
    #: offline placement plan and the host seconds it took (planned only)
    plan: Any = None
    plan_host_s: float = 0.0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: unit of ``Outcome.work`` (numerator of ``sim_throughput``)
    work_unit: str
    prepare: Callable[[int, str], Prepared]
    #: layer owning the entry point a repetition calls: whatever runs
    #: directly under it, inside no traced function, is charged there
    entry_layer: str = "apps"


# -- shared helpers -----------------------------------------------------------------


def tournament_spec(nodes: int, radix: int) -> ClusterSpec:
    """The placement tournament's cluster shape (4 cores per node)."""
    return replace(
        meggie_like_spec(nodes), switch_radix=radix, cores_per_node=4
    )


def _app_outcome(result: AppResult, **extras: Any) -> Outcome:
    runtime = result.extras["runtime"]
    counters = runtime.metrics.snapshot()
    return Outcome(
        sim_elapsed=result.elapsed,
        work=result.work,
        attempted=int(counters.get("proc.leaves", 0.0)),
        failed=0,
        counters=counters,
        events=runtime.engine.events_processed,
        compactions=runtime.engine.compactions,
        extras={"result": result, "runtime": runtime, **extras},
    )


# -- stencil_w16 ----------------------------------------------------------------------

_STENCIL_W16 = {
    "full": dict(nodes=16, n_per_node=20_000, timesteps=6),
    "smoke": dict(nodes=4, n_per_node=4_000, timesteps=2),
    "warm": dict(nodes=2, n_per_node=2_000, timesteps=1),
}


def _prepare_stencil_w16(seed: int, scale: str) -> Prepared:
    # no randomness anywhere on this path: the seed is accepted and unused
    size = _STENCIL_W16[scale]
    nodes = size["nodes"]
    workload = StencilWorkload(
        n_per_node=size["n_per_node"], timesteps=size["timesteps"]
    )
    config = RuntimeConfig(functional=False, oversubscription=2)

    def run() -> Outcome:
        return _app_outcome(
            stencil_allscale(Cluster(meggie_like_spec(nodes)), workload, config),
            workload=workload,
        )

    return Prepared(
        run=run,
        mpi=lambda: stencil_mpi(Cluster(meggie_like_spec(nodes)), workload),
    )


# -- tpc_w32 / tpc_coalesced_w32 ---------------------------------------------------

_TPC_W32 = {
    "full": dict(
        nodes=32, total_points=2**29, depth=16, height=9, queries=1152
    ),
    "smoke": dict(
        nodes=8, total_points=2**24, depth=12, height=7, queries=96
    ),
    "warm": dict(nodes=4, total_points=2**20, depth=10, height=6, queries=32),
}


def tpc_workload(seed: int, scale: str) -> tuple[TPCWorkload, int]:
    size = _TPC_W32[scale]
    workload = TPCWorkload(
        total_points=size["total_points"],
        depth=size["depth"],
        task_subtree_height=size["height"],
        queries_total=size["queries"],
        visit_flops=150.0,
        point_flops=30.0,
        seed=seed,
    )
    return workload, size["nodes"]


def _prepare_tpc(config: RuntimeConfig) -> Callable[[int, str], Prepared]:
    def prepare(seed: int, scale: str) -> Prepared:
        workload, nodes = tpc_workload(seed, scale)
        problem = make_problem(workload, nodes)

        def run() -> Outcome:
            return _app_outcome(
                tpc_allscale(
                    Cluster(meggie_like_spec(nodes)),
                    workload,
                    config,
                    problem=problem,
                ),
                workload=workload,
            )

        return Prepared(
            run=run,
            mpi=lambda: tpc_mpi(
                Cluster(meggie_like_spec(nodes)), workload, problem=problem
            ),
        )

    return prepare


# -- ipic3d_planned_w16 ------------------------------------------------------------

_IPIC3D_W16 = {
    "full": dict(nodes=16, radix=4, side=8, timesteps=8),
    "smoke": dict(nodes=4, radix=4, side=6, timesteps=2),
    "warm": dict(nodes=2, radix=4, side=4, timesteps=1),
}


def _prepare_ipic3d_planned(seed: int, scale: str) -> Prepared:
    # deterministic inputs: the seed is accepted and unused
    size = _IPIC3D_W16[scale]
    nodes = size["nodes"]
    spec = tournament_spec(nodes, size["radix"])
    workload = IPic3DWorkload(
        particles_per_node=24_000_000,
        cells_per_node_side=size["side"],
        timesteps=size["timesteps"],
    )
    config = RuntimeConfig(
        functional=False,
        oversubscription=2,
        load_balancing=True,
        balancer_interval=20.0,
    )
    started = time.perf_counter()
    plan = plan_placement(
        ipic3d_program(workload, nodes, cores_per_node=spec.cores_per_node),
        Cluster(spec),
    )
    plan_host_s = time.perf_counter() - started

    def run() -> Outcome:
        return _app_outcome(
            ipic3d_allscale(
                Cluster(spec), workload, config, PlannedPolicy(plan)
            ),
            workload=workload,
        )

    return Prepared(
        run=run,
        mpi=lambda: ipic3d_mpi(Cluster(spec), workload),
        plan=plan,
        plan_host_s=plan_host_s,
    )


# -- shipping_w8 ----------------------------------------------------------------------

_SHIPPING_W8 = {
    "full": dict(nodes=8, n_per_node=2_000, timesteps=3),
    "smoke": dict(nodes=4, n_per_node=1_000, timesteps=2),
    "warm": dict(nodes=2, n_per_node=500, timesteps=1),
}


def _prepare_shipping(seed: int, scale: str) -> Prepared:
    # round-robin placement carries no random state: seed unused
    size = _SHIPPING_W8[scale]
    spec = tournament_spec(size["nodes"], 2)
    workload = StencilWorkload(
        n_per_node=size["n_per_node"], timesteps=size["timesteps"]
    )
    config = RuntimeConfig(
        functional=False,
        oversubscription=2,
        load_balancing=True,
        balancer_interval=2e-4,
    )

    def run() -> Outcome:
        return _app_outcome(
            stencil_allscale(
                Cluster(spec), workload, config, RoundRobinPolicy()
            ),
            workload=workload,
        )

    return Prepared(run=run)


# -- service_mix ----------------------------------------------------------------------

#: offered load, jobs per simulated second.  Frozen after sweeping
#: 200..1000 with per-event pumping: the 4x4 cluster drains this mix at
#: about 1080 jobs/s, 600 keeps it a little over half busy with the
#: makespan within 1.01x of the last arrival (README, sizing evidence)
SERVICE_RATE = 600.0

#: the in-process pump dispatches and collects only between engine
#: slices.  With the default 20,000-event slice every arrival of the trace
#: is admitted before the first job starts, and "latency from scheduled
#: arrival" measures the slice, not the scheduler; one event per slice
#: makes the replay a real open loop on the simulated clock
SERVICE_EVENTS_PER_SLICE = 1

_SERVICE_JOBS = {"full": 800, "smoke": 60, "warm": 24}

#: kind -> share of the mix; ``bad_overlap`` is racy on purpose and must
#: be rejected by admission every time
SERVICE_MIX = (
    ("compute", 0.40),
    ("grid_sum", 0.20),
    ("stencil", 0.20),
    ("queries", 0.10),
    ("particles", 0.07),
    ("bad_overlap", 0.03),
)

_TENANT_WEIGHTS = (("alpha", 3), ("beta", 2), ("gamma", 1))


def _apportion(total: int, shares: list[float]) -> list[int]:
    """Largest-remainder split of ``total`` by ``shares`` (sums exactly)."""
    scale = total / sum(shares)
    counts = [int(share * scale) for share in shares]
    by_remainder = sorted(
        range(len(shares)),
        key=lambda i: (counts[i] - shares[i] * scale, i),
    )
    for i in by_remainder[: total - sum(counts)]:
        counts[i] += 1
    return counts


def service_trace(seed: int, jobs: int, rate: float = SERVICE_RATE) -> Trace:
    """The seeded open-loop arrival trace (a pure function of its arguments).

    Arrivals are a Poisson process of ``rate`` jobs per simulated second
    conditioned on exactly ``jobs`` arrivals in ``jobs / rate`` seconds
    (sorted uniforms), and kinds/tenants are exact-proportion shuffles —
    so the offered load is the same for every seed and only the arrival
    pattern and interleaving vary.
    """
    rng = random.Random(seed)
    horizon = jobs / rate
    arrivals = sorted(rng.uniform(0.0, horizon) for _ in range(jobs))
    kinds = [
        kind
        for (kind, _), count in zip(
            SERVICE_MIX, _apportion(jobs, [s for _, s in SERVICE_MIX])
        )
        for _ in range(count)
    ]
    tenants = [
        tenant
        for (tenant, _), count in zip(
            _TENANT_WEIGHTS,
            _apportion(jobs, [float(w) for _, w in _TENANT_WEIGHTS]),
        )
        for _ in range(count)
    ]
    rng.shuffle(kinds)
    rng.shuffle(tenants)
    config = ServiceConfig(
        nodes=4,
        cores_per_node=4,
        tenants=tuple(
            TenantConfig(name, weight=float(weight))
            for name, weight in _TENANT_WEIGHTS
        ),
        max_running_jobs=6,
        events_per_slice=SERVICE_EVENTS_PER_SLICE,
    )
    events = [
        TraceEvent(at, JobSpec(tenant=tenant, kind=kind))
        for at, tenant, kind in zip(arrivals, tenants, kinds)
    ]
    return Trace(config=config, events=events)


def _service_outcome(trace: Trace) -> Outcome:
    core = ServiceCore(trace.config)
    report = replay(trace, core)
    failed = 0
    turnarounds: list[float] = []
    for record in core.jobs.values():
        racy = record.spec.kind == "bad_overlap"
        if racy:
            # correct handling of a racy job is a rejection by analysis
            rejected = record.state == JobState.REJECTED
            if not (rejected and record.verdict.reason == "analysis"):
                failed += 1
        elif record.state != JobState.COMPLETED:
            failed += 1
        else:
            turnarounds.append(record.finished_at - record.submitted_at)
    return Outcome(
        sim_elapsed=report["makespan"],
        work=float(len(turnarounds)),
        attempted=len(core.jobs),
        failed=failed,
        counters=core.metrics.snapshot(),
        events=core.engine.events_processed,
        compactions=core.engine.compactions,
        extras={
            "core": core,
            "report": report,
            "trace": trace,
            "turnarounds": sorted(turnarounds),
        },
    )


def _prepare_service(seed: int, scale: str) -> Prepared:
    trace = service_trace(seed, _SERVICE_JOBS[scale])
    return Prepared(run=lambda: _service_outcome(trace))


# -- churn_w6 -------------------------------------------------------------------------

_CHURN_W6 = {
    "full": dict(nodes=6, n_per_node=3_000, timesteps=12),
    "smoke": dict(nodes=4, n_per_node=2_000, timesteps=4),
    "warm": dict(nodes=3, n_per_node=1_000, timesteps=4),
}


def storm_schedule(total: float, rate: int = 2, storm: int = 2) -> list[ChurnEvent]:
    """``storm<storm>xr<rate>``: join/drain cycles plus one correlated loss,
    placed relative to an unchurned run's simulated duration ``total``."""
    events: list[ChurnEvent] = []
    for k in range(rate):
        base = total * (0.2 + 0.5 * k / rate)
        events.append(ChurnEvent(at=base, kind="join"))
        events.append(ChurnEvent(at=base + total * 0.1, kind="drain"))
    events.append(ChurnEvent(at=total * 0.75, kind="storm", count=storm))
    return events


def _prepare_churn(seed: int, scale: str) -> Prepared:
    # the schedule is a function of the calibration run only: seed unused
    size = _CHURN_W6[scale]
    nodes = size["nodes"]
    workload = StencilWorkload(
        n_per_node=size["n_per_node"], timesteps=size["timesteps"]
    )
    config = RuntimeConfig(functional=False, oversubscription=2)
    # calibration: the unchurned run's duration fixes the schedule clock
    calibration = stencil_allscale(
        Cluster(meggie_like_spec(nodes)), workload, config
    )
    schedule = storm_schedule(calibration.extras["runtime"].now)

    def run() -> Outcome:
        captured: dict[str, ChurnController] = {}

        def on_runtime(runtime) -> None:
            controller = ChurnController(runtime, events=list(schedule))
            captured["controller"] = controller
            controller.start()

        result = stencil_allscale(
            Cluster(meggie_like_spec(nodes)),
            workload,
            config,
            on_runtime=on_runtime,
        )
        outcome = _app_outcome(
            result, workload=workload, controller=captured["controller"]
        )
        if not captured["controller"].done:
            # the run ended with membership changes still pending: every
            # task scheduled after them was never exercised under churn
            outcome.failed = outcome.attempted
        return outcome

    return Prepared(run=run)


# -- registry -------------------------------------------------------------------------

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "stencil_w16",
            "Fig. 7 left at 16 nodes: read-mostly steady state, few large "
            "box regions, every region op a kernel cache hit",
            "FLOP",
            _prepare_stencil_w16,
        ),
        Workload(
            "tpc_w32",
            "Fig. 7 right at 32 nodes: latency-bound small tasks, tree "
            "regions, multi-hop index lookups, remote dispatch",
            "queries",
            _prepare_tpc(RuntimeConfig(functional=False)),
        ),
        Workload(
            "tpc_coalesced_w32",
            "same TPC problem with coalescing, prefetch and index caching "
            "on: decides the comms flags",
            "queries",
            _prepare_tpc(
                RuntimeConfig(
                    functional=False,
                    comm_coalescing=True,
                    replica_prefetch=True,
                    index_caching=True,
                )
            ),
        ),
        Workload(
            "ipic3d_planned_w16",
            "four 3-D items on a radix-4 tree under an offline placement "
            "plan: multi-item locks, staging, planner path",
            "particle_updates",
            _prepare_ipic3d_planned,
        ),
        Workload(
            "shipping_w8",
            "round-robin placement plus balancer on a deep tree: ownership "
            "migration, invalidation, fragmented boxes that miss the cache",
            "FLOP",
            _prepare_shipping,
        ),
        Workload(
            "service_mix",
            "800 short multi-tenant jobs through admission analysis: "
            "runtime construction and teardown, not steady state",
            "jobs",
            _prepare_service,
            entry_layer="service",
        ),
        Workload(
            "churn_w6",
            "stencil under two join/drain cycles and a two-node storm: "
            "elastic membership, checkpoint recovery, evacuation",
            "FLOP",
            _prepare_churn,
        ),
    )
}
