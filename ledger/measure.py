"""The run protocol of one workload, and the metrics derived from it.

End-to-end pass (``trace=False``)::

    set-up (timed, repeated while cheap) -> discarded warm-up at reduced
    size -> timed repetitions -> peak RSS -> untimed verification

The calibration kernel is sampled between the phases of this pass and its
host timings are reported in load-normalised seconds (``calibrate.py``):
the neighbours of this shared box slow a run by up to half for minutes at
a time, and no estimator over one run's repetitions removes that.

Traced pass (``trace=True``) — never mixed with the end-to-end timings::

    set-up -> warm-up -> one untraced repetition -> wrappers installed ->
    one traced repetition -> traced MPI reference -> wrappers removed ->
    untimed verification

Before every repetition the region kernel is reset and the garbage
collector run, as ``repro.bench`` does.  Simulated statistics must be
identical across repetitions and between the traced and the untraced
repetition; a difference is a failed check, not noise.
"""

from __future__ import annotations

import gc
import math
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Any

from repro.analysis import admission
from repro.regions.kernel import get_kernel
from repro.runtime import sentinel

from ledger.calibrate import CHUNKS, SMOKE_CHUNKS, kernel_seconds, normalised
from ledger.tracer import LAYERS, Section, Tracer
from ledger.verify import verify
from ledger.workloads import WORKLOADS, Outcome, Prepared

#: a repetition whose wall/CPU ratio exceeds this was descheduled
DESCHEDULED_RATIO = 1.05
#: set-up is repeated (median reported) until this many seconds or builds
SETUP_REPEAT_BUDGET_S = 1.5
SETUP_REPEAT_MAX = 5
#: repetitions when neither ``--reps`` nor ``--seconds`` is given
DEFAULT_REPS = 3

#: layers whose ``<layer>.calls`` is reported (the rest have no wrapped
#: function that runs per operation, only spawned coroutines)
_CALL_LAYERS = LAYERS[: LAYERS.index("runtime.process") + 1]
#: layers whose self time in the traced repetition is reported: ``mpi`` is
#: idle there (measured in its own section) and ``placement`` runs in set-up
_SELF_TIME_LAYERS = tuple(
    layer for layer in LAYERS if layer not in ("mpi", "placement", "other")
)


@dataclass
class Report:
    """Everything one workload run produced."""

    workload: str
    work_unit: str
    seed: int
    scale: str
    traced: bool
    end_to_end: dict[str, float]
    per_layer: dict[str, float]
    attempted: int
    failed: int
    problems: list[str]
    rep_wall_s: list[float]
    rep_cpu_s: list[float]
    reruns: int
    import_s: float
    build_s: list[float]
    #: calibration kernel samples: before set-up, after set-up, after each
    #: repetition and after verification
    kernel_s: list[float]
    #: coarse spans: (name, start, end) in seconds since process start
    spans: list[tuple[str, float, float]] = field(default_factory=list)
    #: traced sections (rep, mpi_reference) with their cells
    sections: list[Section] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0

    def to_dict(self) -> dict:
        return {
            "workload": self.workload,
            "work_unit": self.work_unit,
            "seed": self.seed,
            "scale": self.scale,
            "traced": self.traced,
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "problems": self.problems,
            "end_to_end": self.end_to_end,
            "per_layer": self.per_layer,
            "samples": {
                "reps": len(self.rep_wall_s),
                "rep_wall_s": self.rep_wall_s,
                "rep_cpu_s": self.rep_cpu_s,
                "descheduled_reruns": self.reruns,
                "import_s": self.import_s,
                "build_s": self.build_s,
                "kernel_s": self.kernel_s,
            },
            "spans": [
                {"name": name, "start": start, "end": end, "parent": "workload"}
                for name, start, end in self.spans
            ],
        }


class _Spans:
    """Coarse spans (workload -> set-up / rep / verify), kept individually."""

    def __init__(self, origin: float) -> None:
        self.origin = origin
        self.spans: list[tuple[str, float, float]] = []

    def record(self, name: str, started: float) -> float:
        """Close the span opened at ``started``; returns its duration."""
        now = time.perf_counter()
        self.spans.append((name, started - self.origin, now - self.origin))
        return now - started


def _repetition(prepared: Prepared) -> tuple[Outcome, float, float]:
    """One repetition: (outcome, wall seconds, CPU seconds)."""
    get_kernel().reset()
    gc.collect()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    outcome = prepared.run()
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    return outcome, wall, cpu


def _sim_drift(reference: Outcome, other: Outcome, label: str) -> list[str]:
    """Names of simulated statistics that differ between two repetitions."""
    a, b = reference.sim_signature(), other.sim_signature()
    differing = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
    if not differing:
        return []
    shown = ", ".join(differing[:6])
    return [f"{label}: simulated statistics differ ({shown})"]


def measure(
    name: str,
    seed: int,
    scale: str,
    *,
    seconds: float | None,
    reps: int | None,
    trace: bool,
    import_s: float,
    origin: float,
) -> Report:
    """Run workload ``name`` through the protocol; see the module doc."""
    workload = WORKLOADS[name]
    spans = _Spans(origin)
    # timed repetitions run without the safety nets, whatever the
    # environment (REPRO_SENTINEL / REPRO_ANALYZE) says
    sentinel.disable_globally()
    admission.disable_globally()

    chunks = SMOKE_CHUNKS if scale == "smoke" else CHUNKS
    # -- set-up: repeated while it is cheap, so the median is not one sample
    build_s: list[float] = []
    kernel_s = [kernel_seconds(chunks)]
    while True:
        started = time.perf_counter()
        prepared = workload.prepare(seed, scale)
        build_s.append(spans.record("setup", started))
        if (
            len(build_s) >= SETUP_REPEAT_MAX
            or sum(build_s) >= SETUP_REPEAT_BUDGET_S
        ):
            break
    kernel_s.append(kernel_seconds(chunks))

    started = time.perf_counter()
    workload.prepare(seed, "warm").run()
    spans.record("warmup", started)

    problems: list[str] = []
    walls: list[float] = []
    cpus: list[float] = []
    reruns = 0
    first: Outcome | None = None
    if reps is None and seconds is None:
        reps = DEFAULT_REPS
    if trace:
        reps = 1  # the untraced reference repetition
    window_started = time.perf_counter()
    while True:
        started = time.perf_counter()
        outcome, wall, cpu = _repetition(prepared)
        if cpu > 0 and wall / cpu > DESCHEDULED_RATIO:
            outcome, wall, cpu = _repetition(prepared)
            reruns += 1
        spans.record("rep", started)
        kernel_s.append(kernel_seconds(chunks))
        walls.append(wall)
        cpus.append(cpu)
        if first is None:
            first = outcome
            # the high-water mark of one repetition: read here, so that it
            # depends neither on how many repetitions fitted the budget nor
            # on verification, whose functional passes allocate real grids
            peak_rss_mb = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            )
        else:
            problems += _sim_drift(first, outcome, f"rep {len(walls)}")
        if reps is not None:
            if len(walls) >= reps:
                break
        elif time.perf_counter() - window_started + wall > seconds:
            break  # the next repetition would not fit the budget

    sections: list[Section] = []
    per_layer: dict[str, float] = {}
    if trace:
        tracer = Tracer()
        tracer.install()
        try:
            get_kernel().reset()
            gc.collect()
            with tracer.section("rep", workload.entry_layer) as rep_section:
                traced_outcome = prepared.run()
            kernel = get_kernel().stats()
            mpi_result = None
            mpi_section = None
            if prepared.mpi is not None:
                with tracer.section("mpi_reference", "apps") as mpi_section:
                    mpi_result = prepared.mpi()
        finally:
            tracer.uninstall()
        sections = tracer.sections
        for section in sections:
            spans.spans.append(
                (section.name, section.start - origin, section.end - origin)
            )
        problems += _sim_drift(outcome, traced_outcome, "traced rep")
        self_sum = sum(rep_section.layer_self().values())
        if abs(self_sum - rep_section.wall) > 0.01 * rep_section.wall:
            problems.append(
                f"layer self times sum to {self_sum:.4f}s, traced wall is "
                f"{rep_section.wall:.4f}s"
            )
        per_layer = per_layer_metrics(
            rep_section,
            mpi_section,
            traced_outcome,
            kernel,
            untraced_wall=walls[-1],
            prepared=prepared,
            mpi_result=mpi_result,
        )
        outcome = traced_outcome

    started = time.perf_counter()
    problems += verify(name, seed, outcome)
    spans.record("verify", started)
    kernel_s.append(kernel_seconds(chunks))

    end_to_end = {
        "setup_s": normalised(import_s + statistics.median(build_s), kernel_s),
        "host_wall_s": normalised(statistics.median(walls), kernel_s),
        "host_peak_rss_mb": peak_rss_mb,
        "sim_elapsed_s": outcome.sim_elapsed,
        "sim_throughput": outcome.work / outcome.sim_elapsed,
        "sim_net_messages": outcome.counters.get("net.messages", 0.0),
        "sim_net_bytes": outcome.counters.get("net.bytes", 0.0),
    }
    return Report(
        workload=name,
        work_unit=workload.work_unit,
        seed=seed,
        scale=scale,
        traced=trace,
        end_to_end=end_to_end,
        per_layer=per_layer,
        attempted=outcome.attempted * len(walls),
        failed=outcome.failed * len(walls) + len(problems),
        problems=problems,
        rep_wall_s=walls,
        rep_cpu_s=cpus,
        reruns=reruns,
        import_s=import_s,
        build_s=build_s,
        kernel_s=kernel_s,
        spans=spans.spans,
        sections=sections,
    )


# -- per-layer metrics ----------------------------------------------------------------


def _share(part: float, rest: float) -> float:
    """part / (part + rest), 0 when the layer saw no operation at all."""
    total = part + rest
    return part / total if total else 0.0


def _stat_total(counters: dict[str, float], stat: str) -> float:
    """Sum of a ``Stat`` (snapshot publishes its mean and count)."""
    return counters.get(f"{stat}.mean", 0.0) * counters.get(f"{stat}.count", 0.0)


def _percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (0 when empty)."""
    if not ordered:
        return 0.0
    return ordered[max(1, math.ceil(len(ordered) * q)) - 1]


def per_layer_metrics(
    rep: Section,
    mpi: Section | None,
    outcome: Outcome,
    kernel: dict[str, float],
    *,
    untraced_wall: float,
    prepared: Prepared,
    mpi_result: Any,
) -> dict[str, float]:
    """Every ``per_layer`` metric of BENCHMARK.json for one traced pass.

    Host self times and call counts come from the traced repetition's
    cells; everything else is a public counter of the program read after
    the run (``MetricRegistry.snapshot()``, the region kernel's stats,
    the indexes' ``lookups``/``lookup_hops``/``cache_*`` attributes, the
    placement plan, the service's job records).
    """
    c = outcome.counters
    self_s = rep.layer_self()
    calls = rep.layer_calls()
    out: dict[str, float] = {}
    for layer in _SELF_TIME_LAYERS:
        out[f"{layer}.host_self_s"] = self_s[layer]
    for layer in _CALL_LAYERS:
        out[f"{layer}.calls"] = float(calls[layer])

    out["sim.engine.events"] = float(outcome.events)
    out["sim.engine.events_per_host_s"] = outcome.events / untraced_wall
    out["sim.engine.compactions"] = float(outcome.compactions)
    out["sim.network.send_queue_wait_s"] = _stat_total(c, "net.send_queue_wait")
    bulk = c.get("net.bulk_messages", 0.0)
    out["sim.network.bulk_parts_per_message"] = (
        c.get("net.bulk_parts", 0.0) / bulk if bulk else 0.0
    )
    out["sim.node.tasks_executed"] = c.get("node.tasks_executed", 0.0)
    out["sim.node.queue_wait_s"] = _stat_total(c, "node.queue_wait")

    out["regions.cache_hit_share"] = _share(
        kernel.get("region.cache_hits", 0), kernel.get("region.cache_misses", 0)
    )
    out["regions.interned"] = float(kernel.get("region.interned", 0))

    indexes = rep.instances.get("HierarchicalIndex", [])
    lookups = sum(index.lookups for index in indexes)
    out["runtime.index.lookups"] = float(lookups)
    out["runtime.index.updates"] = float(
        sum(index.update_messages for index in indexes)
    )
    out["runtime.index.hops_per_lookup"] = (
        sum(index.lookup_hops for index in indexes) / lookups if lookups else 0.0
    )
    out["runtime.index.cache_hit_share"] = _share(
        sum(index.cache_hits for index in indexes),
        sum(index.cache_misses for index in indexes),
    )

    out["runtime.scheduler.local_share"] = _share(
        c.get("sched.local_dispatch", 0.0), c.get("sched.remote_dispatch", 0.0)
    )
    out["runtime.data_manager.migrated_bytes"] = c.get("dm.migrated_bytes", 0.0)
    out["runtime.data_manager.replicated_bytes"] = c.get(
        "dm.replicated_bytes", 0.0
    )
    out["runtime.data_manager.invalidations"] = c.get("dm.invalidations", 0.0)
    out["runtime.data_manager.read_escalations"] = c.get(
        "dm.read_escalations", 0.0
    )
    out["runtime.locks.lock_waits"] = c.get("proc.lock_waits", 0.0)
    out["runtime.transfers.replica_hit_share"] = _share(
        c.get("comms.replica_hits", 0.0), c.get("comms.replica_misses", 0.0)
    )
    out["runtime.transfers.refetched_bytes"] = c.get("comms.refetched_bytes", 0.0)
    planned = c.get("comms.planned_bytes", 0.0)
    out["runtime.transfers.moved_over_planned"] = (
        c.get("comms.moved_bytes", 0.0) / planned if planned else 0.0
    )
    out["runtime.process.leaves"] = c.get("proc.leaves", 0.0)
    out["runtime.process.splits"] = c.get("proc.splits", 0.0)
    out["runtime.process.restages"] = c.get("proc.restages", 0.0)
    out["runtime.balancer.migrations"] = c.get("balancer.migrations", 0.0)
    out["runtime.elastic.churn_events"] = c.get("elastic.churn_events", 0.0)
    out["runtime.elastic.evacuated_bytes"] = c.get("elastic.evacuated_bytes", 0.0)
    out["runtime.elastic.restored_bytes"] = c.get("elastic.restored_bytes", 0.0)
    out["runtime.elastic.recovery_s"] = _stat_total(c, "elastic.recovery_time")
    out["runtime.resilience.checkpoints"] = c.get("resilience.checkpoints", 0.0)

    plan = prepared.plan
    out["placement.plan_host_s"] = prepared.plan_host_s
    out["placement.pinned_tasks"] = float(len(plan.pins)) if plan else 0.0
    out["placement.preplaced_items"] = c.get("placement.preplaced_items", 0.0)

    out["analysis.submissions"] = float(
        sum(
            cell[0]
            for (_layer, function, _parent), cell in rep.cells.items()
            if function in ("analyze_program", "extract_program")
        )
    )
    out["analysis.tasks_expanded"] = rep.observed.get(
        "analysis.tasks_expanded", 0.0
    )

    out["service.dispatches"] = c.get("service.dispatched", 0.0)
    out["service.rejected"] = c.get("service.rejected", 0.0)
    waits = [
        name[: -len(".mean")]
        for name in c
        if name.startswith("service.tenant.") and name.endswith(".queue_wait.mean")
    ]
    waited = sum(c[f"{stat}.count"] for stat in waits)
    out["service.queue_wait_mean_s"] = (
        sum(_stat_total(c, stat) for stat in waits) / waited if waited else 0.0
    )
    report = outcome.extras.get("report")
    out["service.fairness_index"] = report["fairness_index"] if report else 0.0
    turnarounds = outcome.extras.get("turnarounds", [])
    out["service.turnaround_p50_s"] = _percentile(turnarounds, 0.50)
    out["service.turnaround_p95_s"] = _percentile(turnarounds, 0.95)

    out["mpi.host_self_s"] = mpi.layer_self()["mpi"] if mpi else 0.0
    out["mpi.sim_elapsed_s"] = mpi_result.elapsed if mpi_result else 0.0
    out["mpi.as_over_mpi"] = (
        (outcome.work / outcome.sim_elapsed) / mpi_result.throughput
        if mpi_result
        else 0.0
    )

    out["trace_wall_s"] = rep.wall
    out["trace_overhead_share"] = rep.wall / untraced_wall - 1.0
    out["trace_unattributed_share"] = self_s["other"] / rep.wall
    return out
