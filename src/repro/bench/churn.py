"""The ``--churn`` panel: elasticity under node churn as a pinned artifact.

Each cell runs one application (stencil / iPiC3D / TPC) on a cluster
whose membership changes *mid-run* through
:class:`~repro.runtime.elastic.ChurnController`:

* ``baseline`` — no churn (the static reference the others perturb);
* ``scale_out`` — nodes join mid-run, ownership shares migrate to them;
* ``drain`` — a node leaves gracefully, evacuating tasks and data;
* ``storm<S>xr<R>`` — the churn-rate × storm-size grid: ``R``
  join/drain cycles spread over the run plus one correlated failure of
  ``S`` nodes recovered from a checkpoint.

Every simulated quantity a cell reports (elapsed seconds, churn event
counts, evacuated/restored bytes, forwarded tasks, recovery time) is
deterministic, so :mod:`repro.bench.panel`'s ``--check`` demands exact
equality against the committed ``BENCH_churn_baseline.json`` — any
drift is a behaviour change.

The panel is sentinel-aware: run under ``REPRO_SENTINEL=1`` the runtimes
attach strict invariant sentinels, the panel records their violation
counts, and :func:`semantic_problems` rejects a baseline write with any
violation — the CI job pins "zero sentinel violations across the whole
churn sweep" as a hard gate.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.apps.ipic3d import IPic3DWorkload, ipic3d_allscale
from repro.apps.stencil import StencilWorkload, stencil_allscale
from repro.apps.tpc import TPCWorkload, tpc_allscale
from repro.bench.panel import Panel
from repro.runtime.config import RuntimeConfig
from repro.runtime.elastic import ChurnController, ChurnEvent
from repro.runtime.sentinel import RuntimeSentinel
from repro.sim.cluster import Cluster, meggie_like_spec

#: metrics every cell snapshots (exact simulated values)
_PINNED_METRICS = (
    "elastic.churn_events",
    "elastic.joins",
    "elastic.drains",
    "elastic.failures",
    "elastic.evacuated_bytes",
    "elastic.evacuated_tasks",
    "elastic.join_migrated_bytes",
    "elastic.restored_bytes",
    "elastic.recovery_time.mean",
    "dm.dead_letter_payloads",
    # bytes copied between processes: a drain or join that splits
    # co-located items (a stencil's A and B) shows here in every cell
    "dm.replicated_bytes",
    # ROADMAP item 1(iv): survivors read rows recovery has not restored
    "dm.uninitialized_reads",
)


def _grid(mode: str) -> tuple[int, list[tuple[int, int]]]:
    """(start nodes, [(churn rate, storm size), ...]) per mode."""
    if mode == "smoke":
        return 3, [(1, 1)]
    if mode == "quick":
        return 4, [(1, 1), (2, 1)]
    return 6, [(1, 1), (1, 2), (2, 1), (2, 2)]


def _workloads(mode: str) -> dict:
    reduced = mode != "full"
    return {
        "stencil": StencilWorkload(
            n_per_node=2_000 if reduced else 3_000,
            timesteps=4 if reduced else 6,
            functional=False,
        ),
        "ipic3d": IPic3DWorkload(
            particles_per_node=48_000_000,
            cells_per_node_side=6 if reduced else 8,
            timesteps=3 if reduced else 4,
        ),
        "tpc": TPCWorkload(
            total_points=2**24,
            depth=12,
            queries_total=64 if reduced else 128,
            functional=False,
            visit_flops=150.0,
            point_flops=30.0,
            task_subtree_height=7,
            submission_waves=4,
        ),
    }


_RUNNERS = {
    "stencil": stencil_allscale,
    "ipic3d": ipic3d_allscale,
    "tpc": tpc_allscale,
}


def _runtime_config() -> RuntimeConfig:
    return RuntimeConfig(functional=False, oversubscription=2)


@dataclass
class ChurnCell:
    """One (app, scenario) run with its pinned simulated outcomes."""

    app: str
    scenario: str
    sim_elapsed: float
    metrics: dict[str, float]
    #: membership log length (joins+drains+storm victims applied)
    membership_changes: int
    final_processes: int
    sentinel_violations: int | None
    #: simulated times at which storm victims failed (not pinned)
    storm_failures: tuple[float, ...] = ()
    #: simulated time the program's last task finished (not pinned)
    program_end: float = 0.0


@dataclass
class ChurnPanel:
    mode: str
    start_nodes: int
    cells: list[ChurnCell] = field(default_factory=list)
    wall_seconds: dict[str, float] = field(default_factory=dict)
    #: whether the strict sentinel was attached during this sweep
    sentinel_attached: bool = False

    @property
    def wall_total(self) -> float:
        return sum(self.wall_seconds.values())


def _schedule(
    scenario: str, total: float, rate: int, storm: int
) -> list[ChurnEvent]:
    """Deterministic event schedule for one scenario, sized to a
    baseline run's total simulated duration ``total``."""
    if scenario == "baseline":
        return []
    if scenario == "scale_out":
        return [
            ChurnEvent(at=total * 0.30, kind="join"),
            ChurnEvent(at=total * 0.55, kind="join", flops_per_core=4.8e9),
        ]
    if scenario == "drain":
        return [ChurnEvent(at=total * 0.35, kind="drain")]
    # storm grid: `rate` join/drain cycles spread over the run plus one
    # correlated loss of `storm` nodes recovered mid-run
    events: list[ChurnEvent] = []
    for k in range(rate):
        base = total * (0.2 + 0.5 * k / max(1, rate))
        events.append(ChurnEvent(at=base, kind="join"))
        events.append(ChurnEvent(at=base + total * 0.1, kind="drain"))
    events.append(ChurnEvent(at=total * 0.75, kind="storm", count=storm))
    return events


class _Clock:
    """Probe subscriber timing a cell: when each process failed and when
    the program's last task finished."""

    def __init__(self, runtime) -> None:
        self.runtime = runtime
        self.failed_at: dict[int, float] = {}
        self.last_finish = 0.0

    def on_process_failed(self, pid: int) -> None:
        self.failed_at[pid] = self.runtime.now

    def on_task_finish(self, task, treeture, pid: int, now: float) -> None:
        self.last_finish = now


def _run_cell(app: str, workload, nodes: int, events: list[ChurnEvent]):
    """One app run with a churn schedule attached; returns (cell data)."""
    captured: dict = {}

    def on_runtime(runtime) -> None:
        captured["runtime"] = runtime
        runtime.probe.attach(_Clock(runtime))
        if events:
            controller = ChurnController(runtime, events=list(events))
            captured["controller"] = controller
            controller.start()

    result = _RUNNERS[app](
        Cluster(meggie_like_spec(nodes)),
        workload,
        _runtime_config(),
        on_runtime=on_runtime,
    )
    runtime = captured["runtime"]
    controller = captured.get("controller")
    if controller is not None and not controller.done:
        raise RuntimeError(
            f"{app}: churn schedule did not complete within the run"
        )
    snapshot = runtime.metrics.snapshot()
    runtime.check_ownership_invariants()
    violations = None
    sentinel = runtime.probe.observer(RuntimeSentinel)
    if sentinel is not None:
        sentinel.verify_all()
        violations = len(sentinel.violations)
    return result, runtime, controller, snapshot, violations


def churn_panel(mode: str) -> ChurnPanel:
    """Run the full churn sweep: every app × every scenario."""
    nodes, grid = _grid(mode)
    workloads = _workloads(mode)
    panel = ChurnPanel(mode=mode, start_nodes=nodes)
    for app, workload in workloads.items():
        started = time.perf_counter()
        # the baseline run calibrates the schedule clock for the rest
        result, runtime, _ctrl, snapshot, violations = _run_cell(
            app, workload, nodes, []
        )
        panel.sentinel_attached = (
            panel.sentinel_attached or violations is not None
        )
        total = runtime.now
        scenarios: list[tuple[str, int, int]] = [
            ("baseline", 0, 0),
            ("scale_out", 0, 0),
            ("drain", 0, 0),
        ] + [(f"storm{s}xr{r}", r, s) for r, s in grid]
        for scenario, rate, storm in scenarios:
            if scenario == "baseline":
                cell_result = result
                cell_snapshot = snapshot
                cell_runtime = runtime
                controller = None
                cell_violations = violations
            else:
                schedule = _schedule(scenario, total, rate, storm)
                (
                    cell_result,
                    cell_runtime,
                    controller,
                    cell_snapshot,
                    cell_violations,
                ) = _run_cell(app, workload, nodes, schedule)
            panel.cells.append(
                _cell(
                    app, scenario, cell_result, cell_runtime, controller,
                    cell_snapshot, cell_violations,
                )
            )
        panel.wall_seconds[app] = time.perf_counter() - started
    return panel


def _cell(
    app: str, scenario: str, result, runtime, controller, snapshot,
    violations: int | None,
) -> ChurnCell:
    """The pinned outcome of one :func:`_run_cell` run."""
    clock = runtime.probe.observer(_Clock)
    victims = [
        pid for _at, kind, pid in (controller.log if controller else ())
        if kind == "storm"
    ]
    return ChurnCell(
        app=app,
        scenario=scenario,
        sim_elapsed=result.elapsed,
        metrics={name: snapshot.get(name, 0.0) for name in _PINNED_METRICS},
        membership_changes=(
            len(controller.log) if controller is not None else 0
        ),
        final_processes=len(runtime.alive_processes()),
        sentinel_violations=violations,
        storm_failures=tuple(clock.failed_at[pid] for pid in victims),
        program_end=clock.last_finish,
    )


# -- baseline pin -----------------------------------------------------------------


def panel_section(panel: ChurnPanel) -> dict:
    cells = {}
    for cell in panel.cells:
        cells[f"{cell.app}/{cell.scenario}"] = {
            "sim_elapsed": cell.sim_elapsed,
            "metrics": cell.metrics,
            "membership_changes": cell.membership_changes,
            "final_processes": cell.final_processes,
        }
    return {
        "start_nodes": panel.start_nodes,
        "cells": cells,
        "wall_seconds_total": round(panel.wall_total, 2),
    }


def semantic_problems(panel: ChurnPanel) -> list[str]:
    """Model-level sanity gates a run must clear to be pinned."""
    problems: list[str] = []
    for cell in panel.cells:
        key = f"{cell.app}/{cell.scenario}"
        if cell.sentinel_violations:
            problems.append(
                f"{key}: {cell.sentinel_violations} sentinel violation(s)"
            )
        # a survivor read rows recovery had not restored yet (ROADMAP 1(iv))
        uninitialized = cell.metrics.get("dm.uninitialized_reads", 0.0)
        if uninitialized > 0:
            problems.append(
                f"{key}: {uninitialized:g} uninitialized read(s)"
            )
        if cell.scenario == "baseline":
            if cell.metrics.get("elastic.churn_events"):
                problems.append(f"{key}: baseline saw churn events")
            continue
        if not cell.metrics.get("elastic.churn_events"):
            problems.append(f"{key}: no churn events applied")
        if cell.scenario == "scale_out" and not cell.metrics.get(
            "elastic.joins"
        ):
            problems.append(f"{key}: no node joined")
        if cell.scenario == "drain":
            if not cell.metrics.get("elastic.drains"):
                problems.append(f"{key}: no node drained")
            if cell.metrics.get("elastic.evacuated_bytes", 0.0) <= 0.0:
                problems.append(f"{key}: drain evacuated no data")
        if cell.scenario.startswith("storm"):
            if not cell.metrics.get("elastic.failures"):
                problems.append(f"{key}: storm failed no nodes")
            # a storm that lands after the program's last task measured
            # no storm at all: the run only checkpointed and recovered
            late = [t for t in cell.storm_failures if t > cell.program_end]
            if late:
                problems.append(
                    f"{key}: storm victims failed at {max(late):.6g} s, "
                    f"after the program ended at {cell.program_end:.6g} s"
                )
    return problems


def render_churn_summary(panel: ChurnPanel) -> str:
    lines = [
        f"Churn sweep ({panel.mode}: {panel.start_nodes} starting nodes"
        + (", strict sentinel attached" if panel.sentinel_attached else "")
        + ")"
    ]
    header = (
        f"  {'app/scenario':<22} {'sim s':>10} {'events':>7} "
        f"{'evac B':>10} {'restored B':>11} {'alive':>6}"
    )
    lines.append(header)
    for cell in panel.cells:
        lines.append(
            f"  {cell.app + '/' + cell.scenario:<22} "
            f"{cell.sim_elapsed:>10.5f} "
            f"{cell.metrics.get('elastic.churn_events', 0.0):>7.0f} "
            f"{cell.metrics.get('elastic.evacuated_bytes', 0.0):>10.0f} "
            f"{cell.metrics.get('elastic.restored_bytes', 0.0):>11.0f} "
            f"{cell.final_processes:>6}"
        )
    for app, wall in panel.wall_seconds.items():
        lines.append(f"  {app:<8} {wall:7.1f}s wall")
    lines.append(f"  {'total':<8} {panel.wall_total:7.1f}s wall")
    return "\n".join(lines)


PANEL = Panel(
    name="churn",
    help="run the elasticity panel: each app under node churn "
    "(scale-out, graceful drain, failure storms with checkpoint "
    "recovery) sweeping churn rate x storm size; simulated values "
    "are pinned exactly in BENCH_churn_baseline.json",
    run=churn_panel,
    section=panel_section,
    render=render_churn_summary,
    semantic=semantic_problems,
)
