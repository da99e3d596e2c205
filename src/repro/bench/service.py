"""The ``--service`` panel: multi-tenant replay pinned as an artifact.

Two deterministic sub-panels, both pure simulation (exact goldens, not
estimates):

* **smoke** — replays the committed arrival trace
  (``traces/multi_tenant_smoke.json``) through the in-process service
  and pins per-tenant latency (mean queue wait, mean turnaround),
  throughput, node-second totals, rejection counts by reason, and the
  fairness index.
* **contended** — replays the acceptance demo (3 tenants, 3:2:1
  weights, 126 jobs arriving at once) and pins per-tenant committed
  node-second shares at the 72-dispatch contended horizon, where the
  stride scheduler's split must match the configured weights exactly.

Both are pinned in ``BENCH_service_baseline.json`` through
:mod:`repro.bench.panel` (one mode: the replay has no reduced size).
The semantic gate: contended shares within
:data:`~repro.service.trace.SHARE_TOLERANCE` of the configured weights,
no racy job ever admitted, and every job completed or rejected.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.bench.panel import REPO_ROOT, Panel
from repro.service.trace import (
    DEMO_HORIZON_DISPATCHES,
    SHARE_TOLERANCE,
    Trace,
    demo_trace,
    replay,
    share_problems,
)

#: the committed arrival trace the smoke sub-panel replays
SMOKE_TRACE_PATH = REPO_ROOT / "traces" / "multi_tenant_smoke.json"


@dataclass
class ServicePanel:
    """Both sub-panel reports plus host timing."""

    smoke: dict
    contended: dict
    wall_seconds: float


def service_panel() -> ServicePanel:
    """Run both replays; everything but ``wall_seconds`` is exact."""
    started = time.perf_counter()
    smoke_report = replay(Trace.load(str(SMOKE_TRACE_PATH)))
    demo_report = replay(
        demo_trace(), horizon_dispatches=DEMO_HORIZON_DISPATCHES
    )
    return ServicePanel(
        smoke=smoke_report,
        contended=demo_report,
        wall_seconds=time.perf_counter() - started,
    )


def panel_section(panel: ServicePanel) -> dict:
    """The baseline section: exact simulated pins plus host timing."""
    return {
        "pins": {
            "smoke": panel.smoke,
            "contended": panel.contended,
        },
        "wall_seconds": round(panel.wall_seconds, 2),
    }


def semantic_problems(panel: ServicePanel) -> list[str]:
    """Baseline-independent acceptance checks on a fresh run."""
    problems: list[str] = []
    for name, report in (("smoke", panel.smoke), ("contended", panel.contended)):
        if report["false_accepts"]:
            problems.append(
                f"{name}: {report['false_accepts']} racy job(s) admitted"
            )
        unfinished = report["jobs"] - sum(
            t["completed"] + t["rejected"] for t in report["tenants"].values()
        )
        if unfinished:
            problems.append(
                f"{name}: {unfinished} job(s) neither completed nor rejected"
            )
    return problems + [
        f"contended: tenant {name} {problem} (tolerance {SHARE_TOLERANCE:.0%})"
        for name, problem in share_problems(panel.contended, SHARE_TOLERANCE)
    ]


def render_service_summary(panel: ServicePanel) -> str:
    """Human-readable per-tenant latency/throughput/fairness tables."""
    lines = ["Service replay (committed smoke trace)"]
    lines.append(
        f"  {panel.smoke['jobs']} jobs, makespan "
        f"{panel.smoke['makespan']:.4f}s sim, fairness "
        f"{panel.smoke['fairness_index']:.4f}, rejected "
        f"{panel.smoke['rejected_by_reason']}"
    )
    header = (
        f"  {'tenant':<8} {'w':>3} {'done':>5} {'rej':>4} "
        f"{'node-sec':>9} {'share':>6} {'conf':>6} {'wait':>8} "
        f"{'turn':>8} {'jobs/s':>8}"
    )
    lines.append(header)
    for name, row in panel.smoke["tenants"].items():
        lines.append(
            f"  {name:<8} {row['weight']:>3.0f} {row['completed']:>5} "
            f"{row['rejected']:>4} {row['node_seconds']:>9.4f} "
            f"{row['observed_share']:>6.3f} {row['configured_share']:>6.3f} "
            f"{row['mean_queue_wait']:>8.4f} {row['mean_turnaround']:>8.4f} "
            f"{row['throughput_jobs_per_second']:>8.1f}"
        )
    contended = panel.contended["contended"]
    lines.append(
        f"Contended shares at {contended['dispatches']} dispatches "
        f"(fairness {contended['fairness_index']:.4f})"
    )
    for name, share in contended["tenants"].items():
        lines.append(
            f"  {name:<8} committed {share['committed_node_seconds']:.4f} "
            f"observed {share['observed_share']:.4f} configured "
            f"{share['configured_share']:.4f}"
        )
    lines.append(f"  total {panel.wall_seconds:.1f}s wall")
    return "\n".join(lines)


PANEL = Panel(
    name="service",
    help="run the multi-tenant service panel: replay the committed "
    "arrival trace plus the contended fair-share demo, reporting "
    "per-tenant latency/throughput and the fairness index",
    run=lambda _mode: service_panel(),
    section=panel_section,
    render=render_service_summary,
    semantic=semantic_problems,
    modes=("full",),
)
