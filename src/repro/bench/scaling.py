"""The ``--scaling`` panel: Fig. 7's weak-scaling sweep as a pinned artifact.

The paper's evaluation (§4, Fig. 7) sweeps all three applications from 1
to 64 nodes.  Before the flat-core refactor (array-backed event queue,
slotted hot classes, interned region ids) the full sweep was impractical
to regenerate routinely; this panel runs it end to end, times each
application, and pins the result in ``BENCH_scaling_baseline.json`` at
the repository root.

The reduced modes shrink the workloads, not just the x-axis, so each
mode pins its own section; file layout and ``--check`` are
:mod:`repro.bench.panel`'s.

The ``quick`` section additionally records the speedup against the
pre-refactor quick-bench wall clock (:data:`PR5_QUICK_SECONDS`), which
is the flat-core work's headline number.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.bench.figures import FIG7_BUILDERS, quick_node_counts
from repro.bench.harness import ScalingSeries
from repro.bench.panel import Panel
from repro.bench.report import render_series

#: quick-bench wall clock (stencil + ipic3d + tpc, 1/4/16 nodes) measured
#: at the PR-5 state, immediately before the flat-core refactor; the
#: ``quick`` section's ``speedup_vs_pr5`` is anchored against it
PR5_QUICK_SECONDS = 86.4


@dataclass
class ScalingPanel:
    """One complete sweep: all three apps at one mode, with host timing."""

    mode: str
    node_counts: tuple[int, ...]
    series: dict[str, ScalingSeries]
    wall_seconds: dict[str, float]

    @property
    def wall_total(self) -> float:
        return sum(self.wall_seconds.values())


def scaling_panel(mode: str) -> ScalingPanel:
    """Run the Fig. 7 sweep for every application, timing each panel."""
    quick, smoke = mode == "quick", mode == "smoke"
    series: dict[str, ScalingSeries] = {}
    wall: dict[str, float] = {}
    for name, build in FIG7_BUILDERS.items():
        started = time.perf_counter()
        series[name] = build(quick=quick, smoke=smoke)
        wall[name] = time.perf_counter() - started
    return ScalingPanel(
        mode=mode,
        node_counts=quick_node_counts(quick, smoke),
        series=series,
        wall_seconds=wall,
    )


def panel_section(panel: ScalingPanel) -> dict:
    """One mode's baseline section: exact point values plus host timing."""
    apps = {}
    for name, series in panel.series.items():
        apps[name] = {
            "metric": series.metric,
            "points": [
                {"nodes": p.nodes, "allscale": p.allscale, "mpi": p.mpi}
                for p in series.points
            ],
            "wall_seconds": round(panel.wall_seconds[name], 2),
        }
    section = {
        "node_counts": list(panel.node_counts),
        "apps": apps,
        "wall_seconds_total": round(panel.wall_total, 2),
    }
    if panel.mode == "quick":
        section["pr5_seconds"] = PR5_QUICK_SECONDS
        section["speedup_vs_pr5"] = round(PR5_QUICK_SECONDS / panel.wall_total, 2)
    return section


def render_scaling_summary(panel: ScalingPanel) -> str:
    """Every series, then per-app host timing and the quick-mode speedup."""
    lines = [render_series(series) + "\n" for series in panel.series.values()]
    lines.append(
        f"Scaling sweep ({panel.mode}: {list(panel.node_counts)} nodes)"
    )
    for name in panel.series:
        lines.append(f"  {name:<8} {panel.wall_seconds[name]:7.1f}s wall")
    lines.append(f"  {'total':<8} {panel.wall_total:7.1f}s wall")
    if panel.mode == "quick":
        lines.append(
            f"  speedup vs PR-5 quick bench ({PR5_QUICK_SECONDS:.1f}s): "
            f"{PR5_QUICK_SECONDS / panel.wall_total:.1f}x"
        )
    return "\n".join(lines)


PANEL = Panel(
    name="scaling",
    help="run the Fig. 7 weak-scaling sweep for all three apps "
    "(full 1-64 nodes by default; --quick/--smoke shrink it) and "
    "print per-app host timing",
    run=scaling_panel,
    section=panel_section,
    render=render_scaling_summary,
)
