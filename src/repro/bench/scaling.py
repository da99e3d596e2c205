"""The ``--scaling`` panel: Fig. 7's weak-scaling sweep as a pinned artifact.

The paper's evaluation (§4, Fig. 7) sweeps all three applications from 1
to 64 nodes.  Before the flat-core refactor (slotted hot classes, flat
metric counters, interned region ids) the full sweep was impractical
to regenerate routinely; this panel runs it end to end, times each
application, and pins the result in ``BENCH_scaling_baseline.json`` at
the repository root.

The reduced modes shrink the workloads, not just the x-axis, so each
mode pins its own section; file layout and ``--check`` are
:mod:`repro.bench.panel`'s.

The ``quick`` section additionally records the speedup against the
pre-refactor quick-bench wall clock (:data:`PR5_QUICK_SECONDS`), which
is the flat-core work's headline number.

The semantic gate is the paper's §4.2 reading of Fig. 7, per application
(:data:`SHAPES`): stencil and iPiC3D show "comparable performance and
scalability" against MPI; TPC is comparable on one node, MPI keeps
scaling, and AllScale trails and flattens at scale.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import Sequence

from repro.bench.figures import FIG7_BUILDERS, quick_node_counts
from repro.bench.harness import ScalingSeries, parallel_efficiency
from repro.bench.panel import Panel
from repro.bench.report import render_region_cache, render_series
from repro.regions.kernel import get_kernel

#: the Fig. 7 applications by CLI name, in the paper's left-to-right order
APPS = tuple(FIG7_BUILDERS)

#: quick-bench wall clock (stencil + ipic3d + tpc, 1/4/16 nodes) measured
#: at the PR-5 state, immediately before the flat-core refactor; the
#: ``quick`` section's ``speedup_vs_pr5`` is anchored against it
PR5_QUICK_SECONDS = 86.4

#: single-node AllScale throughput decade per *absolute* metric — the
#: calibration anchors of DESIGN.md §5 (iPiC3D: ~6.5·10⁴ updates/s/node)
CALIBRATION = {"particles/s": (2e4, 2e5)}


@dataclass
class ScalingPanel:
    """One complete sweep: the selected apps at one mode, with host timing."""

    mode: str
    node_counts: tuple[int, ...]
    series: dict[str, ScalingSeries]
    wall_seconds: dict[str, float]
    #: region-kernel hit/miss counters after the sweep (reported, not pinned)
    region_cache: dict[str, int] = field(default_factory=dict)

    @property
    def wall_total(self) -> float:
        return sum(self.wall_seconds.values())


def scaling_panel(mode: str, apps: Sequence[str] = APPS) -> ScalingPanel:
    """Run the Fig. 7 sweep for every selected application, timing each."""
    quick, smoke = mode == "quick", mode == "smoke"
    series: dict[str, ScalingSeries] = {}
    wall: dict[str, float] = {}
    for name in apps:
        started = time.perf_counter()
        series[name] = FIG7_BUILDERS[name](quick=quick, smoke=smoke)
        wall[name] = time.perf_counter() - started
    return ScalingPanel(
        mode=mode,
        node_counts=quick_node_counts(quick, smoke),
        series=series,
        wall_seconds=wall,
        region_cache=get_kernel().stats(),
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


# -- the Fig. 7 shape criteria (paper §4.2) ------------------------------------


def _not_increasing(series: ScalingSeries, system: str) -> list[str]:
    return [
        f"{system} throughput does not increase from {prev.nodes} to "
        f"{cur.nodes} nodes"
        for prev, cur in zip(series.points, series.points[1:])
        if not getattr(cur, system) > getattr(prev, system)
    ]


def _comparable_and_scalable(series: ScalingSeries) -> list[str]:
    """Stencil, iPiC3D: AllScale within a modest constant factor of MPI at
    every node count (no widening gap), both systems near-linear."""
    problems = [
        f"AllScale/MPI ratio {point.ratio:.2f} at {point.nodes} nodes "
        "outside the 'comparable performance' band [0.5, 1.2]"
        for point in series.points
        if not 0.5 <= point.ratio <= 1.2
    ]
    for system in ("allscale", "mpi"):
        efficiency = parallel_efficiency(series, system)
        if not efficiency > 0.6:
            problems.append(
                f"{system} parallel efficiency {efficiency:.2f} at "
                f"{series.points[-1].nodes} nodes is not above 0.6"
            )
        problems += _not_increasing(series, system)
    return problems


def _latency_bound(series: ScalingSeries) -> list[str]:
    """TPC: "MPI obtains higher performance, while AllScale can only gain
    performance improvements up to 8 nodes" — the unaggregated per-sub-tree
    tasks are latency-sensitive, MPI batches its queries."""
    first, last = series.points[0], series.points[-1]
    problems = []
    if not first.ratio > 0.8:
        problems.append(
            f"AllScale/MPI ratio {first.ratio:.2f} at {first.nodes} node(s): "
            "the single-node systems should be comparable"
        )
    problems += _not_increasing(series, "mpi")
    # the gap only opens once the sub-trees are spread over enough nodes:
    # the smoke sweep stops at 4, where the two are still comparable
    if last.nodes >= 16:
        if not last.ratio < 0.5:
            problems.append(
                f"expected AllScale ≪ MPI at {last.nodes} nodes, got ratio "
                f"{last.ratio:.2f}"
            )
        if not last.ratio < first.ratio:
            problems.append(
                f"the AllScale/MPI gap does not grow from {first.nodes} to "
                f"{last.nodes} nodes"
            )
    if {8, 64} <= set(series.node_counts()):
        mid, far = series.point_at(8), series.point_at(64)
        # flattening: the 8→64 gain is far below the 8× ideal ...
        if not far.allscale / mid.allscale < 3.0:
            problems.append(
                f"AllScale gains {far.allscale / mid.allscale:.2f}x from 8 "
                "to 64 nodes: it should flatten (< 3x)"
            )
        # ... while MPI keeps a healthy fraction of ideal scaling
        if not far.mpi / mid.mpi > 3.0:
            problems.append(
                f"MPI gains only {far.mpi / mid.mpi:.2f}x from 8 to 64 "
                "nodes (expected > 3x)"
            )
    return problems


SHAPES = {
    "stencil": _comparable_and_scalable,
    "ipic3d": _comparable_and_scalable,
    "tpc": _latency_bound,
}


def semantic_problems(panel: ScalingPanel) -> list[str]:
    """The paper's Fig. 7 claims, for every app the run covers."""
    problems = []
    for name, series in panel.series.items():
        problems += [f"{name}: {problem}" for problem in SHAPES[name](series)]
        band = CALIBRATION.get(series.metric)
        single = series.points[0]
        if band and not band[0] <= single.allscale <= band[1]:
            problems.append(
                f"{name}: single-node AllScale at {single.allscale:.4g} "
                f"{series.metric}, outside the calibrated decade "
                f"[{band[0]:g}, {band[1]:g}]"
            )
    return problems


def render_scaling_summary(panel: ScalingPanel) -> str:
    """Every series, per-app host timing, the quick-mode speedup and the
    region kernel's hit/miss counters."""
    lines = [render_series(series) + "\n" for series in panel.series.values()]
    lines.append(
        f"Scaling sweep ({panel.mode}: {list(panel.node_counts)} nodes)"
    )
    for name in panel.series:
        lines.append(f"  {name:<8} {panel.wall_seconds[name]:7.1f}s wall")
    lines.append(f"  {'total':<8} {panel.wall_total:7.1f}s wall")
    if panel.mode == "quick" and set(panel.series) == set(APPS):
        lines.append(
            f"  speedup vs PR-5 quick bench ({PR5_QUICK_SECONDS:.1f}s): "
            f"{PR5_QUICK_SECONDS / panel.wall_total:.1f}x"
        )
    if panel.region_cache:
        lines.append("\n" + render_region_cache(panel.region_cache))
    return "\n".join(lines)


PANEL = Panel(
    name="scaling",
    help="run the Fig. 7 weak-scaling sweep for all three apps "
    "(full 1-64 nodes by default; --quick/--smoke shrink it) and "
    "print per-app host timing",
    run=scaling_panel,
    section=panel_section,
    render=render_scaling_summary,
    semantic=semantic_problems,
)


def select(apps: Sequence[str]) -> Panel:
    """The scaling panel restricted to ``apps`` — the CLI's positional
    ``stencil|ipic3d|tpc`` selectors and ``--profile``."""
    return dataclasses.replace(PANEL, run=lambda mode: scaling_panel(mode, apps))
