"""Table 1 and Fig. 7: the paper's two evaluation artifacts (§4).

:func:`table1` regenerates the application inventory from the workload
dataclasses, so the table states what the benchmarks actually run.

The ``--scaling`` panel is Fig. 7's weak-scaling sweep as a pinned
artifact: each ``fig7_*`` builder sweeps node counts and returns a
:class:`ScalingSeries` with AllScale and MPI throughput per node count,
and the panel times each application and pins the result in
``BENCH_scaling_baseline.json`` at the repository root.  The full mode
is the paper's 1–64 node x-axis; the reduced modes shrink the
workloads, not just the x-axis, so each mode pins its own section; file
layout and ``--check`` are :mod:`repro.bench.panel`'s.

Calibration (single-node anchors, see DESIGN.md §5):

* stencil — effective 2.4 GFLOP/s/core ⇒ ≈45 GFLOPS/node, matching the
  paper's leftmost stencil point;
* iPiC3D — ``flops_per_particle_update = 7·10⁵`` ⇒ ≈6.5·10⁴ particle
  updates/s/node;
* TPC — ``visit_flops=150 / point_flops=30`` ⇒ ≈600 q/s single node.

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

from repro.apps.common import AppResult
from repro.apps.ipic3d import IPic3DWorkload, ipic3d_allscale, ipic3d_mpi
from repro.apps.stencil import StencilWorkload, stencil_allscale, stencil_mpi
from repro.apps.tpc import TPCWorkload, make_problem, tpc_allscale, tpc_mpi
from repro.bench.panel import Panel, _fmt, render_table
from repro.regions.kernel import get_kernel
from repro.runtime.config import RuntimeConfig
from repro.sim.cluster import Cluster, meggie_like_spec

# -- Table 1 ---------------------------------------------------------------------


def table1(
    stencil: StencilWorkload | None = None,
    ipic3d: IPic3DWorkload | None = None,
    tpc: TPCWorkload | None = None,
) -> list[tuple[str, str, str, str, str]]:
    """Table 1's rows (name, description, data structure, problem size,
    metric) from (possibly customized) workload definitions."""
    stencil = stencil or StencilWorkload()
    ipic3d = ipic3d or IPic3DWorkload()
    tpc = tpc or TPCWorkload()
    return [
        (
            "stencil",
            "2D stencil kernel [12]",
            "regular 2D grid",
            f"{stencil.n_per_node:,}² elements per node",
            "FLOPS",
        ),
        (
            "iPiC3D",
            "particle-in-cell simulator [13]",
            "multiple regular 3D grids",
            f"{ipic3d.particles_per_node / 1e6:.0f} · 10⁶ particles per node",
            "particle updates per second",
        ),
        (
            "TPC",
            "two-point-correlation search [14]",
            "kd-tree",
            f"2^{tpc.total_points.bit_length() - 1} points in "
            f"[{tpc.low:g}, {tpc.high:g})^{tpc.dims} with radius "
            f"{tpc.radius:g}",
            "queries per second",
        ),
    ]


def render_table1(rows: Sequence[Sequence[str]]) -> str:
    return render_table(
        ["Name", "Description", "Data Structure", "Problem Size", "Metric"],
        rows,
    )


# -- Fig. 7: one series per application -------------------------------------------

#: the node counts of the paper's Fig. 7 x-axis
FIG7_NODE_COUNTS: tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64)


@dataclass
class ScalingPoint:
    """One x-position of a Fig. 7 panel."""

    nodes: int
    allscale: float
    mpi: float

    @property
    def ratio(self) -> float:
        """AllScale throughput as a fraction of MPI's."""
        return self.allscale / self.mpi if self.mpi else float("nan")


@dataclass
class ScalingSeries:
    """One full panel: throughput vs node count for both systems."""

    app: str
    metric: str
    points: list[ScalingPoint] = field(default_factory=list)

    def add(self, allscale: AppResult, mpi: AppResult) -> None:
        if allscale.nodes != mpi.nodes:
            raise ValueError("mismatched node counts in a scaling point")
        self.points.append(
            ScalingPoint(allscale.nodes, allscale.throughput, mpi.throughput)
        )

    def node_counts(self) -> list[int]:
        return [p.nodes for p in self.points]

    def linear(self, system: str = "allscale") -> list[float]:
        """The ideal-scaling reference line anchored at the first point."""
        if not self.points:
            return []
        base = getattr(self.points[0], system) / self.points[0].nodes
        return [base * p.nodes for p in self.points]

    def point_at(self, nodes: int) -> ScalingPoint:
        for p in self.points:
            if p.nodes == nodes:
                return p
        raise KeyError(f"no point at {nodes} nodes")


def parallel_efficiency(series: ScalingSeries, system: str) -> float:
    """Efficiency at the largest node count vs the single-node anchor."""
    first, last = series.points[0], series.points[-1]
    base = getattr(first, system) / first.nodes
    return getattr(last, system) / (base * last.nodes)


def quick_node_counts(quick: bool, smoke: bool = False) -> tuple[int, ...]:
    if smoke:
        return (1, 4)
    return (1, 4, 16) if quick else FIG7_NODE_COUNTS


def _runtime_config() -> RuntimeConfig:
    # modest oversubscription keeps task counts (and simulation cost)
    # reasonable without changing the scaling shape
    return RuntimeConfig(functional=False, oversubscription=2)


def fig7_stencil(quick: bool = False, smoke: bool = False) -> ScalingSeries:
    """Fig. 7, left panel: stencil throughput [GFLOPS]."""
    reduced = quick or smoke
    workload = StencilWorkload(
        n_per_node=20_000 if not reduced else 4_000,
        timesteps=4 if not reduced else 2,
        functional=False,
    )
    series = ScalingSeries(app="stencil", metric="GFLOPS")
    for nodes in quick_node_counts(quick, smoke):
        series.add(
            stencil_allscale(
                Cluster(meggie_like_spec(nodes)), workload, _runtime_config()
            ),
            stencil_mpi(Cluster(meggie_like_spec(nodes)), workload),
        )
    return series


def fig7_ipic3d(quick: bool = False, smoke: bool = False) -> ScalingSeries:
    """Fig. 7, middle panel: iPiC3D throughput [particles/s]."""
    reduced = quick or smoke
    workload = IPic3DWorkload(
        particles_per_node=48_000_000,
        cells_per_node_side=16 if not reduced else 8,
        timesteps=3 if not reduced else 2,
    )
    series = ScalingSeries(app="ipic3d", metric="particles/s")
    for nodes in quick_node_counts(quick, smoke):
        series.add(
            ipic3d_allscale(
                Cluster(meggie_like_spec(nodes)), workload, _runtime_config()
            ),
            ipic3d_mpi(Cluster(meggie_like_spec(nodes)), workload),
        )
    return series


def fig7_tpc(quick: bool = False, smoke: bool = False) -> ScalingSeries:
    """Fig. 7, right panel: TPC throughput [queries/s].

    Offered load: a fixed window of queries per measurement (see the
    ``queries_total`` note in :class:`~repro.apps.tpc.TPCWorkload`); both
    systems process the identical window.
    """
    reduced = quick or smoke
    workload = TPCWorkload(
        total_points=2**29,
        depth=16,
        queries_total=384 if not reduced else 128,
        functional=False,
        visit_flops=150.0,
        point_flops=30.0,
        task_subtree_height=9,
    )
    series = ScalingSeries(app="tpc", metric="queries/s")
    for nodes in quick_node_counts(quick, smoke):
        problem = make_problem(workload, nodes)
        allscale = tpc_allscale(
            Cluster(meggie_like_spec(nodes)),
            workload,
            _runtime_config(),
            problem=problem,
        )
        mpi = tpc_mpi(Cluster(meggie_like_spec(nodes)), workload, problem=problem)
        series.add(allscale, mpi)
    return series


#: the three Fig. 7 panels by CLI name, in the paper's left-to-right order
FIG7_BUILDERS = {
    "stencil": fig7_stencil,
    "ipic3d": fig7_ipic3d,
    "tpc": fig7_tpc,
}

#: the Fig. 7 applications by CLI name
APPS = tuple(FIG7_BUILDERS)


def render_series(series: ScalingSeries) -> str:
    """One Fig. 7 panel as a table: nodes | AllScale | MPI | linear."""
    linear = series.linear("allscale")
    rows = []
    for point, ideal in zip(series.points, linear):
        rows.append(
            (
                str(point.nodes),
                _fmt(point.allscale),
                _fmt(point.mpi),
                _fmt(ideal),
                f"{point.ratio:.2f}",
            )
        )
    title = f"Fig. 7 — {series.app} throughput [{series.metric}]"
    body = render_table(
        ["nodes", "AllScale", "MPI", "linear", "AS/MPI"], rows
    )
    return f"{title}\n{body}"


def render_region_cache(stats: dict[str, int]) -> str:
    """The kernel's per-op hit/miss counters as an ASCII table."""
    ops = sorted(
        {
            name.split(".")[1]
            for name in stats
            if name.count(".") == 2 and name.endswith(".hits")
        }
    )
    rows = []
    for op in ops:
        hits = stats.get(f"region.{op}.hits", 0)
        misses = stats.get(f"region.{op}.misses", 0)
        total = hits + misses
        rate = f"{hits / total:.1%}" if total else "-"
        rows.append((op, str(hits), str(misses), rate))
    hits = stats.get("region.cache_hits", 0)
    misses = stats.get("region.cache_misses", 0)
    total = hits + misses
    rate = f"{hits / total:.1%}" if total else "-"
    rows.append(("TOTAL", str(hits), str(misses), rate))
    body = render_table(["op", "hits", "misses", "hit rate"], rows)
    interned = stats.get("region.interned", 0)
    return (
        f"Region kernel cache ({interned} regions interned)\n{body}"
    )


# -- the --scaling panel -----------------------------------------------------------

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
