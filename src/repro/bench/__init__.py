"""Benchmark harness regenerating the paper's evaluation artifacts.

One entry point per artifact (see DESIGN.md's experiment index):

* :func:`repro.bench.tables.table1` — Table 1, the application inventory;
* :func:`repro.bench.figures.fig7_stencil` / ``fig7_ipic3d`` /
  ``fig7_tpc`` — the three panels of Fig. 7 (weak-scaling throughput,
  AllScale vs MPI vs linear);
* :mod:`repro.bench.harness` — generic node-count sweeps and shape metrics;
* :mod:`repro.bench.panel` — the one protocol behind every pinned
  ``BENCH_*_baseline.json`` (scaling, placement, churn, service, comms,
  ablations): a panel's ``semantic`` is the only place a paper claim is
  asserted, and ``python -m repro.bench`` runs nothing but panels.

Absolute numbers come from a simulator calibrated at single-node scale, so
EXPERIMENTS.md compares *shapes* against the paper, not raw values.
"""

from repro.bench.harness import (
    FIG7_NODE_COUNTS,
    ScalingPoint,
    ScalingSeries,
    parallel_efficiency,
)
from repro.bench.figures import (
    fig7_stencil,
    fig7_ipic3d,
    fig7_tpc,
    quick_node_counts,
)
from repro.bench.tables import table1, TABLE1_ROWS
from repro.bench.report import render_series, render_table, series_to_csv

__all__ = [
    "FIG7_NODE_COUNTS",
    "ScalingPoint",
    "ScalingSeries",
    "parallel_efficiency",
    "fig7_stencil",
    "fig7_ipic3d",
    "fig7_tpc",
    "quick_node_counts",
    "table1",
    "TABLE1_ROWS",
    "render_series",
    "render_table",
    "series_to_csv",
]
