"""Regeneration of the paper's evaluation artifacts, one module per panel.

Every pinned ``BENCH_*_baseline.json`` (scaling, placement, churn,
service, comms, ablations) has one module here ending in a ``PANEL``;
:mod:`repro.bench.panel` is the one protocol behind them: a panel's
``semantic`` is the only place a paper claim is asserted, and
``python -m repro.bench`` runs nothing but panels (see DESIGN.md's
experiment index).  The paper's two artifacts both live in
:mod:`repro.bench.scaling`: :func:`~repro.bench.scaling.table1` (Table
1, the application inventory) and the ``fig7_*`` builders (the three
panels of Fig. 7, weak-scaling throughput, AllScale vs MPI vs linear).

Absolute numbers come from a simulator calibrated at single-node scale, so
EXPERIMENTS.md compares *shapes* against the paper, not raw values.
"""
