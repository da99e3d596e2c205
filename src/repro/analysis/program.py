"""Analyzer drivers: whole task trees and phased task programs.

:func:`analyze_task` is the unit of analysis — one submitted (or
about-to-be-submitted) :class:`~repro.runtime.tasks.TaskSpec`, expanded
statically and run through the coverage, race, and lint checks.

:func:`analyze_program` lifts this to a :class:`TaskProgram`: an ordered
list of *phases*, each a list of root tasks that are mutually unordered
(submitted concurrently between two barriers — exactly the structure of
the example drivers, where each ``pfor`` sweep ends in a treeture
barrier).  Roots within a phase are additionally race-checked against
each other on their subtree-effective regions; consecutive phases are
separated by a barrier, hence ordered, hence silent.
"""

from __future__ import annotations

import time

from repro.analysis.coverage import check_coverage
from repro.analysis.expansion import AnalysisConfig, TaskNode, expand_task
from repro.analysis.findings import AnalysisReport
from repro.analysis.lint import lint_key, lint_spec
from repro.analysis.races import (
    check_concurrent_roots,
    check_tree_races,
    effective_requirements,
)
from repro.runtime.tasks import TaskProgram, TaskSpec


def analyze_task(
    spec: TaskSpec,
    config: AnalysisConfig | None = None,
    subject: str | None = None,
) -> AnalysisReport:
    """Statically analyze one task tree; returns the full report."""
    config = config or AnalysisConfig()
    report = AnalysisReport(subject=subject or spec.name)
    started = time.perf_counter()
    _analyze_tree(spec, config, report)
    report.elapsed = time.perf_counter() - started
    return report


def analyze_program(
    program: TaskProgram,
    config: AnalysisConfig | None = None,
) -> AnalysisReport:
    """Analyze every root of a phased program, plus cross-root races."""
    config = config or AnalysisConfig()
    report = AnalysisReport(subject=program.label)
    started = time.perf_counter()
    linted: set = set()
    for phase in program.phases:
        roots = [
            _analyze_tree(spec, config, report, linted=linted)
            for spec in phase
        ]
        if config.races and len(roots) > 1:
            efforts = [effective_requirements(root)[id(root)] for root in roots]
            findings, pairs = check_concurrent_roots(efforts, config)
            report.extend(findings)
            report.pairs_checked += pairs
    report.elapsed = time.perf_counter() - started
    return report


def _analyze_tree(
    spec: TaskSpec,
    config: AnalysisConfig,
    report: AnalysisReport,
    linted: set | None = None,
) -> TaskNode:
    """Expand one root and fold its checks into ``report``."""
    root, expanded, truncated = expand_task(spec, config, report.findings)
    report.tasks_expanded += expanded
    report.tasks_truncated += truncated
    if config.coverage:
        report.extend(check_coverage(root, config))
    if config.races:
        findings, pairs = check_tree_races(root, config)
        report.extend(findings)
        report.pairs_checked += pairs
    if config.lint:
        seen = linted if linted is not None else set()
        for node in root.walk():
            if node.children:
                continue  # bodies only run at leaves
            key = lint_key(node.spec)
            if key is not None:
                if key in seen:
                    continue
                seen.add(key)
            report.extend(lint_spec(node.spec, node.path))
            report.bodies_linted += 1
    return root
