"""Stateless DPOR exploration with sleep sets over scenario schedules.

One *branch* = one fresh scenario instance driven to completion under a
:class:`~repro.verify.oracle.RecordingOracle` whose forced prefix replays
the decisions up to a divergence point and takes one alternative there.
After each run the recorded choice points are mined for new branches:

* an alternative candidate ``c`` at choice point ``i`` forks a branch only
  if ``c``'s dependence footprint conflicts with some event executed
  between ``i`` and ``c``'s own execution in the observed run — commuting
  reorderings provably reach the same state and are pruned (dynamic
  partial-order reduction);
* *sleep sets* carry the already-explored choices of earlier siblings into
  each child (filtered to those independent of the child's own decision)
  and wake them when a dependent event executes, eliminating the remaining
  duplicate interleavings.

Everything is deterministic: candidate sets are sorted, branches explore
depth-first in reverse-candidate order, and event sequence numbers are
reproducible under a fixed forced prefix — which is also why a recorded
decision list *is* a replayable repro.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.analysis.findings import Finding
from repro.verify.monitor import FootprintOp, VerifyMonitor, ops_conflict
from repro.verify.oracle import (
    ChoicePoint,
    DecisionTrace,
    RecordingOracle,
    ScheduleDivergence,
)
from repro.verify.scenarios import Scenario

#: default bound on explored branches per scenario
DEFAULT_BUDGET = 64


@dataclass
class RunResult:
    """Outcome of driving one scenario instance along one schedule."""

    status: str  # "ok" | "fail" | "divergent"
    error: str | None
    fingerprint: str | None
    races: list[Finding]
    events: int
    points: list[ChoicePoint]
    decisions: list[tuple[int, int]]


@dataclass
class ExploreResult:
    """Aggregate of one bounded exploration."""

    scenario: str
    branches: int = 0
    exhausted: bool = True
    choice_points: int = 0
    events: int = 0
    #: distinct terminal-state fingerprints of clean branches, sorted
    fingerprints: list[str] = field(default_factory=list)
    #: deduplicated race-sanitizer findings across all branches
    races: list[Finding] = field(default_factory=list)
    #: (error message, full decision list) of every failing branch
    failures: list[tuple[str, list[tuple[int, int]]]] = field(
        default_factory=list
    )

    @property
    def clean(self) -> bool:
        return not self.failures and not self.races

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "branches": self.branches,
            "exhausted": self.exhausted,
            "choice_points": self.choice_points,
            "events": self.events,
            "fingerprints": list(self.fingerprints),
            "races": [str(f) for f in self.races],
            "failures": [
                {"error": error, "decisions": list(decisions)}
                for error, decisions in self.failures
            ],
            "clean": self.clean,
        }


def run_schedule(
    scenario: Scenario, forced: dict[int, int], strict: bool = True
) -> tuple[RunResult, VerifyMonitor]:
    """Drive one fresh instance along the schedule ``forced`` prescribes."""
    instance = scenario.build()
    engine = instance.engine
    monitor = VerifyMonitor()
    oracle: RecordingOracle
    if strict:
        oracle = RecordingOracle(forced)
    else:
        from repro.verify.oracle import ReplayOracle

        oracle = ReplayOracle(forced)
    oracle.position = lambda: len(monitor.exec_order)
    engine.set_hb(monitor)
    engine.set_oracle(oracle)
    status, error, fingerprint = "ok", None, None
    try:
        instance.run()
        fingerprint = instance.fingerprint()
    except ScheduleDivergence as exc:
        status, error = "divergent", str(exc)
    except Exception as exc:
        status, error = "fail", f"{type(exc).__name__}: {exc}"
    finally:
        engine.set_oracle(None)
        engine.set_hb(None)
    return (
        RunResult(
            status=status,
            error=error,
            fingerprint=fingerprint,
            races=list(monitor.races),
            events=len(monitor.exec_order),
            points=list(oracle.points),
            decisions=oracle.decisions(),
        ),
        monitor,
    )


def _effective_footprints(
    monitor: VerifyMonitor,
) -> dict[int, list[FootprintOp]]:
    """Fold each event's descendants' footprints into its own.

    Advancing an event also advances everything it transitively schedules,
    so for *pending* candidates (whose own handler is often just a shell
    resuming a coroutine) the dependence that matters is the union over
    the subtree it unleashes in the observed run.
    """
    children: dict[int, list[int]] = {}
    for child, parent in monitor.parents.items():
        children.setdefault(parent, []).append(child)
    eff: dict[int, list[FootprintOp]] = {}
    for seq in reversed(monitor.exec_order):
        # children always carry larger seqs and execute via later schedule
        # calls; a reverse exec-order pass resolves leaves first
        ops = list(monitor.footprints.get(seq, []))
        for child in children.get(seq, ()):
            ops.extend(eff.get(child, monitor.footprints.get(child, [])))
        eff[seq] = ops
    return eff


def _branch_worthy(
    candidate: int,
    point: ChoicePoint,
    monitor: VerifyMonitor,
    eff: dict[int, list[FootprintOp]],
) -> bool:
    """Would dispatching ``candidate`` at ``point`` not commute with the
    observed run?  (If it commutes, the reordering reaches the same state.)"""
    target = monitor.exec_index.get(candidate)
    if target is None:
        return False  # never executed (cancelled): nothing to reorder
    footprint = eff.get(candidate, [])
    order = monitor.exec_order
    footprints = monitor.footprints
    for pos in range(point.pos, target):
        other = order[pos]
        if other == candidate:
            continue
        if ops_conflict(footprint, footprints.get(other, [])):
            return True
    return False


def _conflicts(
    a: int, b: int, monitor: VerifyMonitor, eff: dict[int, list[FootprintOp]]
) -> bool:
    return ops_conflict(eff.get(a, []), eff.get(b, []))


def explore(
    scenario: Scenario,
    budget: int = DEFAULT_BUDGET,
    on_progress: Callable[[int], None] | None = None,
) -> ExploreResult:
    """Bounded DPOR exploration of one scenario's schedule space."""
    result = ExploreResult(scenario=scenario.name)
    fingerprints: set[str] = set()
    race_keys: set[tuple] = set()
    seen_prefixes: set[tuple[tuple[int, int], ...]] = set()
    # stack entries: (forced decisions, sleep set at the divergence point,
    # exec position of the divergence point)
    stack: list[tuple[tuple[tuple[int, int], ...], frozenset[int], int]] = [
        ((), frozenset(), 0)
    ]
    while stack and result.branches < budget:
        forced, sleep0, sleep_pos = stack.pop()
        run, monitor = run_schedule(scenario, dict(forced))
        result.branches += 1
        result.choice_points += len(run.points)
        result.events += run.events
        if on_progress is not None:
            on_progress(result.branches)
        if run.status == "divergent":
            continue  # stale branch: the prefix no longer reproduces
        if run.status == "fail":
            result.failures.append((run.error or "", run.decisions))
        elif run.fingerprint is not None:
            if run.fingerprint not in fingerprints:
                fingerprints.add(run.fingerprint)
        for finding in run.races:
            if finding.key() not in race_keys:
                race_keys.add(finding.key())
                result.races.append(finding)
        # mine the unforced suffix for new branches, evolving the sleep set
        depth = len(forced)
        sleep = set(sleep0)
        pos = sleep_pos
        order = monitor.exec_order
        eff = _effective_footprints(monitor)
        for point in run.points:
            if point.step < depth:
                continue
            # wake sleepers a dependent event executed past (the executed
            # event's own footprint suffices: its descendants take their
            # own turn in this walk)
            while pos < point.pos:
                executed = order[pos]
                pos += 1
                if executed in sleep:
                    sleep.discard(executed)
                    continue
                executed_ops = monitor.footprints.get(executed, [])
                sleep = {
                    s
                    for s in sleep
                    if not ops_conflict(eff.get(s, []), executed_ops)
                }
            explored: list[int] = [point.chosen]
            for candidate in point.candidates:
                if (
                    candidate == point.chosen
                    or candidate in sleep
                    or not _branch_worthy(candidate, point, monitor, eff)
                ):
                    continue
                child_forced = tuple(
                    [
                        (p.step, p.chosen)
                        for p in run.points
                        if p.step < point.step
                    ]
                    + [(point.step, candidate)]
                )
                if child_forced in seen_prefixes:
                    explored.append(candidate)
                    continue
                seen_prefixes.add(child_forced)
                child_sleep = frozenset(
                    s
                    for s in set(sleep) | set(explored)
                    if not _conflicts(s, candidate, monitor, eff)
                )
                stack.append((child_forced, child_sleep, point.pos))
                explored.append(candidate)
    result.exhausted = not stack
    result.fingerprints = sorted(fingerprints)
    return result


# -- failing-trace minimization ------------------------------------------------------


def minimize_failure(
    scenario: Scenario,
    decisions: list[tuple[int, int]],
    is_failure: Callable[[RunResult], bool],
) -> DecisionTrace:
    """Shrink a failing decision list to a minimal deterministic repro.

    ``is_failure`` decides, from a full :class:`RunResult`, whether a run
    still exhibits the defect — an uncaught error, or a specific race
    finding.  Three passes: binary-search the shortest failing prefix
    (the unforced tail falls back to default tie-breaks), then drop the
    decisions that merely restate the default choice, then try eliding
    each remaining decision outright (schedule divergence counts as
    not-failing).
    """

    def fails(forced: list[tuple[int, int]]) -> tuple[bool, RunResult]:
        run, _ = run_schedule(scenario, dict(forced))
        return is_failure(run), run

    # 1. shortest failing prefix, by bisection
    lo, hi = 0, len(decisions)
    while lo < hi:
        mid = (lo + hi) // 2
        failed, _ = fails(decisions[:mid])
        if failed:
            hi = mid
        else:
            lo = mid + 1
    prefix = decisions[:lo]
    # bisection assumes failure is monotone in prefix length; verify, and
    # fall back to the full decision list if the assumption broke
    failed, run = fails(prefix)
    if not failed:
        prefix = list(decisions)
        failed, run = fails(prefix)
        if not failed:
            raise RuntimeError(
                "failing decision list no longer reproduces the failure"
            )
    # 2. drop default-restating decisions: keep only the choices that
    # differ from the default tie-break at their step
    defaults = {p.step: p.candidates[0] for p in run.points}
    trimmed = [
        (step, seq) for step, seq in prefix if defaults.get(step) != seq
    ]
    failed, _ = fails(trimmed)
    if failed:
        prefix = trimmed
    # 3. greedy single-decision elision to a fixed point
    changed = True
    while changed:
        changed = False
        for index in range(len(prefix) - 1, -1, -1):
            attempt = prefix[:index] + prefix[index + 1 :]
            failed, _ = fails(attempt)
            if failed:
                prefix = attempt
                changed = True
    return DecisionTrace(scenario=scenario.name, decisions=list(prefix))
