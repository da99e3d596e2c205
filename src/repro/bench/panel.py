"""The one protocol every pinned bench panel follows.

A *panel* is a named, deterministic experiment whose simulated outcomes
are pinned in ``BENCH_<name>_baseline.json`` at the repository root.  A
panel module supplies only what is genuinely its own — how to run one
mode, which values a run pins, which claims a run must satisfy
regardless of any baseline, and how to print it — as a :class:`Panel`.
Everything else lives here, once:

* the baseline file layout — ``{"schema": 1, "modes": {mode: section}}``,
  one section per sweep mode because reduced modes shrink workloads and
  legitimately produce different values; writes merge per mode;
* the check — the panel's semantic problems, then a recursive *exact*
  diff of the whole section (the simulator is deterministic: any drift,
  and any key present on one side only, is a behaviour change), then one
  host wall-clock gate;
* the CLI step — run → render → ``--write-baseline`` (refused when the
  run fails its own claims) → ``--check`` → ``--out`` → one more run per
  requested :class:`Observer` (``--sentinel``, ``--analyze``), whatever
  the panel.

The result classes the panel modules define (``ScalingPanel``,
``ChurnPanel``, …) are one *run* of a panel; :class:`Panel` is the
recipe.
"""

from __future__ import annotations

import gc
import json
import pathlib
import time
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.analysis import admission
from repro.regions.kernel import get_kernel
from repro.runtime import sentinel
from repro.runtime.probe import Enablement

REPO_ROOT = pathlib.Path(__file__).resolve().parents[3]

#: version of the baseline file layout above.  Section shapes need no
#: version of their own: the exact diff reports any key that appears,
#: disappears or moves.
SCHEMA = 1

MODES = ("full", "quick", "smoke")

#: relative host wall-clock regression ``--check`` tolerates (CI machines
#: are noisy; simulated outputs are exact, host timing is not) ...
ELAPSED_TOLERANCE = 0.20

#: ... plus this much absolute jitter, which is all that matters for a
#: sub-second panel (the service replay pins 0.13 s)
ELAPSED_SLACK_SECONDS = 1.0

#: prefixes of section keys that hold host timing, at any depth: the
#: exact diff skips them, the wall gate compares the top-level wall key
_WALL_KEY = "wall_seconds"
_HOST_KEY_PREFIXES = (_WALL_KEY, "speedup_vs_")


@dataclass(frozen=True)
class Panel:
    """What one bench panel supplies; see the module docstring."""

    #: CLI flag (``--<name>``) and baseline file (``BENCH_<name>_…``)
    name: str
    #: CLI help text
    help: str
    #: mode → result (any object the other three callables understand)
    run: Callable[[str], Any]
    #: result → the JSON-able section to pin: simulated values plus a
    #: top-level ``wall_seconds[_total]``
    section: Callable[[Any], dict]
    #: result → human-readable report
    render: Callable[[Any], str]
    #: result → violated baseline-independent claims (empty = clean)
    semantic: Callable[[Any], list[str]] = lambda result: []
    #: modes the panel distinguishes; any other request runs the first
    modes: tuple[str, ...] = MODES

    @property
    def baseline_path(self) -> pathlib.Path:
        return REPO_ROOT / f"BENCH_{self.name}_baseline.json"


def panel_mode(quick: bool, smoke: bool) -> str:
    if smoke:
        return "smoke"
    return "quick" if quick else "full"


def load_baseline(path: pathlib.Path) -> dict | None:
    if not path.exists():
        return None
    return json.loads(path.read_text())


def write_baseline(
    panel: Panel, mode: str, result: Any, path: pathlib.Path | None = None
) -> pathlib.Path:
    """Merge this run's section into the baseline file (kept per mode)."""
    path = path or panel.baseline_path
    baseline = load_baseline(path) or {"modes": {}}
    baseline["schema"] = SCHEMA
    baseline["modes"][mode] = panel.section(result)
    path.write_text(json.dumps(baseline, indent=2, sort_keys=True) + "\n")
    return path


def _diff(path: str, want: Any, got: Any, problems: list[str]) -> None:
    """Recursive exact comparison with dotted-path problem reports."""
    if isinstance(want, dict) and isinstance(got, dict):
        for key in sorted(set(want) | set(got)):
            if key.startswith(_HOST_KEY_PREFIXES):
                continue
            if key not in want:
                problems.append(f"{path}.{key}: not in baseline")
            elif key not in got:
                problems.append(f"{path}.{key}: in baseline but not in run")
            else:
                _diff(f"{path}.{key}", want[key], got[key], problems)
    elif isinstance(want, list) and isinstance(got, list):
        for index in range(max(len(want), len(got))):
            item = f"{path}[{index}]"
            if index >= len(want):
                problems.append(f"{item}: not in baseline")
            elif index >= len(got):
                problems.append(f"{item}: in baseline but not in run")
            else:
                _diff(item, want[index], got[index], problems)
    elif want != got:
        problems.append(f"{path}: baseline {want!r}, run {got!r}")


def _host_total(section: dict) -> float | None:
    return next(
        (v for key, v in section.items() if key.startswith(_WALL_KEY)), None
    )


def check_panel(
    panel: Panel, mode: str, result: Any, baseline: dict | None
) -> list[str]:
    """Compare a fresh run against a loaded baseline file.

    Returns human-readable problems; empty means the run matches.  The
    semantic claims apply on top of the diff — they would catch a
    baseline that was itself regenerated broken.
    """
    problems = list(panel.semantic(result))
    if baseline is None:
        return problems + [f"no baseline file at {panel.baseline_path}"]
    if baseline.get("schema") != SCHEMA:
        return problems + [
            f"baseline schema {baseline.get('schema')!r} != {SCHEMA}"
        ]
    pinned = baseline.get("modes", {}).get(mode)
    if pinned is None:
        return problems + [f"baseline has no {mode!r} section"]
    # compare what a write would pin, not the in-memory section: JSON
    # turns tuples into lists and non-string keys into strings
    fresh = json.loads(json.dumps(panel.section(result)))
    _diff(mode, pinned, fresh, problems)
    pinned_wall, wall = _host_total(pinned), _host_total(fresh)
    if pinned_wall and wall is not None:
        limit = pinned_wall * (1.0 + ELAPSED_TOLERANCE) + ELAPSED_SLACK_SECONDS
        if wall > limit:
            problems.append(
                f"wall clock regressed: {wall:.1f}s vs baseline "
                f"{pinned_wall:.1f}s (>{ELAPSED_TOLERANCE * 100.0:.0f}% "
                f"+ {ELAPSED_SLACK_SECONDS:.0f}s over)"
            )
    return problems


# -- observers: re-run any panel under a process-wide Enablement ----------------


@dataclass(frozen=True)
class Observer:
    """A runtime observer kind every panel can be re-run under."""

    #: CLI flag (``--<flag>``)
    flag: str
    #: CLI help text
    help: str
    #: the switch that auto-attaches the observer to every new runtime ...
    enablement: Enablement
    #: ... and the config it is enabled with for a bench run
    config: Callable[[], Any]
    #: (attached observers, plain wall, observed wall) → report lines and
    #: the failure that makes the run exit non-zero (``None`` = clean)
    summarise: Callable[[list, float, float], tuple[list[str], str | None]]


def _sentinel_summary(
    sentinels: list[sentinel.RuntimeSentinel], plain: float, observed: float
) -> tuple[list[str], str | None]:
    checks = sum(s.checks for s in sentinels)
    scans = sum(s.scans for s in sentinels)
    violations = sum(len(s.violations) for s in sentinels)
    overhead = (observed / plain - 1.0) * 100.0 if plain else 0.0
    lines = [
        f"(sentinel: {observed:.1f}s wall time, {overhead:+.1f}% overhead, "
        f"{checks} checks, {scans} scans, {violations} violation(s))"
    ]
    lines += [line for s in sentinels for line in s.report_lines()[1:]]
    failure = f"{violations} invariant violation(s) detected"
    return lines, failure if violations else None


def _analysis_summary(
    controllers: list[admission.AdmissionController],
    plain: float,
    observed: float,
) -> tuple[list[str], str | None]:
    reports = [report for c in controllers for report in c.reports]
    analysis_time = sum(report.elapsed for report in reports)
    counts = {"error": 0, "warning": 0, "info": 0}
    for report in reports:
        for severity, count in report.counts().items():
            counts[severity] += count
    share = analysis_time / observed * 100.0 if observed else 0.0
    lines = [
        f"(analysis: {analysis_time * 1000.0:.1f} ms over {len(reports)} "
        f"submission(s) ({share:.1f}% of {observed:.1f}s wall time), "
        f"{counts['error']} error(s), {counts['warning']} warning(s), "
        f"{counts['info']} info(s))"
    ]
    for report in reports:
        if not report.clean:
            lines += [f"  {line}" for line in report.render_lines(max_findings=10)]
    failure = f"{counts['error']} error finding(s) detected"
    return lines, failure if counts["error"] else None


OBSERVERS = (
    Observer(
        flag="sentinel",
        help="re-run each requested panel with the runtime invariant "
        "sentinel attached; report checking overhead and any violations "
        "(non-zero exit if an invariant fails)",
        enablement=sentinel.ENABLEMENT,
        config=sentinel.SentinelConfig.bench_profile,
        summarise=_sentinel_summary,
    ),
    Observer(
        flag="analyze",
        help="re-run each requested panel with static admission analysis "
        "attached; report analysis wall time and finding counts "
        "(non-zero exit if any error finding surfaces)",
        enablement=admission.ENABLEMENT,
        config=lambda: admission.AdmissionConfig(strict=False),
        summarise=_analysis_summary,
    ),
)


def _timed_run(panel: Panel, mode: str, cold: bool) -> tuple[Any, float]:
    if cold:
        # a second run in the same process inherits the first one's
        # interned regions and op-LRU entries plus their GC pressure,
        # which alone inflates wall time by >10% on the stencil sweep.
        # Cold-start every compared run so the delta measures the
        # observer, not cache history.
        get_kernel().reset()
        gc.collect()
    started = time.perf_counter()
    result = panel.run(mode)
    return result, time.perf_counter() - started


def run_panel(
    panel: Panel,
    mode: str,
    *,
    write: bool = False,
    check: bool = False,
    out: pathlib.Path | None = None,
    observers: Sequence[Observer] = (),
) -> bool:
    """The CLI step for one panel; returns whether it passed.

    A run that violates the panel's own claims fails with or without
    ``--check``, and is never written as a baseline.  ``out`` receives
    ``<panel>.json``, the section ``--write-baseline`` would pin.  Each
    observer costs one more run, whose result is discarded: only what
    the observer saw is reported.
    """
    if mode not in panel.modes:
        mode = panel.modes[0]
    result, plain_wall = _timed_run(panel, mode, cold=bool(observers))
    print(panel.render(result))
    print()
    problems = panel.semantic(result)
    if write and problems:
        print(f"{panel.name}: baseline not written, the run fails its claims")
    elif write:
        print(f"wrote {write_baseline(panel, mode, result)}")
    if check:
        problems = check_panel(
            panel, mode, result, load_baseline(panel.baseline_path)
        )
    for problem in problems:
        print(f"{panel.name} {'check' if check else 'panel'}: {problem}")
    if check and not problems:
        print(f"{panel.name} check: matches committed baseline")
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        path = out / f"{panel.name}.json"
        section = panel.section(result)
        path.write_text(json.dumps(section, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}")
    print()
    passed = not problems
    for observer in observers:
        observer.enablement.enable_globally(observer.config())
        try:
            _, observed_wall = _timed_run(panel, mode, cold=True)
        finally:
            attached = observer.enablement.drain_created()
            observer.enablement.reset_global()
        lines, failure = observer.summarise(attached, plain_wall, observed_wall)
        if failure:
            lines.append(f"{panel.name} --{observer.flag}: {failure}")
            passed = False
        print("\n".join(lines))
        print()
    return passed
