"""Opt-in submit-time admission: the static front door to the sentinel.

With admission active, every root task submitted through
:meth:`AllScaleRuntime.submit` is analyzed *before* the scheduler sees it
(children re-dispatched during splitting are not re-analyzed — the
expansion already covered them statically).  Findings accumulate on the
controller and surface as ``analysis.*`` counters in the runtime's
metrics; **strict** mode raises :class:`AdmissionError` on any
error-severity finding, rejecting the task before a single simulation
event runs — the static counterpart of the sentinel's strict mode.

The controller subscribes to the ``submit`` event of the runtime's probe
(:mod:`repro.runtime.probe`).  Enablement is the same
:class:`~repro.runtime.probe.Enablement` switch the sentinel uses:
per-runtime (``AdmissionController(runtime).attach()``), process-wide
(:func:`enable_globally`, used by ``bench --analyze`` and the CLI), or
for a whole test run (``REPRO_ANALYZE=1`` / ``warn`` / ``strict``,
honoured by every new ``AllScaleRuntime``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.analysis.expansion import AnalysisConfig
from repro.analysis.findings import AnalysisReport
from repro.analysis.program import analyze_task
from repro.runtime.probe import Enablement

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.runtime import AllScaleRuntime
    from repro.runtime.tasks import TaskSpec


class AdmissionError(RuntimeError):
    """A task was rejected at submit time (strict admission)."""


@dataclass
class AdmissionConfig:
    """Behaviour knobs of submit-time analysis."""

    #: reject (raise) on error-severity findings instead of just recording
    strict: bool = False
    #: bounds for the per-submission analyzer runs
    analysis: AnalysisConfig = field(
        default_factory=AnalysisConfig.admission_profile
    )
    #: stop analyzing after this many submissions per runtime (admission
    #: is a spot check at the front door, not a profiler; iterative apps
    #: submit the same task shape every timestep)
    max_submissions: int = 256


class AdmissionController:
    """Analyzes one runtime's submissions at the front door."""

    def __init__(
        self,
        runtime: "AllScaleRuntime",
        config: AdmissionConfig | None = None,
    ) -> None:
        self.runtime = runtime
        self.config = config or AdmissionConfig()
        self.reports: list[AnalysisReport] = []
        self.analyzed = 0
        self.skipped = 0

    def attach(self) -> "AdmissionController":
        probe = self.runtime.probe
        if probe.observer(AdmissionController) not in (None, self):
            raise RuntimeError("runtime already has an admission controller")
        probe.attach(self)
        return self

    def detach(self) -> None:
        self.runtime.probe.detach(self)

    def on_submit(self, task: "TaskSpec") -> None:
        """Analyze one root submission; raises in strict mode on errors."""
        if self.analyzed >= self.config.max_submissions:
            self.skipped += 1
            return
        self.analyzed += 1
        report = analyze_task(task, self.config.analysis)
        self.reports.append(report)
        metrics = self.runtime.metrics
        metrics.incr("analysis.submissions")
        counts = report.counts()
        for severity in ("error", "warning", "info"):
            if counts[severity]:
                metrics.incr(f"analysis.findings.{severity}", counts[severity])
        metrics.incr("analysis.tasks_expanded", report.tasks_expanded)
        metrics.incr("analysis.pairs_checked", report.pairs_checked)
        metrics.incr("analysis.elapsed", report.elapsed)
        if self.config.strict and report.errors:
            raise AdmissionError(
                f"task {task.name!r} rejected by static analysis:\n"
                + "\n".join(str(f) for f in report.errors)
            )

    def combined_report(self) -> AnalysisReport:
        """All submissions' findings folded into one (deduplicated)."""
        out = AnalysisReport(subject=f"runtime:{id(self.runtime):#x}")
        for report in self.reports:
            out.merge(report)
        return out


# -- process-wide enablement (bench --analyze, REPRO_ANALYZE=1) -----------------

ENABLEMENT: Enablement[AdmissionConfig, AdmissionController] = Enablement(
    "REPRO_ANALYZE",
    lambda value: AdmissionConfig(strict=value == "strict"),
    lambda runtime, config: AdmissionController(runtime, config).attach(),
)
enable_globally = ENABLEMENT.enable_globally
disable_globally = ENABLEMENT.disable_globally
reset_global = ENABLEMENT.reset_global
global_config = ENABLEMENT.global_config
drain_created = ENABLEMENT.drain_created
attach_from_global = ENABLEMENT.attach_from_global
