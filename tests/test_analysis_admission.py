"""Submit-time admission: attachment, metrics, strict rejection, env flag."""

import pytest

from repro.analysis import AdmissionConfig, AdmissionController, AdmissionError
from repro.analysis import admission
from repro.items.grid import Grid
from repro.runtime.runtime import AllScaleRuntime, RuntimeConfig
from repro.runtime.tasks import TaskSpec
from repro.sim.cluster import Cluster, ClusterSpec


@pytest.fixture(autouse=True)
def _isolate_global_admission():
    """Tests here manage process-wide admission themselves."""
    admission.reset_global()
    yield
    admission.drain_created()
    admission.reset_global()


def make_runtime(nodes=2):
    cluster = Cluster(ClusterSpec(num_nodes=nodes, cores_per_node=2))
    return AllScaleRuntime(cluster, RuntimeConfig(functional=False))


GRID = Grid((32,), name="g")


def span(lo, hi):
    return GRID.box((lo,), (hi,))


def clean_task(name="ok"):
    children = [
        TaskSpec(name=f"{name}.0", writes={GRID: span(0, 8)}),
        TaskSpec(name=f"{name}.1", writes={GRID: span(8, 16)}),
    ]
    return TaskSpec(
        name=name,
        writes={GRID: span(0, 16)},
        splitter=lambda _owners: children,
    )


def racy_task(name="bad"):
    children = [
        TaskSpec(name=f"{name}.0", writes={GRID: span(0, 10)}),
        TaskSpec(name=f"{name}.1", writes={GRID: span(8, 16)}),
    ]
    return TaskSpec(
        name=name,
        writes={GRID: span(0, 16)},
        splitter=lambda _owners: children,
    )


class TestController:
    def test_clean_submission_records_metrics(self):
        runtime = make_runtime()
        controller = AdmissionController(runtime).attach()
        runtime.register_item(GRID)
        runtime.wait(runtime.submit(clean_task()))
        assert controller.analyzed == 1
        assert runtime.metrics.counter("analysis.submissions") == 1
        assert runtime.metrics.counter("analysis.findings.error") == 0
        assert runtime.metrics.counter("analysis.tasks_expanded") >= 3
        assert controller.combined_report().clean

    def test_warn_mode_records_but_admits(self):
        runtime = make_runtime()
        controller = AdmissionController(runtime).attach()
        runtime.register_item(GRID)
        runtime.wait(runtime.submit(racy_task()))
        report = controller.combined_report()
        assert not report.clean
        assert runtime.metrics.counter("analysis.findings.error") >= 1

    def test_strict_mode_rejects_before_execution(self):
        runtime = make_runtime()
        AdmissionController(runtime, AdmissionConfig(strict=True)).attach()
        runtime.register_item(GRID)
        with pytest.raises(AdmissionError) as excinfo:
            runtime.submit(racy_task())
        assert "sibling_write_overlap" in str(excinfo.value)
        # nothing was scheduled
        assert runtime.metrics.counter("sched.local_dispatch") == 0
        assert runtime.metrics.counter("sched.remote_dispatch") == 0

    def test_strict_mode_admits_clean_tasks(self):
        runtime = make_runtime()
        AdmissionController(runtime, AdmissionConfig(strict=True)).attach()
        runtime.register_item(GRID)
        runtime.wait(runtime.submit(clean_task()))

    def test_submission_budget(self):
        runtime = make_runtime()
        config = AdmissionConfig(max_submissions=2)
        controller = AdmissionController(runtime, config).attach()
        runtime.register_item(GRID)
        for k in range(4):
            runtime.wait(runtime.submit(clean_task(f"ok{k}")))
        assert controller.analyzed == 2
        assert controller.skipped == 2

    def test_double_attach_rejected(self):
        runtime = make_runtime()
        AdmissionController(runtime).attach()
        with pytest.raises(RuntimeError):
            AdmissionController(runtime).attach()

    def test_detach(self):
        runtime = make_runtime()
        controller = AdmissionController(runtime).attach()
        controller.detach()
        assert runtime.probe.observer(AdmissionController) is None


class TestGlobalEnablement:
    def test_enable_globally_auto_attaches(self):
        admission.enable_globally(AdmissionConfig())
        runtime = make_runtime()
        controller = runtime.probe.observer(AdmissionController)
        assert controller is not None
        created = admission.drain_created()
        assert created == [controller]
        assert admission.drain_created() == []

    def test_disable_globally_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_ANALYZE", "1")
        admission.disable_globally()
        assert admission.global_config() is None
        runtime = make_runtime()
        assert runtime.probe.observer(AdmissionController) is None

    def test_env_variable_strict(self, monkeypatch):
        monkeypatch.setenv("REPRO_ANALYZE", "strict")
        config = admission.global_config()
        assert config is not None and config.strict

    def test_env_variable_off(self, monkeypatch):
        monkeypatch.setenv("REPRO_ANALYZE", "0")
        assert admission.global_config() is None

    def test_env_variable_warn(self, monkeypatch):
        monkeypatch.setenv("REPRO_ANALYZE", "1")
        config = admission.global_config()
        assert config is not None and not config.strict
        runtime = make_runtime()
        assert runtime.probe.observer(AdmissionController) is not None
