"""The probe seam: one emission per transition, observers subscribe."""

import ast
from pathlib import Path

import pytest

from repro.analysis.admission import (
    AdmissionConfig,
    AdmissionController,
    AdmissionError,
)
from repro.apps.stencil import StencilWorkload, stencil_allscale
from repro.items.grid import Grid
from repro.runtime.config import RuntimeConfig
from repro.runtime.index import HierarchicalIndex
from repro.runtime.locks import LockTable
from repro.runtime.policies import RoundRobinPolicy
from repro.runtime.probe import EVENTS, INERT, Probe
from repro.runtime.runtime import AllScaleRuntime
from repro.runtime.sentinel import (
    RuntimeSentinel,
    SentinelConfig,
    SentinelViolationError,
)
from repro.runtime.tasks import TaskSpec
from repro.runtime.tracing import ExecutionTracer
from repro.sim.cluster import Cluster, ClusterSpec
from repro.verify.monitor import VerifyMonitor

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
TASK_EVENTS = (
    "task_enqueued", "task_start", "task_data_ready", "task_locks_held",
    "task_finish",
)


class Recorder:
    """Appends ``(event, args)`` for every catalogue event."""

    def __init__(self):
        self.stream = []
        for event in EVENTS:
            setattr(self, "on_" + event, self._appender(event))

    def _appender(self, event):
        return lambda *args: self.stream.append((event, args))


def small_cluster(nodes=2):
    return Cluster(
        ClusterSpec(num_nodes=nodes, cores_per_node=2, flops_per_core=1e9)
    )


def run_stencil(observers, policy=None):
    """A 2-node functional stencil with ``observers(runtime)`` attached."""
    attached = []

    def on_runtime(runtime):
        auto = runtime.probe.observer(RuntimeSentinel)
        if auto is not None:  # REPRO_SENTINEL fixture: start from bare
            auto.detach()
        for observer in observers(runtime):
            if isinstance(observer, RuntimeSentinel):
                observer.attach()
            elif isinstance(observer, VerifyMonitor):
                runtime.engine.set_hb(observer)
            else:
                runtime.probe.attach(observer)
            attached.append(observer)

    result = stencil_allscale(
        small_cluster(),
        StencilWorkload(n_per_node=8, timesteps=2, functional=True),
        RuntimeConfig(),
        policy,
        on_runtime=on_runtime,
    )
    runtime = result.extras["runtime"]
    runtime.engine.set_hb(None)
    return result, attached


def printable(stream):
    """The stream with object identities replaced by names."""

    def show(value):
        name = getattr(value, "name", None)
        if isinstance(name, str):
            return name
        if isinstance(value, (int, float, str, tuple, type(None))):
            return value
        return type(value).__name__

    return [(event, tuple(show(a) for a in args)) for event, args in stream]


class TestEventStream:
    def test_task_lifecycle_is_ordered_and_the_stream_repeats(self):
        _result, (first,) = run_stencil(lambda runtime: [Recorder()])
        _result, (second,) = run_stencil(lambda runtime: [Recorder()])
        assert printable(first.stream) == printable(second.stream)
        stamps = {}
        for event, args in first.stream:
            if event in TASK_EVENTS:
                stamps.setdefault(args[1], {})[event] = args[-1]
        complete = [s for s in stamps.values() if len(s) == len(TASK_EVENTS)]
        assert complete
        for stamp in complete:
            times = [stamp[event] for event in TASK_EVENTS]
            assert times == sorted(times)
        # every leaf that started also staged, locked and finished
        for stamp in stamps.values():
            if "task_start" in stamp:
                assert {"task_locks_held", "task_finish"} <= set(stamp)

    def test_every_catalogue_event_kind_in_a_stencil_is_known(self):
        # round-robin: the data is born at first touch, inside the stream
        # (the default policy allocates it at registration, before the
        # observers attach)
        _result, (recorder,) = run_stencil(
            lambda runtime: [Recorder()], policy=RoundRobinPolicy()
        )
        seen = {event for event, _args in recorder.stream}
        assert seen <= set(EVENTS)
        assert {"submit", "frag_write", "frag_read", "table_read",
                "table_publish", "ownership_update", "plan_finished",
                *TASK_EVENTS} <= seen
        kinds = {a[3] for e, a in recorder.stream if e == "frag_write"}
        assert "allocate" in kinds and "replica-in" in kinds

    def test_observers_together_see_what_each_sees_alone(self):
        def all_three(runtime):
            return [
                RuntimeSentinel(runtime, SentinelConfig(strict=False)),
                VerifyMonitor(),
                ExecutionTracer(),
            ]

        together, (sentinel, monitor, tracer) = run_stencil(all_three)
        _r, (lone_sentinel,) = run_stencil(
            lambda rt: [RuntimeSentinel(rt, SentinelConfig(strict=False))]
        )
        _r, (lone_monitor,) = run_stencil(lambda rt: [VerifyMonitor()])
        alone, (lone_tracer,) = run_stencil(lambda rt: [ExecutionTracer()])
        assert sentinel.violations == lone_sentinel.violations == []
        assert sentinel.checks == lone_sentinel.checks
        # (the monitor flags the stencil's home-block first touch against
        # the init tasks with or without company, at the parent too)
        assert monitor.races == lone_monitor.races
        assert monitor.footprints == lone_monitor.footprints
        assert tracer.records == lone_tracer.records
        assert together.elapsed == alone.elapsed


class TestAttachDetach:
    def make_runtime(self):
        runtime = AllScaleRuntime(small_cluster())
        auto = runtime.probe.observer(RuntimeSentinel)
        if auto is not None:
            auto.detach()
        return runtime

    def test_detach_empties_every_handler_tuple(self):
        runtime = self.make_runtime()
        probe = runtime.probe
        sentinel = RuntimeSentinel(runtime).attach()
        tracer = ExecutionTracer()
        probe.attach(tracer)
        probe.attach(tracer)  # idempotent
        assert probe.observer(RuntimeSentinel) is sentinel
        assert len(probe.task_start) == 2
        sentinel.detach()
        assert probe.observer(RuntimeSentinel) is None
        assert probe.task_start == (tracer.on_task_start,)
        probe.detach(tracer)
        assert all(getattr(probe, event) == () for event in EVENTS)

    def test_hb_monitor_follows_the_engine(self):
        cluster = small_cluster()
        before = AllScaleRuntime(cluster)
        monitor = VerifyMonitor()
        cluster.engine.set_hb(monitor)
        born_later = AllScaleRuntime(cluster)
        for runtime in (before, born_later):
            assert runtime.probe.observer(VerifyMonitor) is monitor
        cluster.engine.set_hb(None)
        for runtime in (before, born_later):
            assert runtime.probe.observer(VerifyMonitor) is None
            assert runtime.probe.table_read == ()

    def test_components_stand_alone_on_the_inert_probe(self):
        cluster = small_cluster()
        table = LockTable(cluster.engine, pid=0)
        index = HierarchicalIndex(cluster.network, 2)
        assert table.probe is INERT and index.probe is INERT
        grid = Grid((4, 4), name="g")
        index.register_item(grid)
        index.update_ownership(grid, 0, grid.full_region)
        assert table.try_acquire("t", {}, {grid: grid.full_region})
        with pytest.raises(RuntimeError):
            INERT.attach(Recorder())
        assert Probe(cluster.engine).barrier == ()


@pytest.mark.sentinel_injection
class TestHandlerErrorsPropagate:
    def test_strict_sentinel_raises_from_the_emitting_transition(self):
        runtime = AllScaleRuntime(small_cluster())
        RuntimeSentinel(runtime, SentinelConfig(strict=True)).attach()
        grid = Grid((8, 8), name="g")
        runtime.register_item(grid, placement=grid.decompose(2))
        source = runtime.process(0).data_manager
        payload = source.export_owned(grid, source.owned_region(grid))
        payload.nbytes //= 2
        with pytest.raises(SentinelViolationError, match="payload_bytes"):
            runtime.process(1).data_manager.import_owned(grid, payload)

    def test_strict_admission_raises_from_submit(self):
        runtime = AllScaleRuntime(small_cluster())
        AdmissionController(runtime, AdmissionConfig(strict=True)).attach()
        grid = Grid((8, 8), name="g")
        runtime.register_item(grid)
        half = grid.box((0, 0), (8, 4))

        def racy_children(_owners):
            return [
                TaskSpec(name=f"c{k}", writes={grid: half}, size_hint=1)
                for k in range(2)
            ]

        racy = TaskSpec(
            name="racy", writes={grid: half}, splitter=racy_children,
            size_hint=64,
        )
        with pytest.raises(AdmissionError):
            runtime.submit(racy)
        assert not any(p.queue or p.active for p in runtime.processes)


class TestLayering:
    def test_runtime_and_sim_do_not_import_their_checkers(self):
        """The dependency points one way: observers import the runtime.

        The one sanctioned exception is the auto-attach site in
        ``runtime/runtime.py`` (``REPRO_ANALYZE`` must work from entry
        points that import nothing but the runtime)."""
        sanctioned = {("runtime/runtime.py", "repro.analysis")}
        offenders = set()
        for package in ("runtime", "sim"):
            for path in sorted((SRC / package).rglob("*.py")):
                tree = ast.parse(path.read_text())
                for node in ast.walk(tree):
                    if isinstance(node, ast.Import):
                        names = [alias.name for alias in node.names]
                    elif isinstance(node, ast.ImportFrom):
                        names = [node.module or ""]
                        if node.module == "repro":
                            names = [
                                f"repro.{alias.name}" for alias in node.names
                            ]
                    else:
                        continue
                    for name in names:
                        for banned in ("repro.verify", "repro.analysis"):
                            if name == banned or name.startswith(banned + "."):
                                offenders.add(
                                    (str(path.relative_to(SRC)), banned)
                                )
        assert offenders == sanctioned
