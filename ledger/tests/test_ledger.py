"""Tests of the benchmark itself (not part of tier-1).

Run with ``PYTHONPATH=src python -m pytest ledger/tests -q`` from the
repository root.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from ledger import calibrate  # noqa: E402
from ledger import tracer as tracer_mod  # noqa: E402
from ledger.tracer import LAYERS, TARGETS, TRACKED_CLASSES, Tracer  # noqa: E402
from ledger.workloads import (  # noqa: E402
    WORKLOADS,
    service_trace,
    tpc_workload,
)

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
REGIONS = LAYERS.index("regions")
INDEX = LAYERS.index("runtime.index")


class FakeClock:
    """A clock the traced code advances by hand: exact span arithmetic."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def clock() -> FakeClock:
    return FakeClock()


@pytest.fixture
def tracer(clock: FakeClock) -> Tracer:
    return Tracer(clock=clock)


# -- self-time arithmetic -------------------------------------------------------------


class TestSelfTime:
    def test_nested_calls(self, tracer, clock):
        def inner():
            clock.advance(2.0)

        traced_inner = tracer.wrap(inner, REGIONS, "inner")

        def outer():
            clock.advance(1.0)
            traced_inner()
            clock.advance(3.0)

        traced_outer = tracer.wrap(outer, INDEX, "outer")
        with tracer.section("rep", "apps") as section:
            clock.advance(0.5)
            traced_outer()
        assert section.cells[("runtime.index", "outer", "apps")] == [1, 4.0, 6.0]
        assert section.cells[("regions", "inner", "runtime.index")] == [1, 2.0, 2.0]
        self_s = section.layer_self()
        assert self_s["apps"] == 0.5  # the section's own, unwrapped time
        assert sum(self_s.values()) == section.wall == 6.5
        assert section.layer_calls()["apps"] == 0  # the root span is no call

    def test_recursive_calls(self, tracer, clock):
        def countdown(n):
            clock.advance(1.0)
            if n:
                traced(n - 1)

        traced = tracer.wrap(countdown, REGIONS, "countdown")
        with tracer.section("rep", "apps") as section:
            traced(3)
        # a call that crosses no layer boundary opens no span: it is
        # counted, and its time stays with the enclosing span of its layer
        assert section.cells[("regions", "countdown", "apps")] == [1, 4.0, 4.0]
        assert section.cells[("regions", "countdown", "regions")] == [3, 0.0, 0.0]
        assert section.layer_self()["regions"] == section.wall == 4.0
        assert section.layer_calls()["regions"] == 4

    def test_exception_unwinds_the_span(self, tracer, clock):
        def boom():
            clock.advance(2.0)
            raise ValueError("expected")

        def fine():
            clock.advance(1.0)

        traced_boom = tracer.wrap(boom, REGIONS, "boom")
        traced_fine = tracer.wrap(fine, INDEX, "fine")
        with tracer.section("rep", "apps") as section:
            with pytest.raises(ValueError):
                traced_boom()
            traced_fine()  # must be a child of the section again
        assert section.cells[("regions", "boom", "apps")] == [1, 2.0, 2.0]
        assert section.cells[("runtime.index", "fine", "apps")] == [1, 1.0, 1.0]
        assert section.layer_self()["apps"] == 0.0
        assert section.wall == 3.0

    def test_sections_do_not_leak_into_each_other(self, tracer, clock):
        traced = tracer.wrap(lambda: clock.advance(1.0), REGIONS, "tick")
        with tracer.section("first", "apps") as first:
            traced()
        traced()  # between sections: dropped
        with tracer.section("second", "apps") as second:
            traced()
            traced()
        assert first.cells[("regions", "tick", "apps")][0] == 1
        assert second.cells[("regions", "tick", "apps")][0] == 2
        with pytest.raises(RuntimeError):
            with tracer.section("outer", "apps"):
                with tracer.section("inner", "apps"):
                    pass


# -- generators --------------------------------------------------------------------------


class TestGenerators:
    def test_spans_cover_resumes_not_the_park(self, tracer, clock):
        def coroutine():
            clock.advance(1.0)
            got = yield "first"
            clock.advance(2.0)
            yield got
            clock.advance(4.0)
            return "done"

        traced = tracer.wrap(coroutine, INDEX, "coroutine")
        with tracer.section("rep", "apps") as section:
            gen = traced()
            assert next(gen) == "first"
            clock.advance(10.0)  # parked on a future: nobody's layer time
            assert gen.send("echo") == "echo"
            with pytest.raises(StopIteration) as stop:
                gen.send(None)
            assert stop.value.value == "done"
        assert section.cells[("runtime.index", "coroutine", "apps")] == [3, 7.0, 7.0]
        assert section.layer_self()["apps"] == 10.0

    def test_early_close(self, tracer, clock):
        cleaned = []

        def coroutine():
            try:
                clock.advance(1.0)
                yield 1
                yield 2
            finally:
                clock.advance(0.5)
                cleaned.append(True)

        traced = tracer.wrap(coroutine, INDEX, "coroutine")
        with tracer.section("rep", "apps") as section:
            gen = traced()
            next(gen)
            gen.close()
            with pytest.raises(StopIteration):
                next(gen)
        assert cleaned == [True]
        calls, self_s, _total = section.cells[("runtime.index", "coroutine", "apps")]
        assert (calls, self_s) == (3, 1.5)

    def test_yield_from_delegation_and_throw(self, tracer, clock):
        def inner():
            clock.advance(1.0)
            try:
                yield "parked"
            except KeyError:
                clock.advance(2.0)
                return "recovered"

        traced_inner = tracer.wrap(inner, REGIONS, "inner")

        def outer():
            value = yield from traced_inner()
            return value

        traced_outer = tracer.wrap(outer, INDEX, "outer")
        with tracer.section("rep", "apps") as section:
            gen = traced_outer()
            assert next(gen) == "parked"
            with pytest.raises(StopIteration) as stop:
                gen.throw(KeyError("x"))
            assert stop.value.value == "recovered"
        assert section.cells[("regions", "inner", "runtime.index")][1] == 3.0
        assert section.layer_self()["runtime.index"] == 0.0

    def test_spawned_generators_and_callbacks_keep_their_own_layer(self):
        from repro.sim.engine import SimEngine

        tracer = Tracer()
        engine = SimEngine()
        fired = []

        def process():  # this module belongs to no layer: "other"
            yield 1.0
            fired.append(engine.now)

        tracer.install()
        try:
            with tracer.section("rep", "apps") as section:
                engine.spawn(process())
                engine.schedule(2.0, lambda: fired.append("callback"))
                engine.run()
        finally:
            tracer.uninstall()
        assert fired == [1.0, "callback"]
        layers = {layer for (layer, _f, _p) in section.cells}
        assert {"sim.engine", "other", "apps"} <= layers
        resumes = [
            cell[0]
            for (layer, function, _p), cell in section.cells.items()
            if layer == "other" and "process" in function
        ]
        assert sum(resumes) == 2  # started, then resumed after the delay


# -- install / uninstall -----------------------------------------------------------------


def _patched_attributes() -> dict:
    """Every attribute a pass replaces -> the object currently there."""
    found = {}
    for target, attrs in TARGETS.items():
        owner, _module = tracer_mod._resolve(target)
        for attr in attrs:
            found[(target, attr)] = vars(owner)[attr]
    for target in TRACKED_CLASSES:
        owner, _module = tracer_mod._resolve(target)
        found[(target, "__init__")] = vars(owner)["__init__"]
    return found


class TestInstall:
    def test_wrappers_fully_removed(self):
        import repro.service.core as service_core
        from repro.analysis.program import analyze_program

        before = _patched_attributes()
        tracer = Tracer()
        tracer.install()
        try:
            during = _patched_attributes()
            assert all(during[key] is not before[key] for key in before)
            # ``from m import f`` copies are patched too
            assert service_core.analyze_program is not analyze_program
            with pytest.raises(RuntimeError):
                tracer.install()
        finally:
            tracer.uninstall()
        after = _patched_attributes()
        assert all(after[key] is before[key] for key in before)
        assert service_core.analyze_program is analyze_program
        assert not tracer.installed

    def test_every_target_exists_and_has_a_layer(self):
        for target in TARGETS:
            _owner, module = tracer_mod._resolve(target)
            assert tracer_mod.layer_of_module(module) != tracer_mod.OTHER, target
        assert tracer_mod.layer_of_module("repro.verify.monitor") == tracer_mod.OTHER
        assert tracer_mod.layer_of_module(None) == tracer_mod.OTHER

    def test_traced_run_matches_untraced_and_sums_to_wall(self):
        from repro.regions.kernel import get_kernel

        prepared = WORKLOADS["stencil_w16"].prepare(1, "warm")
        get_kernel().reset()
        untraced = prepared.run()
        tracer = Tracer()
        tracer.install()
        try:
            get_kernel().reset()
            with tracer.section("rep", "apps") as section:
                traced = prepared.run()
        finally:
            tracer.uninstall()
        assert traced.sim_signature() == untraced.sim_signature()
        self_s = section.layer_self()
        assert sum(self_s.values()) == pytest.approx(section.wall, rel=1e-6)
        assert self_s["other"] == 0.0
        for layer in ("sim.engine", "regions", "runtime.process", "runtime.index"):
            assert self_s[layer] > 0.0
        for idle in ("service", "placement", "runtime.elastic", "mpi"):
            assert self_s[idle] == 0.0
        assert len(section.instances["HierarchicalIndex"]) == 1


# -- workload inputs are pure functions of the seed ---------------------------------


class TestSeeds:
    def test_service_trace(self):
        def encoded(seed: int) -> bytes:
            return json.dumps(
                service_trace(seed, 60).to_dict(), sort_keys=True
            ).encode()

        assert encoded(3) == encoded(3)
        assert encoded(3) != encoded(4)
        trace = service_trace(3, 200)
        kinds = [event.spec.kind for event in trace.events]
        assert kinds.count("bad_overlap") == 6 and kinds.count("compute") == 80
        assert all(
            a.at <= b.at for a, b in zip(trace.events, trace.events[1:])
        )

    def test_tpc_queries(self):
        from repro.apps.tpc import make_problem

        def queries(seed: int) -> bytes:
            workload, nodes = tpc_workload(seed, "warm")
            return make_problem(workload, nodes).queries.tobytes()

        assert queries(5) == queries(5)
        assert queries(5) != queries(6)


# -- load normalisation ----------------------------------------------------------------------


class TestCalibration:
    def test_normalised_seconds(self):
        calm = calibrate.REFERENCE_S
        assert calibrate.normalised(3.0, [calm, calm]) == pytest.approx(3.0)
        # a box whose kernel runs at half speed slows a repetition by less
        slowed = 3.0 * 2**calibrate.LOAD_EXPONENT
        assert 3.0 < slowed <= 6.0
        assert calibrate.normalised(slowed, [2 * calm, 2 * calm]) == pytest.approx(3.0)
        # one outlying sample does not move the load factor
        assert calibrate.normalised(
            3.0, [calm, calm, 5 * calm, calm, calm]
        ) == pytest.approx(3.0)

    def test_kernel_leaves_the_collector_as_it_was(self):
        import gc

        assert gc.isenabled()
        assert calibrate.kernel_seconds() > 0
        assert gc.isenabled()
        gc.disable()
        try:
            calibrate.kernel_seconds()
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_kernel_is_sampled_between_the_phases_of_a_run(self, tmp_path):
        report = tmp_path / "report.json"
        subprocess.run(
            [
                sys.executable, str(ROOT / "ledger" / "run.py"),
                "--workload", "service_mix", "--scale", "smoke",
                "--reps", "2", "--json", str(report),
            ],
            stdout=subprocess.DEVNULL, check=True, cwd=ROOT,
        )
        samples = json.loads(report.read_text())["samples"]
        assert samples["reps"] == 2
        # before and after set-up, after each repetition, after verification
        assert len(samples["kernel_s"]) == 5


# -- BENCHMARK.json ------------------------------------------------------------------------

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class TestBenchmarkFile:
    def test_schema(self):
        assert set(BENCHMARK) == {
            "command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer",
        }
        assert BENCHMARK["paths"] == ["ledger"]
        assert BENCHMARK["command"] == ["python3", "ledger/run.py"]
        assert 1 <= BENCHMARK["run_seconds"] <= 60
        assert 2 <= len(BENCHMARK["workloads"]) <= 8
        assert 1 <= len(BENCHMARK["end_to_end"]) <= 16
        assert 1 <= len(BENCHMARK["per_layer"]) <= 128
        names = []
        for workload in BENCHMARK["workloads"]:
            assert set(workload) == {"name", "why"}
            assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
            names.append(workload["name"])
        for metric in BENCHMARK["end_to_end"]:
            assert set(metric) == {"name", "unit", "better", "bound"}
            assert 0 < metric["bound"] <= 0.25
            names.append(metric["name"])
        for metric in BENCHMARK["per_layer"]:
            assert set(metric) == {"name", "unit", "better"}
            names.append(metric["name"])
        assert len(names) == len(set(names))
        assert all(NAME.match(name) for name in names)
        for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
            assert UNIT.match(metric["unit"]), metric
            assert metric["better"] in ("lower", "higher")
        setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
        assert (setup["unit"], setup["better"]) == ("s", "lower")
        assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])

    def test_workloads_match_the_registry(self):
        assert [
            (w["name"], w["why"]) for w in BENCHMARK["workloads"]
        ] == [(w.name, w.why) for w in WORKLOADS.values()]

    @pytest.mark.parametrize("trace", [0, 1])
    def test_smoke_run_prints_exactly_the_catalogue(self, trace):
        completed = subprocess.run(
            [
                sys.executable, str(ROOT / "ledger" / "run.py"),
                "--workload", "service_mix", "--scale", "smoke",
                "--reps", "1", "--trace", str(trace),
            ],
            stdout=subprocess.PIPE, text=True, check=True, cwd=ROOT,
        )
        result = json.loads(completed.stdout.strip().rsplit("\n", 1)[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        kind = "per_layer" if trace else "end_to_end"
        catalogue = {m["name"]: m["unit"] for m in BENCHMARK[kind]}
        assert {
            name: entry["unit"] for name, entry in result["metrics"].items()
        } == catalogue
        for name in catalogue:  # printed by name, for people, too
            assert f" {name} " in completed.stdout
        if trace:
            metrics = {k: v["value"] for k, v in result["metrics"].items()}
            for idle in (
                "runtime.elastic.churn_events", "runtime.balancer.migrations",
                "placement.pinned_tasks", "mpi.as_over_mpi",
            ):
                assert metrics[idle] == 0
            assert metrics["service.dispatches"] > 0
            assert metrics["analysis.tasks_expanded"] > 0
            assert metrics["trace_unattributed_share"] < 0.01

    def test_refuses_to_run_without_the_program(self, tmp_path):
        import shutil

        shutil.copytree(
            ROOT / "ledger", tmp_path / "ledger",
            ignore=shutil.ignore_patterns("out", "__pycache__"),
        )
        shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
        completed = subprocess.run(
            [
                sys.executable, str(tmp_path / "ledger" / "run.py"),
                "--workload", "stencil_w16", "--seed", "1", "--seconds", "1",
                "--trace", "0",
            ],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            cwd=tmp_path,
        )
        assert completed.returncode != 0
        assert completed.stdout == ""
