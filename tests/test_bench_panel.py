"""The panel protocol itself, over a toy panel: baseline file layout,
exact-match check, wall gate, and the CLI step with its ``--out`` file and
observer re-runs.  Per-panel files test only what a panel supplies
(section, semantic claims, rendering, schedules)."""

from __future__ import annotations

import copy
import dataclasses
import json
import math

import pytest

from repro.analysis.admission import AdmissionController
from repro.analysis.findings import AnalysisReport, Finding
from repro.bench import __main__ as bench_main
from repro.bench import panel as panel_mod
from repro.bench.panel import (
    OBSERVERS,
    SCHEMA,
    Panel,
    check_panel,
    load_baseline,
    panel_mode,
    run_panel,
    write_baseline,
)
from repro.runtime.runtime import AllScaleRuntime
from repro.runtime.sentinel import RuntimeSentinel
from repro.sim.cluster import Cluster, ClusterSpec


def _result(**changes) -> dict:
    result = {
        "cells": {"a/b": {"sim": 0.1, "count": 3}},
        "rows": [{"nodes": 1, "rate": 10.0}, {"nodes": 4, "rate": 39.5}],
        "wall": 10.0,
        "claims": [],
    }
    result.update(changes)
    return result


def _toy(name: str = "toy", runs: list | None = None, **changes) -> Panel:
    def run(mode: str) -> dict:
        if runs is not None:
            runs.append((name, mode))
        return _result(**changes)

    return Panel(
        name=name,
        help=f"the {name} panel",
        run=run,
        section=lambda r: {
            "cells": r["cells"],
            "rows": r["rows"],
            "axis": (1, 4),
            "parts": {"a": {"wall_seconds": r["wall"] / 2}},
            "speedup_vs_old": 100.0 / r["wall"],
            "wall_seconds_total": r["wall"],
        },
        render=lambda r: f"{name} report",
        semantic=lambda r: list(r["claims"]),
    )


TOY = _toy()


def _baseline(result: dict | None = None) -> dict:
    """What a loaded baseline file looks like (tuples are lists by then)."""
    section = json.loads(json.dumps(TOY.section(result or _result())))
    return {"schema": SCHEMA, "modes": {"smoke": section}}


def _edited(path: tuple, value) -> dict:
    """A deep copy of the default result with one nested value replaced
    (or removed, for ``value is None``)."""
    result = copy.deepcopy(_result())
    node = result
    for key in path[:-1]:
        node = node[key]
    if value is None:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return result


def test_panel_mode():
    assert panel_mode(False, False) == "full"
    assert panel_mode(True, False) == "quick"
    assert panel_mode(False, True) == "smoke"
    # smoke wins over quick
    assert panel_mode(True, True) == "smoke"


class TestCheck:
    def test_roundtrip_through_the_file_is_clean(self, tmp_path):
        path = tmp_path / "baseline.json"
        assert load_baseline(path) is None
        write_baseline(TOY, "smoke", _result(), path)
        # tuples come back as lists; the check compares what was written
        assert check_panel(TOY, "smoke", _result(), load_baseline(path)) == []

    def test_missing_file_schema_and_mode(self):
        problems = check_panel(TOY, "smoke", _result(), None)
        assert problems == [f"no baseline file at {TOY.baseline_path}"]
        assert TOY.baseline_path.name == "BENCH_toy_baseline.json"
        problems = check_panel(TOY, "smoke", _result(), {"schema": 999})
        assert problems == [f"baseline schema 999 != {SCHEMA}"]
        problems = check_panel(TOY, "quick", _result(), _baseline())
        assert problems == ["baseline has no 'quick' section"]

    @pytest.mark.parametrize(
        "pinned, run, expected",
        [
            # determinism means exact equality: one ulp is a failure
            (None, _edited(("cells", "a/b", "sim"), math.nextafter(0.1, 1)),
             "smoke.cells.a/b.sim: baseline 0.1, run 0.10000000000000002"),
            (None, _edited(("rows", 1, "rate"), 39.0),
             "smoke.rows[1].rate: baseline 39.5, run 39.0"),
            # a key or list entry on one side only, at any depth
            (None, _edited(("cells", "a/b", "extra"), 1),
             "smoke.cells.a/b.extra: not in baseline"),
            (None, _edited(("cells", "a/b", "count"), None),
             "smoke.cells.a/b.count: in baseline but not in run"),
            (None, _edited(("rows", 1), None),
             "smoke.rows[1]: in baseline but not in run"),
            (_edited(("rows", 1), None), None,
             "smoke.rows[1]: not in baseline"),
        ],
    )
    def test_any_difference_is_reported(self, pinned, run, expected):
        problems = check_panel(
            TOY, "smoke", run or _result(), _baseline(pinned)
        )
        assert problems == [expected]

    @pytest.mark.parametrize(
        "pinned_wall, wall, regressed",
        [
            (10.0, 12.9, False),  # +20% and 1 s of slack: 13.0 s allowed
            (10.0, 13.1, True),
            (10.0, 2.0, False),  # faster is never a problem
            (0.1, 1.0, False),  # sub-second panels live off the slack
            (0.1, 1.2, True),
        ],
    )
    def test_wall_gate(self, pinned_wall, wall, regressed):
        # nested wall and speedup keys differ too, and are never compared
        problems = check_panel(
            TOY, "smoke", _result(wall=wall), _baseline(_result(wall=pinned_wall))
        )
        assert [p.split(":")[0] for p in problems] == (
            ["wall clock regressed"] if regressed else []
        )

    def test_semantic_problems_come_first(self):
        run = _result(claims=["claim violated"], cells={})
        problems = check_panel(TOY, "smoke", run, _baseline())
        assert problems[0] == "claim violated" and len(problems) == 2
        assert check_panel(TOY, "smoke", run, None)[0] == "claim violated"

    def test_write_merges_per_mode(self, tmp_path):
        path = tmp_path / "baseline.json"
        write_baseline(TOY, "smoke", _result(), path)
        write_baseline(TOY, "quick", _result(wall=20.0), path)
        write_baseline(TOY, "quick", _result(wall=30.0), path)
        baseline = load_baseline(path)
        assert baseline["schema"] == SCHEMA
        assert set(baseline["modes"]) == {"smoke", "quick"}
        assert baseline["modes"]["smoke"]["wall_seconds_total"] == 10.0
        assert baseline["modes"]["quick"]["wall_seconds_total"] == 30.0


class TestCli:
    @pytest.fixture(autouse=True)
    def _baselines_in_tmp(self, tmp_path, monkeypatch):
        monkeypatch.setattr(panel_mod, "REPO_ROOT", tmp_path)

    def test_write_refused_when_the_run_fails_its_claims(self, capsys):
        broken = _toy(claims=["claim violated"])
        assert not run_panel(broken, "smoke", write=True)
        assert not broken.baseline_path.exists()
        assert "toy panel: claim violated" in capsys.readouterr().out
        # ... and such a run fails with no flag at all
        assert not run_panel(broken, "smoke")
        assert run_panel(TOY, "smoke", write=True, check=True)
        assert "matches committed baseline" in capsys.readouterr().out

    def test_unknown_mode_runs_the_first(self):
        runs: list = []
        single = dataclasses.replace(_toy("one", runs), modes=("full",))
        assert run_panel(single, "smoke", write=True)
        assert runs == [("one", "full")]
        assert set(load_baseline(single.baseline_path)["modes"]) == {"full"}

    def test_every_requested_panel_runs_and_any_failure_fails(
        self, monkeypatch, capsys
    ):
        runs: list = []
        good = _toy("good", runs)
        monkeypatch.setattr(bench_main, "PANELS", (_toy("bad", runs), good))
        argv = ["--bad", "--good", "--smoke"]
        assert bench_main.main([*argv, "--write-baseline"]) == 0
        assert bench_main.main([*argv, "--check"]) == 0
        assert bench_main.main(["--good", "--quick", "--check"]) == 1
        runs.clear()
        capsys.readouterr()
        drifted = _toy("bad", runs, cells={})
        monkeypatch.setattr(bench_main, "PANELS", (drifted, good))
        assert bench_main.main([*argv, "--check"]) == 1
        assert runs == [("bad", "smoke"), ("good", "smoke")]
        out = capsys.readouterr().out
        assert "bad check: smoke.cells.a/b: in baseline but not in run" in out
        assert "good check: matches committed baseline" in out
        monkeypatch.setattr(bench_main, "PANELS", (good, drifted))
        assert bench_main.main([*argv, "--check"]) == 1

    def test_out_receives_the_section_a_write_would_pin(self, tmp_path, capsys):
        out = tmp_path / "results" / "nested"
        assert run_panel(TOY, "smoke", out=out)
        assert json.loads((out / "toy.json").read_text()) == _baseline()[
            "modes"
        ]["smoke"]
        assert f"wrote {out / 'toy.json'}" in capsys.readouterr().out

    def test_observers_rerun_the_requested_panels_and_nothing_else(
        self, monkeypatch, capsys
    ):
        runs: list = []
        monkeypatch.setattr(
            bench_main, "PANELS", (_toy("one", runs), _toy("two", runs))
        )
        argv = ["--one", "--two", "--smoke", "--sentinel", "--analyze"]
        assert bench_main.main(argv) == 0
        # once plain, then once per observer, panel by panel
        assert runs == [("one", "smoke")] * 3 + [("two", "smoke")] * 3
        out = capsys.readouterr().out
        assert out.count("(sentinel: ") == 2 and out.count("(analysis: ") == 2
        assert out.count("0 violation(s))") == 2 and out.count("0 error(s)") == 2

    @pytest.mark.sentinel_injection
    def test_what_an_observer_saw_fails_the_run(self, capsys):
        def run(mode: str) -> dict:
            runtime = AllScaleRuntime(Cluster(ClusterSpec(num_nodes=1)))
            watcher = runtime.probe.observer(RuntimeSentinel)
            if watcher is not None:
                watcher._report("toy", "injected")
            controller = runtime.probe.observer(AdmissionController)
            if controller is not None:
                finding = Finding("race.write_write", "error", "injected")
                controller.reports.append(AnalysisReport("toy", [finding]))
            return _result()

        noisy = dataclasses.replace(TOY, run=run)
        with_sentinel, with_analysis = OBSERVERS
        assert run_panel(noisy, "smoke")
        assert not run_panel(noisy, "smoke", observers=[with_analysis])
        out = capsys.readouterr().out
        assert "(analysis: " in out and "1 error(s)" in out
        assert "toy --analyze: 1 error finding(s) detected" in out
        # last: the re-run ends in reset_global(), which under
        # REPRO_SENTINEL=1 undoes this test's sentinel_injection opt-out
        assert not run_panel(noisy, "smoke", observers=[with_sentinel])
        out = capsys.readouterr().out
        assert "1 violation(s))" in out and "injected" in out
        assert "toy --sentinel: 1 invariant violation(s) detected" in out
