"""Tests for the churn panel's baseline bookkeeping.

These use hand-built panels (the real sweep is exercised by the
``--churn`` CLI and its committed baseline); what is under test here is
the exact-match checking, the semantic gates a run must clear before it
may be pinned, the merge-per-mode baseline file handling, and the
deterministic schedule shapes — plus one real (tiny) cell driving
:func:`_run_cell` end to end with a churn controller attached.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.apps.stencil import StencilWorkload
from repro.bench.churn import (
    PANEL,
    ChurnCell,
    ChurnPanel,
    _cell,
    _grid,
    _run_cell,
    _schedule,
    _workloads,
    render_churn_summary,
    semantic_problems,
)
from repro.bench.panel import SCHEMA, check_panel, load_baseline, write_baseline
from repro.runtime.elastic import ChurnEvent
from repro.verify.regressions import (
    revert_claim_first_recovery,
    revert_storm_hold,
)

APPS = ("stencil", "ipic3d", "tpc")
SCENARIOS = ("baseline", "scale_out", "drain", "storm1xr1")


def _metrics(scenario: str) -> dict[str, float]:
    if scenario == "baseline":
        return {"elastic.churn_events": 0.0}
    metrics = {"elastic.churn_events": 2.0}
    if scenario == "scale_out":
        metrics["elastic.joins"] = 2.0
        metrics["elastic.join_migrated_bytes"] = 4096.0
    if scenario == "drain":
        metrics["elastic.drains"] = 1.0
        metrics["elastic.evacuated_bytes"] = 8192.0
    if scenario.startswith("storm"):
        metrics["elastic.failures"] = 1.0
        metrics["elastic.restored_bytes"] = 2048.0
    return metrics


def _panel(mode="smoke"):
    """A sweep that clears every semantic gate, as required for a pin."""
    panel = ChurnPanel(mode=mode, start_nodes=3, sentinel_attached=True)
    for app_index, app in enumerate(APPS):
        for scenario_index, scenario in enumerate(SCENARIOS):
            panel.cells.append(
                ChurnCell(
                    app=app,
                    scenario=scenario,
                    sim_elapsed=0.5 * (1 + app_index) + 0.01 * scenario_index,
                    metrics=_metrics(scenario),
                    membership_changes=0 if scenario == "baseline" else 2,
                    final_processes=3 if scenario == "baseline" else 2,
                    sentinel_violations=0,
                )
            )
        panel.wall_seconds[app] = 1.0
    return panel


def _storm_panel(app: str, mode: str) -> ChurnPanel:
    """The sweep's ``storm1xr1`` cell of one app, calibrated the same way."""
    nodes, _cells = _grid(mode)
    workload = _workloads(mode)[app]
    _result, runtime, *_ = _run_cell(app, workload, nodes, [])
    schedule = _schedule("storm1xr1", runtime.now, 1, 1)
    panel = ChurnPanel(mode=mode, start_nodes=nodes)
    panel.cells.append(
        _cell(app, "storm1xr1", *_run_cell(app, workload, nodes, schedule))
    )
    return panel


def _replace_cell(panel, app, scenario, **changes):
    for index, cell in enumerate(panel.cells):
        if (cell.app, cell.scenario) == (app, scenario):
            panel.cells[index] = dataclasses.replace(cell, **changes)
            return
    raise AssertionError("cell not found")


class TestModeAndSchedule:
    def test_grid_grows_with_mode(self):
        smoke_nodes, smoke_grid = _grid("smoke")
        quick_nodes, quick_grid = _grid("quick")
        full_nodes, full_grid = _grid("full")
        assert smoke_nodes < quick_nodes < full_nodes
        assert len(smoke_grid) < len(quick_grid) < len(full_grid)

    def test_baseline_schedule_is_empty(self):
        assert _schedule("baseline", 10.0, 0, 0) == []

    def test_scale_out_schedule_only_joins(self):
        events = _schedule("scale_out", 10.0, 0, 0)
        assert events and all(e.kind == "join" for e in events)
        assert all(0.0 < e.at < 10.0 for e in events)

    def test_drain_schedule(self):
        events = _schedule("drain", 10.0, 0, 0)
        assert [e.kind for e in events] == ["drain"]

    def test_storm_schedule_shape(self):
        rate, storm = 2, 3
        events = _schedule("storm3xr2", 10.0, rate, storm)
        kinds = [e.kind for e in events]
        assert kinds.count("join") == rate
        assert kinds.count("drain") == rate
        storms = [e for e in events if e.kind == "storm"]
        assert len(storms) == 1 and storms[0].count == storm
        # the schedule replays in order: events must already be sorted
        assert [e.at for e in events] == sorted(e.at for e in events)


class TestSemanticProblems:
    def test_clean_panel(self):
        assert semantic_problems(_panel()) == []

    def test_sentinel_violation_rejected(self):
        panel = _panel()
        _replace_cell(panel, "tpc", "drain", sentinel_violations=2)
        problems = semantic_problems(panel)
        assert len(problems) == 1
        assert "tpc/drain" in problems[0]
        assert "sentinel" in problems[0]

    def test_baseline_must_not_churn(self):
        panel = _panel()
        _replace_cell(
            panel, "stencil", "baseline",
            metrics={"elastic.churn_events": 1.0},
        )
        assert any(
            "baseline saw churn" in p for p in semantic_problems(panel)
        )

    def test_churn_scenario_must_apply_events(self):
        panel = _panel()
        _replace_cell(panel, "stencil", "drain", metrics={})
        problems = semantic_problems(panel)
        assert any("no churn events applied" in p for p in problems)
        assert any("no node drained" in p for p in problems)

    def test_scale_out_must_join(self):
        panel = _panel()
        _replace_cell(
            panel, "ipic3d", "scale_out",
            metrics={"elastic.churn_events": 2.0},
        )
        assert any("no node joined" in p for p in semantic_problems(panel))

    def test_drain_must_evacuate(self):
        panel = _panel()
        _replace_cell(
            panel, "ipic3d", "drain",
            metrics={
                "elastic.churn_events": 1.0,
                "elastic.drains": 1.0,
                "elastic.evacuated_bytes": 0.0,
            },
        )
        assert any(
            "evacuated no data" in p for p in semantic_problems(panel)
        )

    def test_uninitialized_reads_rejected(self):
        panel = _panel()
        metrics = dict(_metrics("storm1xr1"), **{"dm.uninitialized_reads": 2.0})
        _replace_cell(panel, "stencil", "storm1xr1", metrics=metrics)
        assert semantic_problems(panel) == [
            "stencil/storm1xr1: 2 uninitialized read(s)"
        ]

    def test_storm_after_the_program_rejected(self):
        panel = _panel()
        _replace_cell(
            panel, "tpc", "storm1xr1",
            storm_failures=(0.04, 0.09), program_end=0.05,
        )
        assert semantic_problems(panel) == [
            "tpc/storm1xr1: storm victims failed at 0.09 s, after the "
            "program ended at 0.05 s"
        ]

    def test_storm_must_fail_nodes(self):
        panel = _panel()
        _replace_cell(
            panel, "tpc", "storm1xr1",
            metrics={"elastic.churn_events": 1.0},
        )
        assert any(
            "storm failed no nodes" in p for p in semantic_problems(panel)
        )


class TestCheckPanel:
    def _check(self, run, tmp_path, mode="smoke"):
        path = tmp_path / "baseline.json"
        write_baseline(PANEL, "smoke", _panel(), path)
        return check_panel(PANEL, mode, run, load_baseline(path))

    def test_no_baseline(self):
        (problem,) = check_panel(PANEL, "smoke", _panel(), None)
        assert "BENCH_churn_baseline.json" in problem

    def test_missing_mode_section(self, tmp_path):
        problems = self._check(_panel("quick"), tmp_path, mode="quick")
        assert problems == ["baseline has no 'quick' section"]

    def test_exact_match_passes(self, tmp_path):
        assert self._check(_panel(), tmp_path) == []

    def test_sim_elapsed_drift_is_exact(self, tmp_path):
        panel = _panel()
        _replace_cell(panel, "stencil", "drain", sim_elapsed=99.0)
        assert self._check(panel, tmp_path) == [
            "smoke.cells.stencil/drain.sim_elapsed: baseline 0.52, run 99.0"
        ]

    def test_metric_drift_is_exact(self, tmp_path):
        panel = _panel()
        metrics = dict(_metrics("drain"))
        metrics["elastic.evacuated_bytes"] += 1.0
        _replace_cell(panel, "tpc", "drain", metrics=metrics)
        (problem,) = self._check(panel, tmp_path)
        assert "tpc/drain.metrics.elastic.evacuated_bytes" in problem

    def test_membership_and_survivors_pinned(self, tmp_path):
        panel = _panel()
        _replace_cell(
            panel, "ipic3d", "scale_out",
            membership_changes=5, final_processes=9,
        )
        problems = self._check(panel, tmp_path)
        assert any("membership_changes" in p for p in problems)
        assert any("final_processes" in p for p in problems)

    def test_cell_set_must_match(self, tmp_path):
        panel = _panel()
        extra = dataclasses.replace(panel.cells[-1], scenario="storm9xr9")
        panel.cells.append(extra)
        del panel.cells[0]
        problems = self._check(panel, tmp_path)
        assert "smoke.cells.tpc/storm9xr9: not in baseline" in problems
        assert (
            "smoke.cells.stencil/baseline: in baseline but not in run"
            in problems
        )

    def test_start_nodes_pinned(self, tmp_path):
        panel = _panel()
        panel.start_nodes = 7
        assert self._check(panel, tmp_path) == [
            "smoke.start_nodes: baseline 3, run 7"
        ]

    def test_wall_clock_tolerance(self, tmp_path):
        # the gate reads the total across apps: 3 x 1.0 s pinned
        panel = _panel()
        for app in panel.wall_seconds:
            panel.wall_seconds[app] = 1.6
        (problem,) = self._check(panel, tmp_path)
        assert problem.startswith("wall clock regressed: 4.8s vs baseline 3.0s")
        for app in panel.wall_seconds:
            panel.wall_seconds[app] = 1.5
        assert self._check(panel, tmp_path) == []


class TestBaselineFile:
    def test_roundtrip_merges_per_mode(self, tmp_path):
        path = tmp_path / "baseline.json"
        smoke, quick = _panel("smoke"), _panel("quick")
        write_baseline(PANEL, "smoke", smoke, path)
        write_baseline(PANEL, "quick", quick, path)
        baseline = load_baseline(path)
        assert check_panel(PANEL, "smoke", smoke, baseline) == []
        assert check_panel(PANEL, "quick", quick, baseline) == []

    def test_committed_baseline_has_all_modes(self):
        baseline = load_baseline(PANEL.baseline_path)
        assert baseline is not None and baseline["schema"] == SCHEMA
        assert set(baseline["modes"]) >= {"smoke", "quick", "full"}


class TestRenderSummary:
    def test_summary_lists_cells_and_wall(self):
        text = render_churn_summary(_panel())
        assert "Churn sweep" in text
        assert "strict sentinel attached" in text
        for app in APPS:
            assert f"{app}/drain" in text
        assert "wall" in text


class TestRunCell:
    def test_tiny_cell_with_churn_completes(self):
        workload = StencilWorkload(
            n_per_node=400, timesteps=2, functional=False
        )
        events = [
            ChurnEvent(at=1e-4, kind="join"),
            ChurnEvent(at=2e-4, kind="drain"),
        ]
        result, runtime, controller, snapshot, _violations = _run_cell(
            "stencil", workload, 3, events
        )
        assert controller is not None and controller.done
        assert snapshot.get("elastic.churn_events") == 2.0
        assert snapshot.get("elastic.joins") == 1.0
        assert snapshot.get("elastic.drains") == 1.0
        assert result.elapsed > 0.0
        assert len(runtime.alive_processes()) == 3

    def test_smoke_stencil_storm_reads_no_uninitialized_rows(self):
        """Recovery owns every lost row before its bytes land, so no
        survivor first-touches one meanwhile (the smoke cell read 2 when
        recovery landed the bytes first)."""
        panel = _storm_panel("stencil", "smoke")
        assert panel.cells[0].metrics["dm.uninitialized_reads"] == 0.0
        assert semantic_problems(panel) == []

    def test_smoke_tpc_storm_lands_inside_the_run(self):
        """The held victims fail before the program's last task."""
        panel = _storm_panel("tpc", "smoke")
        (cell,) = panel.cells
        assert cell.storm_failures and max(cell.storm_failures) < cell.program_end
        assert semantic_problems(panel) == []

    # reverts a fix on purpose: the cell manages without auto-sentinels
    @pytest.mark.sentinel_injection
    def test_gate_catches_a_storm_after_the_run(self):
        """With the storm's barrier reverted to wait for the victims'
        queues, the smoke TPC victims keep starting tasks and fail only
        after the program ended: the cell measured no storm."""
        with revert_storm_hold():
            panel = _storm_panel("tpc", "smoke")
        (problem,) = semantic_problems(panel)
        assert problem.startswith("tpc/storm1xr1: storm victims failed at ")
        assert "after the program ended" in problem

    # reverts a fix on purpose: the cell manages without auto-sentinels
    @pytest.mark.sentinel_injection
    def test_gate_catches_landing_before_owning(self):
        """With recovery reverted to land the bytes first and own them
        after, the quick TPC storm reads zeros and the gate refuses it."""
        with revert_claim_first_recovery():
            panel = _storm_panel("tpc", "quick")
        assert semantic_problems(panel) == [
            "tpc/storm1xr1: 4 uninitialized read(s)"
        ]
