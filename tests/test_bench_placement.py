"""Tests for the placement tournament's baseline bookkeeping.

These use hand-built panels (the real tournament is exercised by the
``--placement`` CLI and its committed baseline); what is under test here
is what the panel pins (every race, plan digest and topology), the
semantic planner guarantees, and the leaderboard.
"""

from __future__ import annotations

import dataclasses
import math

from repro.bench import placement
from repro.bench.panel import check_panel, load_baseline, write_baseline
from repro.bench.placement import (
    PANEL,
    POLICIES,
    TOPOLOGIES,
    PlacementPanel,
    RaceResult,
    panel_section,
    render_placement_leaderboard,
    semantic_problems,
)

APPS = ("stencil", "ipic3d", "tpc")


def _panel(mode="smoke"):
    """A tournament where planned wins bytes everywhere, as required."""
    panel = PlacementPanel(mode=mode)
    for app_index, app in enumerate(APPS):
        for topo_index, topo in enumerate(TOPOLOGIES):
            base = 1000.0 * (1 + app_index) * (1 + topo_index)
            for pol_index, policy in enumerate(POLICIES):
                panel.results.append(
                    RaceResult(
                        app=app,
                        topology=topo,
                        policy=policy,
                        elapsed=0.01 * (1 + pol_index),
                        messages=100.0 + 10 * pol_index,
                        # planned (index 0) strictly lowest
                        bytes_moved=base * (1 + pol_index),
                        migrations=float(pol_index),
                        preplaced=2.0 if policy == "planned" else 0.0,
                    )
                )
            panel.plans[f"{app}/{topo}"] = {
                "pins": 7,
                "stats": {"transfer_cost": 0.25},
            }
    panel.wall_seconds = 10.0
    return panel


def _replace_race(panel, app, topo, policy, **changes):
    for index, result in enumerate(panel.results):
        if (result.app, result.topology, result.policy) == (app, topo, policy):
            panel.results[index] = dataclasses.replace(result, **changes)
            return
    raise AssertionError("race not found")


class TestSemanticProblems:
    def test_clean_panel(self):
        assert semantic_problems(_panel()) == []

    def test_planned_not_strictly_fewer_bytes(self):
        panel = _panel()
        rival = panel.race("ipic3d", "deep8", "round-robin")
        _replace_race(
            panel, "ipic3d", "deep8", "planned",
            bytes_moved=rival.bytes_moved,
        )
        problems = semantic_problems(panel)
        assert len(problems) == 1
        assert "ipic3d/deep8" in problems[0]
        assert "not fewer" in problems[0]

    def test_plan_that_preplaced_nothing(self):
        panel = _panel()
        _replace_race(panel, "tpc", "edge4", "planned", preplaced=0.0)
        problems = semantic_problems(panel)
        assert problems == ["tpc/edge4: plan pre-placed no items"]

    def test_missing_planned_race(self):
        panel = _panel()
        panel.results = [
            r
            for r in panel.results
            if (r.app, r.topology, r.policy)
            != ("stencil", "wide16", "planned")
        ]
        problems = semantic_problems(panel)
        assert problems == ["stencil/wide16: planned race missing"]

    def test_data_aware_losing_to_round_robin_on_the_stencil(self):
        # Ablation C: Algorithm 2's data-aware tiers must beat both
        # ablation baselines on wall clock and bytes, on every topology
        panel = _panel()
        rival = panel.race("stencil", "deep8", "round-robin")
        _replace_race(
            panel, "stencil", "deep8", "data-aware",
            elapsed=rival.elapsed, bytes_moved=rival.bytes_moved + 1.0,
        )
        assert semantic_problems(panel) == [
            "stencil/deep8: data-aware elapsed 0.03 does not beat "
            "round-robin's 0.03",
            "stencil/deep8: data-aware bytes_moved 6001 does not beat "
            "round-robin's 6000",
        ]
        # the claim is the stencil's only
        panel = _panel()
        _replace_race(panel, "tpc", "deep8", "data-aware", elapsed=1.0)
        assert semantic_problems(panel) == []

    def test_committed_sections_satisfy_the_claims(self):
        committed = load_baseline(PANEL.baseline_path)["modes"]
        assert set(committed) == {"quick", "smoke"}
        for mode, section in committed.items():
            panel = PlacementPanel(mode=mode)
            panel.results = [RaceResult(**race) for race in section["races"]]
            assert semantic_problems(panel) == [], mode


def _check(run, tmp_path, pinned=None):
    path = tmp_path / "baseline.json"
    write_baseline(PANEL, "smoke", pinned or _panel(), path)
    return check_panel(PANEL, "smoke", run, load_baseline(path))


class TestBaselineRoundtrip:
    def test_write_then_check_is_clean(self, tmp_path):
        assert _check(_panel(), tmp_path) == []

    def test_modes_merge_not_overwrite(self, tmp_path):
        path = tmp_path / "baseline.json"
        write_baseline(PANEL, "smoke", _panel("smoke"), path)
        write_baseline(PANEL, "quick", _panel("quick"), path)
        baseline = load_baseline(path)
        assert check_panel(PANEL, "smoke", _panel("smoke"), baseline) == []
        assert check_panel(PANEL, "quick", _panel("quick"), baseline) == []

    def test_missing_file_and_missing_mode(self):
        (problem,) = check_panel(PANEL, "smoke", _panel(), None)
        assert "BENCH_placement_baseline.json" in problem
        # the tournament is too slow to pin at full size
        committed = load_baseline(PANEL.baseline_path)
        problems = check_panel(PANEL, "full", _panel(), committed)
        assert problems == ["baseline has no 'full' section"]


class TestCheckPanel:
    def test_detects_changed_metric(self, tmp_path):
        panel = _panel()
        _replace_race(panel, "stencil", "edge4", "random", messages=999.0)
        assert _check(panel, tmp_path) == [
            "smoke.races[3].messages: baseline 130.0, run 999.0"
        ]

    def test_detects_drifted_plan_digest(self, tmp_path):
        panel = _panel()
        stats = panel.plans["ipic3d/deep8"]["stats"]
        stats["transfer_cost"] = math.nextafter(0.25, 1.0)
        (problem,) = _check(panel, tmp_path)
        assert problem.startswith(
            "smoke.plans.ipic3d/deep8.stats.transfer_cost: baseline 0.25"
        )

    def test_detects_changed_topology(self, tmp_path, monkeypatch):
        path = tmp_path / "baseline.json"
        write_baseline(PANEL, "smoke", _panel(), path)
        monkeypatch.setitem(placement.TOPOLOGIES, "deep8", (8, 4))
        assert check_panel(PANEL, "smoke", _panel(), load_baseline(path)) == [
            "smoke.topologies.deep8.radix: baseline 2, run 4"
        ]

    def test_detects_race_missing_from_baseline(self, tmp_path):
        pinned = _panel()
        pinned.results = [r for r in pinned.results if r.policy != "random"]
        problems = _check(_panel(), tmp_path, pinned)
        assert "smoke.races[27]: not in baseline" in problems

    def test_detects_baseline_race_not_run(self, tmp_path):
        panel = _panel()
        panel.results = [r for r in panel.results if r.app != "tpc"]
        problems = _check(panel, tmp_path)
        assert "smoke.races[35]: in baseline but not in run" in problems
        # the semantic layer flags the dropped planned races too
        assert any("planned race missing" in p for p in problems)

    def test_wall_clock_tolerance(self, tmp_path):
        panel = _panel()
        panel.wall_seconds = 12.9  # 10 s pinned: +20% and 1 s of slack
        assert _check(panel, tmp_path) == []
        panel.wall_seconds = 13.5
        assert _check(panel, tmp_path) == [
            "wall clock regressed: 13.5s vs baseline 10.0s (>20% + 1s over)"
        ]


class TestRendering:
    def test_leaderboard_lists_every_race_best_first(self):
        panel = _panel()
        text = render_placement_leaderboard(panel)
        for app in APPS:
            for topo in TOPOLOGIES:
                assert f"{app} @ {topo}" in text
        # planned has the lowest synthetic wall clock → first row everywhere
        for block in text.split("\n\n"):
            lines = [line for line in block.splitlines() if line]
            if lines and "@" in lines[0]:
                assert lines[2].split()[0] == "planned"

    def test_section_shape(self):
        section = panel_section(_panel())
        assert len(section["races"]) == len(APPS) * len(TOPOLOGIES) * len(
            POLICIES
        )
        assert section["topologies"]["deep8"] == {"nodes": 8, "radix": 2}
        assert section["wall_seconds"] == 10.0
