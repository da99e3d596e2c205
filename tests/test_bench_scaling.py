"""What the weak-scaling panel pins, and the committed baseline itself."""

from __future__ import annotations

import json
import math
import pathlib

import pytest

from repro.bench.panel import SCHEMA, check_panel
from repro.bench.scaling import PANEL, ScalingPanel, ScalingPoint, ScalingSeries

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
BASELINE_PATH = PANEL.baseline_path


def _panel(allscale: float = 10.0, wall: float = 1.0) -> ScalingPanel:
    series = {
        app: ScalingSeries(
            app=app,
            metric="u/s",
            points=[
                ScalingPoint(nodes=1, allscale=allscale, mpi=12.0),
                ScalingPoint(nodes=4, allscale=allscale * 4, mpi=48.0),
            ],
        )
        for app in ("stencil", "ipic3d", "tpc")
    }
    return ScalingPanel(
        mode="smoke",
        node_counts=(1, 4),
        series=series,
        wall_seconds={app: wall for app in series},
    )


def _check(run: ScalingPanel, pinned: ScalingPanel, mode: str = "smoke") -> list[str]:
    baseline = {"schema": SCHEMA, "modes": {"smoke": PANEL.section(pinned)}}
    return check_panel(PANEL, mode, run, json.loads(json.dumps(baseline)))


class TestCheckPanel:
    def test_identical_run_passes(self) -> None:
        assert _check(_panel(), _panel()) == []

    def test_missing_baseline_reported(self) -> None:
        (problem,) = check_panel(PANEL, "smoke", _panel(), None)
        assert "BENCH_scaling_baseline.json" in problem

    def test_missing_mode_section_reported(self) -> None:
        problems = _check(_panel(), _panel(), mode="full")
        assert problems == ["baseline has no 'full' section"]

    def test_changed_output_detected(self) -> None:
        problems = _check(_panel(allscale=10.0001), _panel())
        assert "smoke.apps.ipic3d.points[0].allscale: baseline 10.0" in problems[0]
        assert len(problems) == 6  # 3 apps x 2 points

    def test_tiny_drift_is_still_a_failure(self) -> None:
        # determinism means exact equality — no epsilon, one ulp fails
        assert len(_check(_panel(math.nextafter(10.0, 11.0)), _panel())) == 6

    def test_pinned_app_or_point_not_run_is_reported(self) -> None:
        run = _panel()
        del run.series["tpc"], run.wall_seconds["tpc"]
        run.series["stencil"].points.pop()
        assert _check(run, _panel()) == [
            "smoke.apps.stencil.points[1]: in baseline but not in run",
            "smoke.apps.tpc: in baseline but not in run",
        ]

    def test_wall_clock_regression_detected(self) -> None:
        # the gate reads the total across apps: 3 x 1.6 s > 3.0 * 1.2 + 1
        (problem,) = _check(_panel(wall=1.6), _panel(wall=1.0))
        assert problem.startswith("wall clock regressed: 4.8s vs baseline 3.0s")

    def test_wall_clock_within_tolerance_passes(self) -> None:
        assert _check(_panel(wall=1.5), _panel(wall=1.0)) == []


class TestShapeCriteria:
    """The Fig. 7 gates fire, and name the app and the point."""

    def test_synthetic_panel_is_clean(self) -> None:
        assert PANEL.semantic(_panel()) == []

    def test_widening_gap_names_the_app_and_point(self) -> None:
        run = _panel()
        run.series["stencil"].points[1].allscale = 0.45 * 48.0
        problems = PANEL.semantic(run)
        assert problems[0].startswith("stencil: AllScale/MPI ratio 0.45 at 4 nodes")
        assert all(problem.startswith("stencil: ") for problem in problems)

    def test_non_monotone_series_names_the_app_and_points(self) -> None:
        run = _panel()
        run.series["ipic3d"].points[1].mpi = 11.0
        problems = PANEL.semantic(run)
        assert (
            "ipic3d: mpi throughput does not increase from 1 to 4 nodes"
            in problems
        )
        assert all(problem.startswith("ipic3d: ") for problem in problems)

    def test_tpc_must_trail_and_flatten_at_scale(self) -> None:
        run = _panel()
        # AllScale keeps pace with MPI all the way: not the paper's TPC
        run.series["tpc"].points = [
            ScalingPoint(nodes=n, allscale=10.0 * n, mpi=12.0 * n)
            for n in (1, 8, 64)
        ]
        problems = PANEL.semantic(run)
        assert [p.split(" nodes")[0] for p in problems] == [
            "tpc: expected AllScale ≪ MPI at 64",
            "tpc: the AllScale/MPI gap does not grow from 1 to 64",
            "tpc: AllScale gains 8.00x from 8 to 64",
        ]

    def test_calibration_anchor_applies_to_absolute_metrics(self) -> None:
        run = _panel()
        run.series["ipic3d"].metric = "particles/s"
        (problem,) = PANEL.semantic(run)
        assert problem.startswith("ipic3d: single-node AllScale at 10 particles/s")

    @pytest.mark.parametrize("mode", ["full", "quick", "smoke"])
    def test_committed_sections_satisfy_the_gates(self, mode: str) -> None:
        # the gates must hold at all three pinned sizes, so size-dependent
        # criteria (TPC's gap opens only from 16 nodes up) keep their guards
        section = json.loads(BASELINE_PATH.read_text())["modes"][mode]
        run = ScalingPanel(
            mode=mode,
            node_counts=tuple(section["node_counts"]),
            series={
                app: ScalingSeries(
                    app=app,
                    metric=pinned["metric"],
                    points=[ScalingPoint(**point) for point in pinned["points"]],
                )
                for app, pinned in section["apps"].items()
            },
            wall_seconds={
                app: pinned["wall_seconds"]
                for app, pinned in section["apps"].items()
            },
        )
        assert PANEL.semantic(run) == []
        # ... and the re-hydration is faithful: it pins what the file pins
        baseline = {"schema": SCHEMA, "modes": {mode: section}}
        assert check_panel(PANEL, mode, run, baseline) == []


class TestCommittedBaseline:
    """The committed artifact itself: shape, coverage, and the headline."""

    def _load(self) -> dict:
        assert BASELINE_PATH.exists(), "BENCH_scaling_baseline.json missing"
        return json.loads(BASELINE_PATH.read_text())

    def test_location_and_schema(self) -> None:
        assert BASELINE_PATH == REPO_ROOT / "BENCH_scaling_baseline.json"
        assert self._load()["schema"] == SCHEMA

    def test_full_sweep_covers_the_paper_axis(self) -> None:
        section = self._load()["modes"]["full"]
        assert section["node_counts"] == [1, 2, 4, 8, 16, 32, 64]
        for app in ("stencil", "ipic3d", "tpc"):
            points = section["apps"][app]["points"]
            assert [p["nodes"] for p in points] == [1, 2, 4, 8, 16, 32, 64]
            for point in points:
                assert point["allscale"] > 0.0
                assert point["mpi"] > 0.0

    def test_quick_section_records_speedup(self) -> None:
        section = self._load()["modes"]["quick"]
        assert section["node_counts"] == [1, 4, 16]
        assert section["pr5_seconds"] == 86.4
        # the flat-core refactor's acceptance bar
        assert section["speedup_vs_pr5"] >= 3.0
