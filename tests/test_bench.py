"""Tests for Table 1, the Fig. 7 series and the panels' table rendering."""

import json
import pathlib

import pytest

from repro.apps.common import AppResult
from repro.bench.panel import render_table
from repro.bench.scaling import (
    FIG7_NODE_COUNTS,
    ScalingPoint,
    ScalingSeries,
    parallel_efficiency,
    render_series,
    render_table1,
    table1,
)


def make_series(values_as, values_mpi, nodes=(1, 2, 4)):
    series = ScalingSeries(app="x", metric="u/s")
    for n, a, m in zip(nodes, values_as, values_mpi):
        series.points.append(ScalingPoint(n, a, m))
    return series


class TestScalingSeries:
    def test_add_and_accessors(self):
        series = ScalingSeries(app="a", metric="m")
        series.add(
            AppResult("a", "allscale", 2, elapsed=1.0, work=10.0),
            AppResult("a", "mpi", 2, elapsed=1.0, work=20.0),
        )
        point = series.point_at(2)
        assert point.allscale == 10.0 and point.mpi == 20.0
        assert point.ratio == pytest.approx(0.5)
        with pytest.raises(KeyError):
            series.point_at(99)

    def test_mismatched_nodes_rejected(self):
        series = ScalingSeries(app="a", metric="m")
        with pytest.raises(ValueError):
            series.add(
                AppResult("a", "allscale", 2, elapsed=1.0, work=1.0),
                AppResult("a", "mpi", 4, elapsed=1.0, work=1.0),
            )

    def test_linear_reference(self):
        series = make_series([100, 190, 350], [120, 240, 480])
        assert series.linear("allscale") == [100, 200, 400]
        assert series.linear("mpi") == [120, 240, 480]

    def test_efficiency(self):
        series = make_series([100, 190, 350], [120, 240, 480])
        assert parallel_efficiency(series, "allscale") == pytest.approx(0.875)
        assert parallel_efficiency(series, "mpi") == pytest.approx(1.0)

    def test_fig7_axis(self):
        assert FIG7_NODE_COUNTS == (1, 2, 4, 8, 16, 32, 64)


class TestTable1:
    def test_default_rows_match_paper(self):
        rows = {row[0]: row for row in table1()}
        assert rows["stencil"][3] == "20,000² elements per node"
        assert rows["stencil"][4] == "FLOPS"
        assert rows["iPiC3D"][3] == "48 · 10⁶ particles per node"
        assert rows["iPiC3D"][2] == "multiple regular 3D grids"
        assert rows["TPC"][3] == "2^29 points in [0, 100)^7 with radius 20"
        assert rows["TPC"][4] == "queries per second"

    def test_inventory_order_structures_and_metrics(self):
        names, _, structures, _, metrics = zip(*table1())
        assert names == ("stencil", "iPiC3D", "TPC")
        assert structures == (
            "regular 2D grid",
            "multiple regular 3D grids",
            "kd-tree",
        )
        assert metrics == (
            "FLOPS",
            "particle updates per second",
            "queries per second",
        )

    def test_customized_workloads(self):
        from repro.apps.stencil import StencilWorkload

        rows = table1(stencil=StencilWorkload(n_per_node=100))
        assert rows[0][3] == "100² elements per node"


class TestReports:
    def test_render_table_alignment(self):
        text = render_table(["a", "bb"], [["1", "2"], ["333", "4"]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")
        assert "333" in lines[3]

    def test_render_table1(self):
        text = render_table1(table1())
        assert "stencil" in text and "kd-tree" in text

    def test_render_series(self):
        series = make_series([100, 190, 350], [120, 240, 480])
        text = render_series(series)
        assert "Fig. 7" in text
        assert "AS/MPI" in text
        assert "400" in text  # linear column


class TestCommsPoint:
    def make_point(self, **overrides):
        from repro.bench.comms import CommsPoint

        values = dict(
            app="x",
            nodes=4,
            messages_off=1000.0,
            messages_on=600.0,
            net_bytes_off=5000.0,
            net_bytes_on=4000.0,
            data_bytes_off=2048.0,
            data_bytes_on=2048.0,
            work_off=10.0,
            work_on=10.0,
            elapsed_off=2.0,
            elapsed_on=1.5,
        )
        values.update(overrides)
        return CommsPoint(**values)

    def test_message_reduction(self):
        assert self.make_point().message_reduction == pytest.approx(0.4)
        zero = self.make_point(messages_off=0.0, messages_on=0.0)
        assert zero.message_reduction == 0.0

    def test_elapsed_delta(self):
        assert self.make_point().elapsed_delta == pytest.approx(-0.25)
        zero = self.make_point(elapsed_off=0.0)
        assert zero.elapsed_delta == 0.0

    def test_outputs_identical(self):
        assert self.make_point().outputs_identical
        assert not self.make_point(work_on=11.0).outputs_identical
        assert not self.make_point(data_bytes_on=1.0).outputs_identical

    def test_to_row_shape(self):
        row = self.make_point().to_row()
        assert row["message_reduction"] == 0.4
        assert row["outputs_identical"] is True
        assert row["counters"] == {}

    def test_render_and_json(self):
        from repro.bench.comms import CommsPanel, panel_section, render_comms

        panel = CommsPanel([self.make_point()], wall_seconds=1.234)
        text = render_comms(panel)
        assert "+40.0%" in text and "yes" in text and "1.2s wall" in text
        section = json.loads(json.dumps(panel_section(panel)))
        assert section["apps"]["x"]["messages_on"] == 600.0
        assert section["wall_seconds"] == 1.23

    def test_semantic_gate_and_committed_smoke_section(self):
        """``--comms`` is a checked panel: the off/on contract gates every
        run, and the committed smoke section matches a fresh run exactly."""
        from repro.bench.comms import PANEL, CommsPanel
        from repro.bench.panel import check_panel, load_baseline

        broken = CommsPanel([self.make_point(work_on=11.0)])
        assert PANEL.semantic(broken) == [
            "x: optimised run changed outputs or moved bytes"
        ]
        committed = load_baseline(PANEL.baseline_path)
        run = PANEL.run("smoke")
        run.wall_seconds = 0.0  # simulated values only; hosts differ
        assert check_panel(PANEL, "smoke", run, committed) == []
        run.points[2].counters["comms.batched_tasks"] += 1.0
        (problem,) = check_panel(PANEL, "smoke", run, committed)
        assert problem.startswith(
            "smoke.apps.tpc.counters.comms.batched_tasks: baseline"
        )


class TestCommsBaseline:
    """The committed comms panel must keep its schema and its promises."""

    ROW_KEYS = {
        "app",
        "nodes",
        "messages_off",
        "messages_on",
        "message_reduction",
        "net_bytes_off",
        "net_bytes_on",
        "data_bytes_off",
        "data_bytes_on",
        "work_off",
        "work_on",
        "elapsed_off",
        "elapsed_on",
        "elapsed_delta",
        "outputs_identical",
        "counters",
    }

    @pytest.fixture
    def modes(self):
        path = (
            pathlib.Path(__file__).resolve().parent.parent
            / "BENCH_comms_baseline.json"
        )
        return json.loads(path.read_text())["modes"]

    @pytest.fixture
    def baseline(self, modes):
        # the acceptance targets are stated for the full-size panel
        return modes["full"]

    @pytest.fixture
    def rows(self, modes):
        return [row for s in modes.values() for row in s["apps"].values()]

    def test_schema_pinned(self, modes, rows):
        from repro.bench.comms import COMMS_NODE_COUNT

        assert set(modes) == {"full", "smoke"}
        for section in modes.values():
            assert section["nodes"] == COMMS_NODE_COUNT
            assert set(section["apps"]) == {"stencil", "ipic3d", "tpc"}
        for row in rows:
            assert set(row) == self.ROW_KEYS

    def test_counters_pinned(self, rows):
        from repro.bench.comms import _ON_COUNTERS

        for row in rows:
            assert set(row["counters"]) == set(_ON_COUNTERS)

    def test_outputs_identical_everywhere(self, rows):
        for row in rows:
            assert row["outputs_identical"] is True
            assert row["data_bytes_off"] == row["data_bytes_on"]
            assert row["work_off"] == row["work_on"]

    def test_message_reduction_targets(self, baseline):
        # the acceptance bar: >= 30% fewer messages on the TPC panel,
        # and every app must see a material reduction
        assert baseline["apps"]["tpc"]["message_reduction"] >= 0.30
        for row in baseline["apps"].values():
            assert row["message_reduction"] >= 0.25

    def test_comms_layer_actually_engaged(self, rows):
        for row in rows:
            counters = row["counters"]
            assert counters["net.bulk_messages"] > 0
            if row["data_bytes_off"]:
                # apps that move payload do it through audited plans;
                # TPC's kd-tree is pre-placed, so its win is pure
                # dispatch batching and it never opens a plan
                assert counters["comms.plans"] > 0
                assert (
                    counters["comms.moved_bytes"] == row["data_bytes_on"]
                )
            assert counters["comms.batched_dispatches"] > 0
