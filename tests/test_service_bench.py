"""Service bench panel, committed trace/baseline artifacts, and the CLI."""

from __future__ import annotations

import json
import pathlib

from repro.bench.panel import SCHEMA, check_panel, load_baseline, write_baseline
from repro.bench.service import (
    PANEL,
    SHARE_TOLERANCE,
    SMOKE_TRACE_PATH,
    ServicePanel,
    semantic_problems,
    service_panel,
)
from repro.service.__main__ import main as service_main
from repro.service.trace import (
    DEMO_HORIZON_DISPATCHES,
    Trace,
    demo_trace,
    replay,
    smoke_trace,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]


# -- committed artifacts -----------------------------------------------------------


def test_committed_trace_matches_builder():
    """The committed trace file is exactly what smoke_trace() produces."""
    assert SMOKE_TRACE_PATH.exists(), "traces/multi_tenant_smoke.json missing"
    committed = Trace.load(str(SMOKE_TRACE_PATH))
    assert committed.to_dict() == smoke_trace().to_dict()


def _committed() -> dict:
    baseline = load_baseline(PANEL.baseline_path)
    assert baseline is not None, "BENCH_service_baseline.json missing"
    return baseline


def test_committed_baseline_matches_fresh_run():
    """A fresh panel reproduces the committed baseline bit for bit."""
    problems = check_panel(PANEL, "full", service_panel(), _committed())
    assert problems == [], "\n".join(problems)


def test_baseline_schema_shape():
    baseline = _committed()
    assert baseline["schema"] == SCHEMA and set(baseline["modes"]) == {"full"}
    pins = baseline["modes"]["full"]["pins"]
    assert pins["smoke"]["false_accepts"] == 0
    assert pins["smoke"]["rejected_by_reason"] == {
        "analysis": 3,
        "quota": 3,
    }
    assert set(pins["contended"]["contended"]["tenants"]) == {
        "alpha",
        "beta",
        "gamma",
    }


# -- check logic -------------------------------------------------------------------


def _panel() -> ServicePanel:
    return service_panel()


def test_check_detects_drifted_pin():
    panel = _panel()
    panel.smoke["fairness_index"] = 0.5
    problems = check_panel(PANEL, "full", panel, _committed())
    assert [p.split(":")[0] for p in problems] == [
        "full.pins.smoke.fairness_index"
    ]


def test_check_detects_wall_regression():
    panel = _panel()
    panel.wall_seconds = 10.0
    (problem,) = check_panel(PANEL, "full", panel, _committed())
    assert problem.startswith("wall clock regressed: 10.0s")


def test_check_rejects_schema_mismatch():
    problems = check_panel(PANEL, "full", _panel(), {"schema": 999})
    assert any("schema" in problem for problem in problems)


def test_semantic_problems_flag_false_accepts():
    panel = _panel()
    assert semantic_problems(panel) == []
    panel.smoke["false_accepts"] = 2
    assert any("racy" in p for p in semantic_problems(panel))


# -- the acceptance demo -----------------------------------------------------------


def test_demo_meets_acceptance_criteria():
    """>= 3 tenants, >= 20 concurrent jobs, every job terminal with a
    structured verdict, shares within 10% of weights when contended."""
    trace = demo_trace()
    tenants = {event.spec.tenant for event in trace.events}
    assert len(tenants) >= 3
    at_zero = sum(1 for event in trace.events if event.at == 0.0)
    assert at_zero >= 20
    report = replay(trace, horizon_dispatches=DEMO_HORIZON_DISPATCHES)
    assert report["false_accepts"] == 0
    terminal = sum(
        row["completed"] + row["rejected"]
        for row in report["tenants"].values()
    )
    assert terminal == report["jobs"]
    for share in report["contended"]["tenants"].values():
        observed, configured = (
            share["observed_share"],
            share["configured_share"],
        )
        assert abs(observed - configured) / configured <= SHARE_TOLERANCE


# -- the CLI -----------------------------------------------------------------------


def test_cli_write_trace_and_replay(tmp_path, capsys):
    path = tmp_path / "trace.json"
    assert service_main(["write-trace", str(path)]) == 0
    capsys.readouterr()
    assert service_main(["replay", str(path), "--horizon", "10"]) == 0
    out = capsys.readouterr().out
    report = json.loads(out[out.index("{"):])
    assert report["false_accepts"] == 0
    assert report["contended"]["dispatches"] >= 10


def test_cli_smoke_over_socket(capsys):
    code = service_main(["smoke", "--trace", str(SMOKE_TRACE_PATH)])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "smoke ok" in out


def test_cli_demo(capsys):
    assert service_main(["demo"]) == 0
    assert "demo ok" in capsys.readouterr().out


def test_bench_cli_service_check():
    from repro.bench.__main__ import main as bench_main

    assert bench_main(["--service", "--check"]) == 0


def test_committed_baseline_fresh(tmp_path):
    """write_baseline output equals the committed file (regen safety)."""
    path = tmp_path / "baseline.json"
    write_baseline(PANEL, "full", _panel(), path)
    fresh, committed = json.loads(path.read_text()), _committed()
    fresh["modes"]["full"]["wall_seconds"] = committed["modes"]["full"][
        "wall_seconds"
    ]
    assert fresh == committed
