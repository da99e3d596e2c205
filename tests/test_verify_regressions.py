"""Pinned schedule traces as regression tests for the protocol fixes.

The model checker (``repro.verify``) rediscovered each historical
protocol bug under a mechanical fix-revert and shrank each repro to a
minimal decision trace, pinned under ``traces/``.  These tests keep the
fixes honest in both directions:

* replayed against the **fixed** code, each pinned trace must complete
  cleanly — no uncaught error, no race-sanitizer finding;
* replayed (or explored) with the matching fix **reverted**, the bug
  must still manifest — proving the trace tests what it claims to and
  did not go stale.
"""

from __future__ import annotations

import json
from pathlib import Path
from types import SimpleNamespace

import pytest

import repro.verify.__main__ as cli
from repro.verify.explorer import DEFAULT_BUDGET
from repro.verify.oracle import DecisionTrace
from repro.verify.regressions import (
    KNOWN_BUGS,
    Rediscovery,
    rediscover,
    replay_trace,
)

# every test here runs with a fix reverted at some point: corrupt states
# on purpose, judged by the scenarios' own strict sentinels
pytestmark = pytest.mark.sentinel_injection

TRACES = Path(__file__).resolve().parent.parent / "traces"

PINNED = {
    "write_intent_livelock": "verify_write_intent_livelock.json",
    "ownership_thrashing": "verify_ownership_thrashing.json",
    "migration_corpse_splice": "verify_node_failure_during_migration.json",
    "migrate_guard_recheck": "verify_migrate_guard_recheck.json",
    "replicate_guard_recheck": "verify_replicate_guard_recheck.json",
    "replica_registration_at_landing": (
        "verify_replica_registration_at_landing.json"
    ),
}


def _load(bug_name: str) -> DecisionTrace:
    path = TRACES / PINNED[bug_name]
    return DecisionTrace.from_json(path.read_text())


@pytest.mark.parametrize("bug_name", sorted(PINNED))
def test_pinned_trace_matches_known_bug(bug_name):
    trace = _load(bug_name)
    bug = KNOWN_BUGS[bug_name]
    assert trace.scenario == bug.scenario
    assert trace.note, "pinned traces must say what they reproduce"


@pytest.mark.parametrize("bug_name", sorted(PINNED))
def test_pinned_trace_replays_clean_on_fixed_code(bug_name):
    run = replay_trace(_load(bug_name))
    assert run.status == "ok", run.error
    assert not run.races, [str(f) for f in run.races]


@pytest.mark.parametrize("bug_name", sorted(PINNED))
def test_pinned_trace_still_exposes_bug_under_revert(bug_name):
    trace = _load(bug_name)
    bug = KNOWN_BUGS[bug_name]
    with bug.revert():
        run = replay_trace(trace)
    assert bug.hits(run), (
        f"pinned trace went stale: replaying under the revert gave "
        f"status={run.status!r} error={run.error!r} "
        f"races={[str(f) for f in run.races]}"
    )


@pytest.mark.parametrize("bug_name", sorted(KNOWN_BUGS))
def test_explorer_rediscovers_bug_within_default_budget(bug_name):
    # a bug whose own budget is larger (KnownBug.budget) gets that many
    found = rediscover(bug_name, budget=DEFAULT_BUDGET, minimize=False)
    assert found.found, (
        f"{bug_name} not rediscovered within "
        f"{found.explored.branches} branches"
    )
    assert found.evidence


def test_pinned_trace_files_are_valid_json():
    for name in PINNED.values():
        raw = json.loads((TRACES / name).read_text())
        assert "scenario" in raw
        assert isinstance(raw["decisions"], list)


def test_smoke_miss_reports_the_branches_explored(monkeypatch, capsys):
    # a bug whose own budget floor is above the CLI budget is explored
    # further than ``--budget``: the message must name what was explored
    def missed(name, budget):
        return Rediscovery(
            bug=name,
            scenario="some_scenario",
            found=False,
            explored=SimpleNamespace(branches=128),
        )

    monkeypatch.setattr(cli, "SCENARIOS", {})
    monkeypatch.setattr(cli, "KNOWN_BUGS", {"floored_bug": None})
    monkeypatch.setattr(cli, "rediscover", missed)
    status, _report = cli._smoke(budget=64, as_json=False)
    assert status == 1
    assert "MISSED floored_bug: not rediscovered within 128 branches" in (
        capsys.readouterr().out
    )
