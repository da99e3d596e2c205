"""Command-line front end for the schedule-space model checker.

Usage::

    python -m repro.verify SCENARIO [SCENARIO ...] [--budget N] [--json]
    python -m repro.verify --list
    python -m repro.verify --smoke [--budget N] [--json]

Exploring a scenario drives fresh instances of it through bounded DPOR
over the schedule space and reports branches, distinct terminal
fingerprints, race findings, and failing schedules (with their decision
traces).  ``--smoke`` is the CI entry point: every scenario is explored
twice (the two passes must agree exactly — branch counts and fingerprint
sets — or the checker itself is nondeterministic and its traces would be
worthless), and every historical protocol bug must be rediscovered under
its mechanical fix-revert (at ``--budget`` or the bug's own larger
budget) with a minimal trace that replays clean against the fixed code.

Exit codes: 0 — everything clean; 1 — violations found (failing
schedules, races, nondeterminism, or a missed rediscovery); 2 — the
checker itself crashed.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any

from repro.verify.explorer import DEFAULT_BUDGET, ExploreResult, explore
from repro.verify.regressions import KNOWN_BUGS, rediscover, replay_trace
from repro.verify.scenarios import SCENARIOS, get_scenario


def _explore_scenarios(
    names: list[str], budget: int, as_json: bool
) -> tuple[int, list[dict[str, Any]]]:
    status = 0
    reports: list[dict[str, Any]] = []
    for name in names:
        result = explore(get_scenario(name), budget=budget)
        reports.append(result.to_dict())
        if not result.clean:
            status = 1
        if not as_json:
            _print_explore(result)
    return status, reports


def _print_explore(result: ExploreResult) -> None:
    shape = "exhausted" if result.exhausted else "budget-capped"
    print(
        f"{result.scenario}: {result.branches} branches ({shape}), "
        f"{result.choice_points} choice points, {result.events} events, "
        f"{len(result.fingerprints)} distinct terminal states"
    )
    for finding in result.races:
        print(f"  RACE  {finding.message}")
    for error, decisions in result.failures:
        print(f"  FAIL  {error}")
        print(f"        trace: {decisions}")
    if result.clean:
        print("  clean: no failing schedules, no races")


def _smoke(budget: int, as_json: bool) -> tuple[int, dict[str, Any]]:
    status = 0
    report: dict[str, Any] = {"scenarios": [], "rediscoveries": []}
    for name in SCENARIOS:
        scenario = get_scenario(name)
        first = explore(scenario, budget=budget)
        second = explore(scenario, budget=budget)
        deterministic = (
            first.branches == second.branches
            and first.choice_points == second.choice_points
            and first.events == second.events
            and first.fingerprints == second.fingerprints
        )
        entry = first.to_dict()
        entry["deterministic"] = deterministic
        report["scenarios"].append(entry)
        if not first.clean or not deterministic:
            status = 1
        if not as_json:
            _print_explore(first)
            if not deterministic:
                print("  NONDETERMINISTIC: two passes disagree")
    for name in KNOWN_BUGS:
        found = rediscover(name, budget=budget)
        entry = {
            "bug": name,
            "scenario": found.scenario,
            "found": found.found,
            "evidence": found.evidence,
            "trace": found.trace.decisions if found.trace else None,
        }
        replay_clean = None
        if found.found and found.trace is not None:
            replay = replay_trace(found.trace)
            replay_clean = replay.status == "ok" and not replay.races
            entry["replays_clean_on_fixed_code"] = replay_clean
        report["rediscoveries"].append(entry)
        if not found.found or replay_clean is False:
            status = 1
        if not as_json:
            if found.found:
                print(
                    f"rediscovered {name} in "
                    f"{found.explored.branches} branches; minimal trace "
                    f"{found.trace.decisions if found.trace else None}; "
                    f"replays clean on fixed code: {replay_clean}"
                )
            else:
                print(
                    f"MISSED {name}: not rediscovered within "
                    f"{found.explored.branches} branches"
                )
    return status, report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.verify",
        description="bounded schedule-space model checker",
    )
    parser.add_argument(
        "scenarios",
        nargs="*",
        metavar="SCENARIO",
        help="scenario names to explore (see --list)",
    )
    parser.add_argument(
        "--budget",
        type=int,
        default=DEFAULT_BUDGET,
        help=f"max branches per exploration (default {DEFAULT_BUDGET})",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit a JSON report on stdout"
    )
    parser.add_argument(
        "--list", action="store_true", help="list known scenarios and exit"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="explore every scenario twice (determinism check) and "
        "rediscover every historical bug under its fix-revert",
    )
    args = parser.parse_args(argv)

    if args.list:
        for name, scenario in SCENARIOS.items():
            print(f"{name}: {scenario.description}")
        return 0
    if args.smoke:
        status, report = _smoke(args.budget, args.json)
        if args.json:
            print(json.dumps(report, indent=2))
        return status
    if not args.scenarios:
        parser.error("no scenarios given (try --list or --smoke)")
    for name in args.scenarios:
        get_scenario(name)  # fail fast on typos, before any exploration
    status, reports = _explore_scenarios(
        args.scenarios, args.budget, args.json
    )
    if args.json:
        print(json.dumps(reports, indent=2))
    return status


if __name__ == "__main__":
    try:
        sys.exit(main())
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        raise
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"verify: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        sys.exit(2)
