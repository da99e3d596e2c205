"""The ablations panel: the committed baseline reproduces exactly at smoke
size, a drifted cell is reported by path, and every ablation's paper claim
is a gate that fires."""

from __future__ import annotations

import copy
import dataclasses

import pytest

from repro.bench import __main__ as bench_main
from repro.bench import ablations
from repro.bench.ablations import (
    ABLATIONS,
    BLOCKED,
    CACHED,
    FLEXIBLE,
    PANEL,
    TPC_SIZES,
    AblationsPanel,
    ablations_panel,
)
from repro.bench.panel import MODES, check_panel, load_baseline
from repro.regions.tree import TreeGeometry, TreeRegion


@pytest.fixture(scope="module")
def smoke() -> AblationsPanel:
    return ablations_panel("smoke")


def _doctored(panel: AblationsPanel, key: str, *path, value) -> AblationsPanel:
    rows = copy.deepcopy(panel.rows)
    node = rows[key]
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = value
    return dataclasses.replace(panel, rows=rows)


def test_cli_smoke_check_matches_the_committed_baseline(
    smoke, monkeypatch, capsys
):
    # the fixture's run, through the real CLI loop and the committed file
    ran = dataclasses.replace(PANEL, run=lambda mode: smoke)
    monkeypatch.setattr(bench_main, "PANELS", (ran,))
    assert bench_main.main(["--ablations", "--smoke", "--check"]) == 0
    out = capsys.readouterr().out
    assert "ablations check: matches committed baseline" in out
    for key, ablation in ABLATIONS.items():
        assert f"Ablation {key} — {ablation.title}" in out
    # cheap enough for tier-1 (the pinned wall leaves the gate its headroom)
    assert sum(smoke.wall_seconds.values()) < 15.0


def test_committed_file_pins_every_mode_and_ablation():
    modes = load_baseline(PANEL.baseline_path)["modes"]
    assert set(modes) == set(MODES) == set(TPC_SIZES)
    for section in modes.values():
        assert list(section["ablations"]) == list(ABLATIONS)
        assert section["wall_seconds_total"] > 0
    # ablation A's count is pinned; its host rates are recorded under
    # keys the diff skips
    assert set(modes["full"]["ablations"]["A"]["rows"][BLOCKED]) == {
        "words_per_op",
        "wall_seconds_per_op",
        "speedup_vs_flexible",
        "representation_size",
        "smallest_region_nodes",
    }


def test_drifted_cell_is_reported_by_path(smoke):
    baseline = load_baseline(PANEL.baseline_path)
    pinned = baseline["modes"]["smoke"]["ablations"]["B"]["rows"]["64"]["max_hops"]
    run = _doctored(smoke, "B", "64", "max_hops", value=pinned + 1)
    assert check_panel(PANEL, "smoke", run, baseline) == [
        f"smoke.ablations.B.rows.64.max_hops: baseline {pinned}, run {pinned + 1}"
    ]


@pytest.mark.parametrize(
    "key, path, value, claim",
    [
        ("A", (BLOCKED, "words_per_op"), 9.0, "bitmask operations are more"),
        ("A", (FLEXIBLE, "smallest_region_nodes"), 3, "only the flexible scheme"),
        ("B", ("256", "max_hops"), 99, "max hops at 256 processes <= 3 x max"),
        ("B", ("16", "unresolved"), 2, "every lookup resolves its region"),
        ("D", ("32", "remote_tasks"), 1e9, "batch 32 sends under half"),
        ("D", ("32", "qps"), 1e9, "batch 32 throughput is below 1.5x"),
        ("E", ("with balancer", "rebalances"), 0, "the balancer rebalanced"),
        ("E", ("with balancer", "elapsed_ms"), 1e9, "the balanced run is more"),
        ("F", ("4", "offloads"), 5.0, "the 4 FLOPs/elem kernel never offloads"),
        ("F", ("1024", "gpu_over_cpu"), 2.0, "the 1024 FLOPs/elem kernel gains"),
        ("G", (CACHED, "cache_hits"), 0, "the lookup cache hits"),
        ("G", (CACHED, "lookup_hops"), 10**9, "the cache more than halves"),
        ("G", (CACHED, "qps"), 1.0, "the cached run is no slower"),
    ],
)
def test_violated_claim_is_reported_by_semantic(smoke, key, path, value, claim):
    assert PANEL.semantic(smoke) == []
    problems = PANEL.semantic(_doctored(smoke, key, *path, value=value))
    assert problems and problems[0].startswith(f"{key}: claim violated: {claim}")
    assert all(problem.startswith(f"{key}: ") for problem in problems)


def test_region_claim_gates_on_a_count_the_host_cannot_move(monkeypatch):
    """Ablation A's efficiency claim reads words per operation, not host
    seconds: a slow host leaves it true, and "blocked" regions that are
    really flexible ones make it false."""
    claim = ABLATIONS["A"].claims["bitmask operations are more than 10x cheaper"]
    rows = ablations.run_regions("smoke")
    assert claim(rows)
    rows[BLOCKED]["speedup_vs_flexible"] = 0.5  # a busy neighbour
    assert claim(rows)

    class FlexibleAsBlocked:
        @staticmethod
        def of_blocks(geometry, blocks):
            return TreeRegion.of_subtrees(
                TreeGeometry(geometry.depth),
                [geometry.block_root(block) for block in blocks],
            )

    monkeypatch.setattr(ablations, "BlockedTreeRegion", FlexibleAsBlocked)
    swapped = ablations.run_regions("smoke")
    assert swapped[BLOCKED]["words_per_op"] == swapped[FLEXIBLE]["words_per_op"]
    assert not claim(swapped)
