"""The ``--ablations`` panel: EXPERIMENTS.md's ablations A, B, D, E, F, G.

Each ablation measures one layer of the runtime against the substrate
beneath it, as a table of ``{row label: {column: value}}``, and lists
the paper claims those numbers must support (:data:`ABLATIONS`).
Ablation C, scheduling policies, is the ``--placement`` tournament,
which already races the three online policies on three topologies.

``full`` runs the sizes EXPERIMENTS.md quotes.  The two TPC ablations
(D, G) are >90 % of the wall, so the reduced modes shrink only them
(:data:`TPC_SIZES`).  Everything simulated is pinned in
``BENCH_ablations_baseline.json`` through :mod:`repro.bench.panel`.
Ablation A's claim gates on a count, the words an operation reads
(``words_per_op``); it also times the operations (in CPU seconds of the
process) and reports those rates under the ``wall_seconds*`` /
``speedup_vs_*`` keys the exact diff skips.
"""

from __future__ import annotations

import gc
import math
import random
import time
from dataclasses import dataclass, replace
from statistics import fmean
from typing import Callable

from repro.api.access import box_region
from repro.api.pfor import LoopPart, _split_box, pfor_task
from repro.api.prec import PrecFunction, default_granularity
from repro.apps.tpc import TPCWorkload, make_problem, tpc_allscale, tpc_mpi
from repro.bench.panel import Panel, _fmt, render_table
from repro.items.grid import Grid
from repro.regions.blocked_tree import BlockedTreeGeometry, BlockedTreeRegion
from repro.regions.box import Box
from repro.regions.tree import TreeGeometry, TreeRegion
from repro.runtime.balancer import LoadBalancer
from repro.runtime.config import RuntimeConfig
from repro.runtime.index import HierarchicalIndex
from repro.runtime.runtime import AllScaleRuntime
from repro.sim.accelerator import AcceleratorSpec
from repro.sim.cluster import Cluster, ClusterSpec, meggie_like_spec

#: mode → (nodes, ablation D queries, ablation G queries, G arrival waves)
TPC_SIZES = {
    "full": (16, 256, 512, 16),
    "quick": (16, 128, 256, 8),
    "smoke": (8, 64, 128, 8),
}

Rows = dict[str, dict]


def _config(**flags) -> RuntimeConfig:
    return RuntimeConfig(functional=False, oversubscription=2, **flags)


# -- A: region schemes (Fig. 4b vs 4c) -------------------------------------------

BLOCKED, FLEXIBLE = "blocked bitmask (Fig. 4c)", "flexible sub-trees (Fig. 4b)"


def _seconds_per_op(*schemes: list) -> list[float]:
    """Cost of each scheme's own algebra: best of five passes, in CPU
    seconds of this process.

    The public ``union`` / … would route through the memo kernel, whose
    intern + key cost is the same for both schemes and most of a bitmask
    operation.  The passes are timed with ``time.process_time`` and the
    collector off: wall time counts whatever else the machine runs while
    the pass is descheduled.  A neighbour that shares the core still slows
    the pass it overlaps, so the schemes' passes alternate and a busy
    spell slows both; a bitmask pass lasts under half a millisecond, and
    each scheme's fastest pass is its least disturbed.
    """
    best = [math.inf] * len(schemes)
    collecting = gc.isenabled()
    gc.disable()
    try:
        for _ in range(5):
            for k, regions in enumerate(schemes):
                operands = regions[: len(regions) // 8]
                started = time.process_time()
                for a in regions:
                    for b in operands:
                        a._union(b)
                        a._intersect(b)
                        a._difference(b)
                best[k] = min(best[k], time.process_time() - started)
    finally:
        if collecting:
            gc.enable()
    return [
        seconds / (len(regions) * (len(regions) // 8) * 3)
        for seconds, regions in zip(best, schemes)
    ]


def _words_per_op(regions: list) -> float:
    """What one timed operation reads: both operands' 64-bit words,
    averaged over the pairs :func:`_seconds_per_op` times."""
    operands = regions[: len(regions) // 8]
    return round(
        sum(
            fmean(r.representation_words() for r in side)
            for side in (regions, operands)
        ),
        4,
    )


def run_regions(mode: str) -> Rows:
    """Operation cost and representation size under block-aligned
    partitions of a depth-12 tree; expressiveness under single nodes."""
    rng = random.Random(99)
    blocked_geometry = BlockedTreeGeometry(depth=12, root_height=6)
    tree_geometry = TreeGeometry(12)
    block_sets = [
        rng.sample(
            range(1, blocked_geometry.num_blocks + 1),
            rng.randint(1, blocked_geometry.num_blocks),
        )
        for _ in range(40)
    ]
    blocked = [
        BlockedTreeRegion.of_blocks(blocked_geometry, blocks)
        for blocks in block_sets
    ]
    flexible = [
        TreeRegion.of_subtrees(
            tree_geometry, [blocked_geometry.block_root(b) for b in blocks]
        )
        for blocks in block_sets
    ]
    blocked_cost, flexible_cost = _seconds_per_op(blocked, flexible)
    return {
        BLOCKED: {
            "words_per_op": _words_per_op(blocked),
            "wall_seconds_per_op": blocked_cost,
            "speedup_vs_flexible": round(flexible_cost / blocked_cost, 1),
            "representation_size": blocked[0].representation_size(),
            "smallest_region_nodes": BlockedTreeRegion.of_blocks(
                blocked_geometry, [1]
            ).size(),
        },
        FLEXIBLE: {
            "words_per_op": _words_per_op(flexible),
            "wall_seconds_per_op": flexible_cost,
            "speedup_vs_flexible": 1.0,
            "representation_size": max(r.representation_size() for r in flexible),
            "smallest_region_nodes": TreeRegion.of_nodes(tree_geometry, [5]).size(),
        },
    }


# -- B: hierarchical index lookups (Fig. 5, Algorithm 1) --------------------------


def _index_point(num_processes: int) -> dict:
    cluster = Cluster(ClusterSpec(num_nodes=num_processes, cores_per_node=1))
    index = HierarchicalIndex(cluster.network, num_processes)
    grid = Grid((num_processes * 64, 64), name="g")
    index.register_item(grid)
    blocks = grid.decompose(num_processes)
    for pid, region in enumerate(blocks):
        index.update_ownership(grid, pid, region)

    rng = random.Random(31)
    hops, latencies, unresolved = [], [], 0
    for _ in range(200):
        origin = rng.randrange(num_processes)
        target = rng.randrange(num_processes)
        before_hops = index.lookup_hops
        start = cluster.engine.now
        done = cluster.engine.spawn(index.lookup(grid, blocks[target], origin))
        cluster.engine.run()
        unresolved += not done.value[1].is_empty()
        hops.append(index.lookup_hops - before_hops)
        latencies.append(cluster.engine.now - start)
    return {
        "mean_hops": sum(hops) / len(hops),
        "max_hops": max(hops),
        "mean_latency_us": 1e6 * sum(latencies) / len(latencies),
        "unresolved": unresolved,
    }


def run_index(mode: str) -> Rows:
    """Random remote lookups under block ownership, by process count."""
    return {str(p): _index_point(p) for p in (4, 16, 64, 256)}


# -- D: TPC query aggregation (the §4.2 mitigation) -------------------------------


def _tpc_workload(queries: int, subtree_height: int, **knobs) -> TPCWorkload:
    return TPCWorkload(
        total_points=2**29,
        depth=16,
        queries_total=queries,
        functional=False,
        visit_flops=150.0,
        point_flops=30.0,
        task_subtree_height=subtree_height,
        **knobs,
    )


def run_tpc_batching(mode: str) -> Rows:
    """Bundles of 1/8/32 whole queries per AllScale task tree — the
    *naive* version of the aggregation the MPI port applies."""
    nodes, queries, _, _ = TPC_SIZES[mode]
    # the batch size only regroups the same plans into task trees
    problem = make_problem(_tpc_workload(queries, 9), nodes)
    rows = {}
    for batch in (1, 8, 32):
        workload = replace(problem.workload, task_batch=batch)
        result = tpc_allscale(
            Cluster(meggie_like_spec(nodes)),
            workload,
            _config(),
            problem=replace(problem, workload=workload),
        )
        metrics = result.extras["runtime"].metrics
        rows[str(batch)] = {
            "qps": result.throughput,
            "remote_tasks": metrics.counter("sched.remote_dispatch"),
        }
    return rows


# -- E: load balancing through data migration (§3.2/§6) ---------------------------

_SKEWED_SHAPE = (512, 256)
_HEAVY_ROWS = _SKEWED_SHAPE[0] // 4  # the top quarter is 7× as expensive


def _skewed_cost(box: Box) -> float:
    heavy = max(0, min(box.hi[0], _HEAVY_ROWS) - box.lo[0]) * (
        box.hi[1] - box.lo[1]
    )
    return heavy * 14_000.0 + (box.size() - heavy) * 2_000.0


def _skewed_sweeps(use_balancer: bool) -> dict:
    nodes = 4
    cluster = Cluster(
        ClusterSpec(num_nodes=nodes, cores_per_node=4, flops_per_core=1e9)
    )
    runtime = AllScaleRuntime(cluster, _config())
    grid = Grid(_SKEWED_SHAPE, name="skewed")
    runtime.register_item(grid, placement=grid.decompose(nodes))
    balancer = None
    if use_balancer:
        balancer = LoadBalancer(
            runtime, interval=2e-4, imbalance_threshold=1.3, slice_fraction=0.3
        )
        balancer.start()
    # pfor's split, with the skewed cost pfor's per-element rate cannot say
    sweep = PrecFunction(
        base_test=lambda part: part.leaves <= 1,
        base=lambda ctx, part: None,
        split=_split_box,
        writes=lambda part: {grid: box_region(grid, part.box)},
        cost=lambda part: _skewed_cost(part.box),
        size=lambda part: float(part.box.size()),
        name="skewed-sweep",
    )
    whole = LoopPart.of(Box.full(_SKEWED_SHAPE), 2048)

    def driver():
        started = runtime.now
        for _step in range(8):
            root = sweep.task(whole, granularity=2048)
            yield runtime.submit(root).future
        return runtime.now - started

    elapsed = runtime.wait_process(driver())
    if balancer is not None:
        balancer.stop()
    runtime.check_ownership_invariants()
    return {
        "elapsed_ms": elapsed * 1e3,
        "rebalances": balancer.rebalances if balancer else 0,
        "migrated_bytes": runtime.metrics.counter("dm.migrated_bytes"),
    }


def run_balancer(mode: str) -> Rows:
    """Eight sweeps over a spatially skewed grid: the block decomposition
    leaves stragglers unless owned regions migrate to idle nodes."""
    return {
        "static blocks": _skewed_sweeps(use_balancer=False),
        "with balancer": _skewed_sweeps(use_balancer=True),
    }


# -- F: GPU offload crossover (variant selection, Example 2.3) --------------------

_GPU_SHAPE = (2048, 1024)


def _kernel_sweep(gpus: int, intensity: float) -> tuple[float, float]:
    nodes = 4
    cluster = Cluster(
        ClusterSpec(
            num_nodes=nodes,
            cores_per_node=4,
            flops_per_core=2.4e9,
            gpus_per_node=gpus,
            gpu=AcceleratorSpec(),  # 4 TFLOP/s, PCIe-class link
        )
    )
    runtime = AllScaleRuntime(cluster, _config())
    grid = Grid(_GPU_SHAPE, name="g")
    runtime.register_item(grid, placement=grid.decompose(nodes))
    elements = _GPU_SHAPE[0] * _GPU_SHAPE[1]
    root = pfor_task(
        (0, 0),
        _GPU_SHAPE,
        body=lambda ctx, box: None,
        reads=lambda box: {grid: box_region(grid, box)},
        writes=lambda box: {grid: box_region(grid, box)},
        flops_per_element=intensity,
        gpu_flops_per_element=intensity,
        granularity=default_granularity(runtime, float(elements)),
        name="kernel",
    )
    runtime.wait(runtime.submit(root))
    gflops = elements * intensity / runtime.now / 1e9
    return gflops, runtime.metrics.counter("proc.gpu_offloads")


def run_gpu(mode: str) -> Rows:
    """One kernel at 4/64/1024 FLOPs per element, CPU-only vs. one GPU per
    node: the policy picks a variant per task by end-to-end cost."""
    rows = {}
    for intensity in (4.0, 64.0, 1024.0):
        cpu_gflops, _ = _kernel_sweep(0, intensity)
        gpu_gflops, offloads = _kernel_sweep(1, intensity)
        rows[f"{intensity:g}"] = {
            "cpu_gflops": cpu_gflops,
            "gpu_gflops": gpu_gflops,
            "offloads": offloads,
            "gpu_over_cpu": gpu_gflops / cpu_gflops,
        }
    return rows


# -- G: index lookup caching (§6 "closing the gap", an extension) -----------------

PROTOTYPE, CACHED = "prototype (no cache)", "with lookup cache"
MPI = "MPI reference"


def run_index_cache(mode: str) -> Rows:
    """Algorithm-1 results cached at their origin, validated by ownership
    version.  Coarser task units and streamed query arrival: each origin
    quickly learns the (static) placement of every sub-tree, so later
    waves hit a warm cache — the regime the optimization targets."""
    nodes, _, queries, waves = TPC_SIZES[mode]
    workload = _tpc_workload(queries, 11, submission_waves=waves)
    problem = make_problem(workload, nodes)
    rows = {}
    for label, caching in ((PROTOTYPE, False), (CACHED, True)):
        result = tpc_allscale(
            Cluster(meggie_like_spec(nodes)),
            workload,
            _config(index_caching=caching),
            problem=problem,
        )
        index = result.extras["runtime"].index
        rows[label] = {
            "qps": result.throughput,
            "lookup_hops": index.lookup_hops,
            "cache_hits": index.cache_hits,
        }
    mpi = tpc_mpi(Cluster(meggie_like_spec(nodes)), workload, problem=problem)
    rows[MPI] = {"qps": mpi.throughput, "lookup_hops": 0, "cache_hits": 0}
    return rows


# -- the panel -------------------------------------------------------------------


@dataclass(frozen=True)
class Ablation:
    """One study: how to run it, how to print it, what it must show."""

    title: str
    run: Callable[[str], Rows]
    #: what a row label is (the columns are the pinned row keys)
    label: str
    #: claim → whether the rows support it
    claims: dict[str, Callable[[Rows], bool]]


ABLATIONS = {
    "A": Ablation(
        "region schemes (Fig. 4b vs 4c)",
        run_regions,
        "scheme",
        {
            # the paper's efficiency claim, on a count a busy neighbour
            # cannot move (the host-time speedup is reported beside it) ...
            "bitmask operations are more than 10x cheaper": lambda r: (
                r[FLEXIBLE]["words_per_op"] > 10 * r[BLOCKED]["words_per_op"]
            ),
            # ... and its flexibility claim
            "only the flexible scheme expresses a single node": lambda r: (
                r[FLEXIBLE]["smallest_region_nodes"] == 1
            ),
        },
    ),
    "B": Ablation(
        "hierarchical index lookups (Fig. 5, Algorithm 1)",
        run_index,
        "processes",
        {
            "every lookup resolves its region": lambda r: (
                not any(point["unresolved"] for point in r.values())
            ),
            # logarithmic growth: hops grow by a bounded additive amount
            # per 4× P, nowhere near linearly in P
            "max hops at 256 processes <= 3 x max hops at 16, + 6": lambda r: (
                r["256"]["max_hops"] <= 3 * r["16"]["max_hops"] + 6
            ),
            "mean hops at 256 processes < 24": lambda r: (
                r["256"]["mean_hops"] < 24
            ),
            # locality: lookups of local data are free
            "mean hops at 4 processes < mean hops at 256, + 8": lambda r: (
                r["4"]["mean_hops"] < r["256"]["mean_hops"] + 8
            ),
        },
    ),
    "D": Ablation(
        "TPC query aggregation (§4.2)",
        run_tpc_batching,
        "task batch",
        {
            # aggregation reduces task transfers monotonically (saturating
            # once each bundle touches every sub-tree) ...
            "batch 32 sends under half of batch 1's remote tasks": lambda r: (
                r["32"]["remote_tasks"] < r["1"]["remote_tasks"] / 2
            ),
            "batch 8 sends fewer remote tasks than batch 1": lambda r: (
                r["8"]["remote_tasks"] < r["1"]["remote_tasks"]
            ),
            # ... but naive bundling does not recover throughput: the lost
            # intra-bundle parallelism offsets the saved messages
            "batch 32 throughput is above 0.5x of batch 1's": lambda r: (
                r["32"]["qps"] > 0.5 * r["1"]["qps"]
            ),
            "batch 32 throughput is below 1.5x of batch 1's": lambda r: (
                r["32"]["qps"] < 1.5 * r["1"]["qps"]
            ),
        },
    ),
    "E": Ablation(
        "load balancing through data migration (§3.2/§6)",
        run_balancer,
        "configuration",
        {
            # the balancer actually moved data, and it paid off
            "the balancer rebalanced at least once": lambda r: (
                r["with balancer"]["rebalances"] > 0
            ),
            "the balanced run is more than 5% faster": lambda r: (
                r["with balancer"]["elapsed_ms"]
                < r["static blocks"]["elapsed_ms"] * 0.95
            ),
        },
    ),
    "F": Ablation(
        "GPU offload crossover (Example 2.3)",
        run_gpu,
        "FLOPs/elem",
        {
            # transfer-bound kernels stay on the CPU: no offloads, no
            # regression
            "the 4 FLOPs/elem kernel never offloads": lambda r: (
                r["4"]["offloads"] == 0
            ),
            "a GPU costs the 4 FLOPs/elem kernel under 5%": lambda r: (
                r["4"]["gpu_over_cpu"] > 0.95
            ),
            # compute-bound kernels offload and win clearly
            "the 1024 FLOPs/elem kernel offloads": lambda r: (
                r["1024"]["offloads"] > 0
            ),
            "the 1024 FLOPs/elem kernel gains more than 3x": lambda r: (
                r["1024"]["gpu_over_cpu"] > 3.0
            ),
        },
    ),
    "G": Ablation(
        "index lookup caching (§6)",
        run_index_cache,
        "configuration",
        {
            # the cache removes index traffic and narrows (without erasing)
            # the gap
            "the lookup cache hits": lambda r: r[CACHED]["cache_hits"] > 0,
            "the cache more than halves the lookup hops": lambda r: (
                r[CACHED]["lookup_hops"] < r[PROTOTYPE]["lookup_hops"] / 2
            ),
            "the cached run is no slower": lambda r: (
                r[CACHED]["qps"] >= r[PROTOTYPE]["qps"]
            ),
            "the gap to the MPI reference does not widen": lambda r: (
                r[CACHED]["qps"] / r[MPI]["qps"]
                >= r[PROTOTYPE]["qps"] / r[MPI]["qps"]
            ),
        },
    ),
}


@dataclass
class AblationsPanel:
    """One run of every ablation at one mode, with host timing."""

    mode: str
    #: ablation letter → its rows
    rows: dict[str, Rows]
    wall_seconds: dict[str, float]


def ablations_panel(mode: str) -> AblationsPanel:
    rows, wall = {}, {}
    for key, ablation in ABLATIONS.items():
        started = time.perf_counter()
        rows[key] = ablation.run(mode)
        wall[key] = time.perf_counter() - started
    return AblationsPanel(mode=mode, rows=rows, wall_seconds=wall)


def panel_section(panel: AblationsPanel) -> dict:
    return {
        "ablations": {
            key: {"rows": rows, "wall_seconds": round(panel.wall_seconds[key], 2)}
            for key, rows in panel.rows.items()
        },
        "wall_seconds_total": round(sum(panel.wall_seconds.values()), 2),
    }


def semantic_problems(panel: AblationsPanel) -> list[str]:
    return [
        f"{key}: claim violated: {claim}"
        for key, rows in panel.rows.items()
        for claim, holds in ABLATIONS[key].claims.items()
        if not holds(rows)
    ]


def render_ablations(panel: AblationsPanel) -> str:
    blocks = []
    for key, rows in panel.rows.items():
        ablation = ABLATIONS[key]
        table = render_table(
            [ablation.label, *next(iter(rows.values()))],
            [
                (label, *(v if isinstance(v, int) else _fmt(v) for v in row.values()))
                for label, row in rows.items()
            ],
        )
        blocks.append(
            f"Ablation {key} — {ablation.title} "
            f"[{panel.wall_seconds[key]:.1f}s wall]\n{table}"
        )
    total = sum(panel.wall_seconds.values())
    blocks.append(f"Ablations ({panel.mode}): {total:.1f}s wall")
    return "\n\n".join(blocks)


PANEL = Panel(
    name="ablations",
    help="run ablations A, B, D, E, F, G of EXPERIMENTS.md (region "
    "schemes, index hops, TPC batching, balancer, GPU offload, index "
    "lookup cache); each must support its paper claim",
    run=ablations_panel,
    section=panel_section,
    render=render_ablations,
    semantic=semantic_problems,
)
