"""TPC — two-point correlation search over a kd-tree (paper §4.1).

For each query point in 7-D space, count the points within a fixed radius
via a pruned kd-tree traversal (Gray & Moore's n-body methods).  Paper
scale: 2²⁹ points in ``[0, 100)⁷``, radius 20, metric *queries per
second*.

The kd-tree is distributed by sub-trees (one contiguous band of
distribution-level sub-trees per process, the top tree replicated as
structural metadata).  A query runs in two phases:

1. **top traversal** at the query's home node — prunes/accepts whole
   sub-trees and identifies the distribution roots needing real descent;
2. **sub-tree traversals** at the owners of those roots.

Both phases' work is derived for every query at set-up
(:func:`make_problem`), one chunk of queries per traversal pass.

The two ports differ exactly as the paper describes (§4.2):

* :func:`tpc_allscale` — one small task per (query, sub-tree), forwarded
  by the scheduler to the owning locality.  "The resulting high inter-node
  communication overhead for transferring tasks diminishes overall
  performance and grows dominant for larger node counts."  The paper
  says aggregation is "technically possible [but] not yet integrated";
  it is here twice.  Below the task interface,
  ``RuntimeConfig.comm_coalescing`` places a phase's queries submitted at
  one process together: one index lookup per origin, one parcel per
  destination, with the same tasks (the Fig. 7 runs leave it off).  Above
  it, the ``task_batch`` knob merges queries into one task tree — the
  batching ablation.
* :func:`tpc_mpi` — the reference "aggregates multiple queries to reduce
  latency sensitivity and improve bandwidth utilization": per round, each
  rank groups a batch of queries by owner and exchanges them with two
  all-to-alls.

Cost calibration: ``point_flops``/``visit_flops`` are set so single-node
throughput lands near the paper's Fig. 7 left edge (≈350 q/s).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator

import numpy as np

from repro.api.program import execute_program
from repro.apps.common import AppResult
from repro.items.kdtree import (
    KDTreeItem,
    KDTreeStructure,
    build_kdtree,
    synthetic_kdtree,
)
from repro.mpi.comm import Communicator
from repro.mpi.program import run_spmd
from repro.runtime.config import RuntimeConfig
from repro.runtime.policies import SchedulingPolicy
from repro.runtime.tasks import OwnerMap, TaskProgram, TaskSpec
from repro.sim.cluster import Cluster

#: queries planned per traversal pass in :func:`make_problem`.  The chunk
#: bounds the frontier temporaries, whose rows are chunk x open sub-tree
#: nodes.  At ``tpc_w32`` size (1,152 queries, depth 16, 2-core Xeon)
#: ``make_problem`` takes 0.30-0.33 s of CPU and peaks at 51.3 MB RSS at 16;
#: 0.34-0.38 s and 54.9 MB at 32; 0.37-0.40 s and 50.7 MB at 8; one query
#: per pass 1.1-1.4 s and 48.4 MB; all queries in one pass 219 MB.  The
#: ledger's ``tpc_coalesced_w32`` peak RSS (taken after its run) read +1.0 %
#: over one query per pass at 16 (median of seven pairs), +3.0 % at 32 and
#: +5.4 % at 8.
QUERY_CHUNK = 16


@dataclass(frozen=True)
class TPCWorkload:
    """Parameters of one TPC run."""

    #: total points in the tree; paper: 2**29
    total_points: int = 2**29
    dims: int = 7
    low: float = 0.0
    high: float = 100.0
    radius: float = 20.0
    #: queries issued per node (weak scaling of the query load)
    queries_per_node: int = 64
    #: if set, the total offered load per measurement window overrides
    #: queries_per_node × nodes.  A fixed window is how the throughput
    #: difference manifests: MPI's aggregation pipelines the window densely
    #: while the per-query task decomposition cannot saturate large
    #: clusters — the paper's "latency sensitivity" (§4.2)
    queries_total: int | None = None
    #: kd-tree depth (levels); leaves hold total_points / 2**(depth-1)
    depth: int = 16
    #: AllScale: queries aggregated per task bundle (1 = paper's prototype)
    task_batch: int = 1
    #: AllScale: traversal task units are sub-trees of this height — a
    #: *fixed* granularity independent of the node count, matching the
    #: prototype's recursive decomposition ("a large number of inherently
    #: small tasks").  depth 16, height 9 → up to 64 units per query.
    task_subtree_height: int = 9
    #: deal bands out round-robin (the flexible Fig. 4b distribution) rather
    #: than in contiguous blocks; round-robin maximizes locality crossings
    interleave_ownership: bool = True
    #: MPI: queries aggregated per all-to-all round
    mpi_batch: int = 64
    #: AllScale: number of submission waves the query window arrives in
    #: (1 = everything offered at once; >1 = streamed arrival)
    submission_waves: int = 1
    #: traversal cost constants (see module docstring)
    visit_flops: float = 200.0
    point_flops: float = 50.0
    #: build a real point set (small scales only) for exact counting
    functional: bool = False
    seed: int = 12345

    def total_queries(self, nodes: int) -> int:
        if self.queries_total is not None:
            return max(1, self.queries_total)
        return self.queries_per_node * nodes


@dataclass
class QueryPlan:
    """Result of one query's top-tree traversal."""

    top_count: float
    top_visits: int
    #: distribution roots requiring a real descent
    recurse_roots: list[int] = field(default_factory=list)


@dataclass
class TPCProblem:
    """The shared problem instance both ports run against."""

    workload: TPCWorkload
    nodes: int
    structure: KDTreeStructure
    item: KDTreeItem
    queries: np.ndarray
    #: level whose sub-trees form the ownership bands
    band_level: int
    #: (deeper) level whose sub-trees form the traversal task units
    task_level: int
    owner_of_root: dict[int, int]
    plans: list[QueryPlan]
    #: (query index, task root) -> (flops, count) of the sub-tree descent
    band_work: dict[tuple[int, int], tuple[float, float]]
    #: per-process owned region (placement for the AllScale runtime)
    placement: list = field(default_factory=list)

    def exact_count(self, qi: int) -> float:
        """Reference count for query ``qi`` straight from the structure."""
        return self.structure.query(
            self.queries[qi], self.workload.radius
        ).count


def make_problem(workload: TPCWorkload, nodes: int) -> TPCProblem:
    """Build the tree, the queries, and all per-query traversal plans."""
    rng = np.random.default_rng(workload.seed)
    if workload.functional:
        points = rng.uniform(
            workload.low, workload.high, size=(workload.total_points, workload.dims)
        )
        structure = build_kdtree(points, workload.depth)
    else:
        structure = synthetic_kdtree(
            workload.total_points,
            workload.depth,
            [workload.low] * workload.dims,
            [workload.high] * workload.dims,
        )
    item = KDTreeItem(structure, name="tpc.kdtree")
    queries = rng.uniform(
        workload.low, workload.high, size=(workload.total_queries(nodes), workload.dims)
    )

    # ownership bands: the shallowest level with a sub-tree per process;
    # process 0 additionally owns the (replicated-as-metadata) top tree
    band_level, owner_of_band, placement = item.bands(
        nodes, interleave=workload.interleave_ownership
    )
    # traversal task units: fixed-height sub-trees (granularity does not
    # change with the node count), but never shallower than the bands and
    # never below the leaves
    task_level = structure.depth - workload.task_subtree_height
    task_level = max(band_level, min(structure.depth - 1, task_level))

    # a task root's owner is its band ancestor's owner
    owner_of_root = {
        root: owner_of_band[root >> (task_level - band_level)]
        for root in range(1 << (task_level - 1), 1 << task_level)
    }

    # per chunk of queries: one top pass, one pass over every sub-tree it
    # leaves open
    plans: list[QueryPlan] = []
    band_work: dict[tuple[int, int], tuple[float, float]] = {}
    for start in range(0, len(queries), QUERY_CHUNK):
        chunk = queries[start : start + QUERY_CHUNK]
        chunk_plans = _plan_tops(structure, chunk, workload.radius, task_level)
        plans.extend(chunk_plans)
        asker = [i for i, plan in enumerate(chunk_plans) for _ in plan.recurse_roots]
        roots = [root for plan in chunk_plans for root in plan.recurse_roots]
        descent = structure.traverse(chunk[asker], workload.radius, roots)
        flops = (
            descent.visited * workload.visit_flops
            + descent.scanned * workload.point_flops
        )
        for k, (i, root) in enumerate(zip(asker, roots)):
            band_work[(start + i, root)] = (float(flops[k]), float(descent.count[k]))
    return TPCProblem(
        workload=workload,
        nodes=nodes,
        structure=structure,
        item=item,
        queries=queries,
        band_level=band_level,
        task_level=task_level,
        owner_of_root=owner_of_root,
        plans=plans,
        band_work=band_work,
        placement=placement,
    )


def _plan_tops(
    structure: KDTreeStructure, queries: np.ndarray, radius: float, dist_level: int
) -> list[QueryPlan]:
    """Traverse the (replicated) top tree once per query in one pass,
    collecting each query's sub-trees to descend."""
    top = structure.traverse(queries, radius, [1] * len(queries), dist_level)
    return [
        QueryPlan(float(count), int(visits), partial)
        for count, visits, partial in zip(top.count, top.visited, top.partial)
    ]


# ---------------------------------------------------------------------------
# AllScale port
# ---------------------------------------------------------------------------


def tpc_batch_task(problem: TPCProblem, batch: list[int]) -> TaskSpec:
    """The task tree of one query batch."""
    workload = problem.workload
    # the root's requirement must subsume its children's (the spawn
    # rule's precondition): the union of every sub-tree any batched
    # query descends into.  Without it the band children's reads
    # escape the root — the static analyzer's coverage check flags
    # exactly that (see tests/test_analysis_apps.py).
    batch_roots = sorted(
        {root for qi in batch for root in problem.plans[qi].recurse_roots}
    )
    batch_reads = problem.item.empty_region()
    for root in batch_roots:
        batch_reads = batch_reads.union(problem.item.subtree_region(root))

    def splitter(_owners: OwnerMap) -> list[TaskSpec]:
        children: list[TaskSpec] = []
        top_flops = sum(
            problem.plans[qi].top_visits for qi in batch
        ) * workload.visit_flops
        top_count = sum(problem.plans[qi].top_count for qi in batch)
        children.append(
            TaskSpec(
                name=f"tpc.top[{batch[0]}..]",
                flops=top_flops,
                size_hint=1.0,
                body=lambda ctx, v=top_count: v,
                body_in_virtual=True,
            )
        )
        # one child per touched sub-tree, carrying every batched query
        # that needs it — task_batch=1 reproduces the paper's prototype
        per_root: dict[int, tuple[float, float]] = {}
        for qi in batch:
            for root in problem.plans[qi].recurse_roots:
                flops, count = problem.band_work[(qi, root)]
                agg = per_root.get(root, (0.0, 0.0))
                per_root[root] = (agg[0] + flops, agg[1] + count)
        for root, (flops, count) in sorted(per_root.items()):
            children.append(
                TaskSpec(
                    name=f"tpc.band{root}[{batch[0]}..]",
                    reads={problem.item: problem.item.subtree_region(root)},
                    flops=flops,
                    size_hint=1.0,
                    body=lambda ctx, v=count: v,
                    body_in_virtual=True,
                )
            )
        return children

    return TaskSpec(
        name=f"tpc.query[{batch[0]}..{batch[-1]}]",
        reads=(
            {problem.item: batch_reads}
            if not batch_reads.is_empty()
            else {}
        ),
        size_hint=float(len(batch) + 2),
        granularity=1.0,
        splitter=splitter,
        combiner=lambda values: float(sum(values)),
    )


def tpc_program(problem: TPCProblem) -> TaskProgram:
    """The query window: the one declaration of a TPC run.

    One phase per submission wave — batches within a wave are submitted
    concurrently, from submission points rotating over the processes,
    and waves are separated by a barrier.  The kd-tree starts out in the
    problem's band placement; everything is measured (no init phase).
    """
    workload = problem.workload
    batches = _query_batches(problem, workload.task_batch)
    waves = max(1, min(workload.submission_waves, len(batches)))
    per_wave = (len(batches) + waves - 1) // waves
    program = TaskProgram(
        f"tpc[{problem.nodes}]",
        items=[problem.item],
        placement={problem.item: problem.placement},
        rotate_origins=True,
    )
    for wave in range(waves):
        chunk = batches[wave * per_wave : (wave + 1) * per_wave]
        if chunk:
            program.add_phase(
                *[tpc_batch_task(problem, batch) for batch in chunk]
            )
    return program


def tpc_allscale(
    cluster: Cluster,
    workload: TPCWorkload,
    config: RuntimeConfig | None = None,
    policy: SchedulingPolicy | None = None,
    problem: TPCProblem | None = None,
    on_runtime=None,
) -> AppResult:
    """Run the AllScale port: per-query task trees routed by the scheduler.

    ``on_runtime``: see :func:`~repro.api.program.execute_program`.
    """
    if problem is None:
        problem = make_problem(workload, cluster.num_nodes)
    run = execute_program(
        cluster, tpc_program(problem), config, policy, on_runtime
    )
    # nodes reads the node count *after* the run; see ROADMAP
    return AppResult(
        app="tpc",
        system="allscale",
        nodes=cluster.num_nodes,
        elapsed=run.elapsed,
        work=float(len(problem.queries)),
        extras={
            "runtime": run.runtime,
            "counts": [count for wave in run.values for count in wave],
            "batches": _query_batches(problem, workload.task_batch),
            "problem": problem,
        },
    )


def _query_batches(problem: TPCProblem, batch_size: int) -> list[list[int]]:
    if batch_size < 1:
        raise ValueError(f"task_batch must be >= 1, got {batch_size}")
    indices = list(range(len(problem.queries)))
    return [
        indices[i : i + batch_size] for i in range(0, len(indices), batch_size)
    ]


# ---------------------------------------------------------------------------
# MPI port
# ---------------------------------------------------------------------------


def tpc_mpi(
    cluster: Cluster,
    workload: TPCWorkload,
    problem: TPCProblem | None = None,
) -> AppResult:
    """Run the MPI reference port with query aggregation (paper §4.2)."""
    if problem is None:
        problem = make_problem(workload, cluster.num_nodes)
    nodes = cluster.num_nodes
    query_bytes = workload.dims * 8 + 8
    per_rank = [
        [qi for qi in range(len(problem.queries)) if qi % nodes == rank]
        for rank in range(nodes)
    ]
    totals: dict[int, float] = {}

    def rank_main(comm: Communicator) -> Generator:
        rank = comm.rank
        mine = per_rank[rank]
        yield from comm.barrier(tag=700)
        t0 = comm.engine.now
        total = 0.0
        batch_size = max(1, workload.mpi_batch)
        for start in range(0, len(mine), batch_size):
            batch = mine[start : start + batch_size]
            # top traversal of the whole batch, locally
            top_flops = sum(
                problem.plans[qi].top_visits for qi in batch
            ) * workload.visit_flops
            yield comm.compute(top_flops)
            total += sum(problem.plans[qi].top_count for qi in batch)
            # group the needed sub-tree descents by owner
            outgoing: list[list[tuple[int, int]]] = [[] for _ in range(nodes)]
            for qi in batch:
                for root in problem.plans[qi].recurse_roots:
                    outgoing[problem.owner_of_root[root]].append((qi, root))
            # ship aggregated query bundles (one all-to-all per round)
            payloads = [
                (max(1, len(items) * query_bytes), items)
                for items in outgoing
            ]
            incoming = yield from comm.alltoall(payloads, tag=7100 + start % 50)
            # process everyone's requests against the local sub-trees
            replies: list[tuple[int, float]] = []
            work_flops = 0.0
            for src, items in enumerate(incoming):
                subtotal = 0.0
                for qi, root in items or []:
                    flops, count = problem.band_work[(qi, root)]
                    work_flops += flops
                    subtotal += count
                replies.append((src, subtotal))
            if work_flops:
                yield comm.compute(work_flops)
            # return aggregated counts
            reply_payloads = [(8, value) for _src, value in replies]
            returned = yield from comm.alltoall(
                reply_payloads, tag=7500 + start % 50
            )
            total += sum(v for v in returned if v is not None)
        yield from comm.barrier(tag=701)
        totals[rank] = total
        return comm.engine.now - t0

    times = run_spmd(cluster, rank_main)
    return AppResult(
        app="tpc",
        system="mpi",
        nodes=nodes,
        elapsed=max(times),
        work=float(len(problem.queries)),
        extras={"totals": totals, "problem": problem},
    )
