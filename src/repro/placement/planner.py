"""Min-cost assignment of extracted tasks to processes.

An ILP would phrase it as: minimize Σ transfer_seconds(t, p(t)) subject
to per-process load bounds.  That exact formulation is overkill for the
tree-structured instances the apps produce, so the solver here is the
classic practical relaxation — a greedy seeding pass followed by bounded
local-search refinement — which is deterministic, dependency-free, and
lands the provably-good cases (fully fresh phases, data-following
phases) exactly where the optimum is:

1. *Seeding*, phase by phase in submission order.  Tasks whose regions
   overlap nothing placed so far ("fresh", the initialization sweeps)
   are dealt out in contiguous flops-balanced chunks — tree order is
   spatial order, so each process receives one compact block instead of
   a round-robin interleave that would shred halo locality.  Tasks that
   do touch placed data go to the process minimizing estimated transfer
   time.  Either way the task then *claims* the still-unowned parts of
   its regions, so later phases see the layout earlier phases induced.
2. *Refinement*: a few deterministic sweeps moving single tasks to a
   cheaper process, accepted only when transfer time strictly drops and
   the bottleneck load does not grow.

The final claims become the plan's initial layouts; task names (frontier
and interior, interior pinned where their heaviest descendant went)
become the pins.

Both steps price a task from its *pull list* — ``(weight, bytes, owner)``
of every claimed part it touches, found by one hull-gated scan of the
claims — so each candidate process costs one pass over a short list, with
switch hops read from the table
:class:`~repro.sim.cluster.CostModel` builds once.
"""

from __future__ import annotations

from repro.analysis.expansion import AnalysisConfig
from repro.analysis.program import TaskProgram
from repro.items.base import DataItem
from repro.placement.extract import PlacementTask, extract_program
from repro.placement.plan import PlacementPlan
from repro.regions.base import Region
from repro.regions.bounds import bounds_disjoint
from repro.sim.cluster import Cluster, CostModel

#: write regions dominate placement — same ratio the online policy uses
WRITE_WEIGHT = 4.0
READ_WEIGHT = 1.0


def default_analysis_config(processes: int) -> AnalysisConfig:
    """Expansion bounds giving each process a handful of frontier tasks."""
    depth = 2
    while (1 << depth) < 4 * processes and depth < 10:
        depth += 1
    return AnalysisConfig(
        max_depth=depth,
        max_nodes=4096,
        races=False,
        lint=False,
    )


def plan_placement(
    program: TaskProgram,
    cluster: Cluster,
    config: AnalysisConfig | None = None,
    refine_rounds: int = 2,
) -> PlacementPlan:
    """Solve the offline assignment for ``program`` on ``cluster``.

    The plan is sized by the cluster's live node count, so a cluster
    that grew by ``add_node`` gets a plan its runtime engages.
    """
    processes = cluster.num_nodes
    extracted = extract_program(
        program, config or default_analysis_config(processes)
    )
    tasks = extracted.tasks
    assignment, loads, claims, moves, total_transfer = _solve(
        tasks, extracted.items, processes, CostModel(cluster), refine_rounds
    )
    plan = PlacementPlan(label=extracted.label, processes=processes)
    plan.layouts = {
        name: regions
        for name, regions in claims.items()
        if any(not region.is_empty() for region in regions)
    }
    plan.pins = _pins(tasks, assignment)
    plan.stats = {
        "tasks": float(len(tasks)),
        "tasks_truncated": float(sum(1 for t in tasks if t.truncated)),
        "expanded": float(extracted.expanded),
        "refine_moves": float(moves),
        "est_transfer_seconds": total_transfer,
        "load_max": max(loads, default=0.0),
        "load_mean": sum(loads) / processes if processes else 0.0,
    }
    return plan


def _solve(
    tasks: list[PlacementTask],
    items: dict[str, DataItem],
    processes: int,
    cost: CostModel,
    refine_rounds: int,
) -> tuple[list[int], list[float], dict[str, list[Region]], int, float]:
    """Assignment, loads, claims, refinement moves and estimated transfer
    seconds of ``tasks`` on ``processes`` processes."""
    assignment, loads, claims = _seed(tasks, items, processes, cost)
    # refinement moves tasks but never claims: one pull list per task
    # prices every round
    pulls = [_pulls(task, claims, items) for task in tasks]
    moves = _refine(
        tasks, processes, cost, assignment, loads, pulls, refine_rounds
    )
    if moves:
        # claims were induced by the seeding order; rebuild them so the
        # layout matches where refinement actually put the tasks
        claims = _claims_for(tasks, items, processes, assignment)
        pulls = [_pulls(task, claims, items) for task in tasks]
    total_transfer = sum(
        _pull_seconds(task_pulls, pid, cost)
        for task_pulls, pid in zip(pulls, assignment)
    )
    return assignment, loads, claims, moves, total_transfer


# -- seeding ---------------------------------------------------------------------


def _seed(
    tasks: list[PlacementTask],
    items: dict[str, DataItem],
    processes: int,
    cost: CostModel,
) -> tuple[list[int], list[float], dict[str, list[Region]]]:
    claims = _empty_claims(items, processes)
    loads = [0.0] * processes
    assignment: list[int] = []
    phase_count = 1 + max((t.phase for t in tasks), default=0)
    cursor = 0
    for phase in range(phase_count):
        phase_tasks: list[PlacementTask] = []
        while cursor + len(phase_tasks) < len(tasks):
            task = tasks[cursor + len(phase_tasks)]
            if task.phase != phase:
                break
            phase_tasks.append(task)
        cursor += len(phase_tasks)
        # freshness is judged against the phase-*start* claims: siblings
        # within a phase are unordered, so their own claims must not
        # flip each other from "chunk evenly" to "follow the data"
        fresh = [not _touches(t, claims, items) for t in phase_tasks]
        fresh_total = sum(
            t.flops for t, is_fresh in zip(phase_tasks, fresh) if is_fresh
        )
        fresh_cum = 0.0
        phase_loads = [0.0] * processes
        phase_mean = sum(t.flops for t in phase_tasks) / processes
        for task, is_fresh in zip(phase_tasks, fresh):
            if is_fresh and fresh_total > 0:
                pid = min(processes - 1, int(processes * fresh_cum / fresh_total))
                fresh_cum += task.flops
            elif is_fresh:
                pid = min(range(processes), key=lambda p: (loads[p], p))
            else:
                pid = _cheapest_pid(
                    task, claims, items, processes, cost, loads,
                    phase_loads, phase_mean,
                )
            assignment.append(pid)
            loads[pid] += task.flops
            phase_loads[pid] += task.flops
            _claim(task, pid, claims, items)
    return assignment, loads, claims


def _empty_claims(
    items: dict[str, DataItem], processes: int
) -> dict[str, list[Region]]:
    return {
        name: [item.empty_region() for _ in range(processes)]
        for name, item in items.items()
    }


def _touches(
    task: PlacementTask,
    claims: dict[str, list[Region]],
    items: dict[str, DataItem],
) -> bool:
    for name in task.accessed_names():
        wanted = _accessed(task, name, items)
        hull = wanted.hull()
        for claimed in claims[name]:
            if bounds_disjoint(hull, claimed.hull()):
                continue
            if claimed.overlaps(wanted):
                return True
    return False


def _accessed(
    task: PlacementTask, name: str, items: dict[str, DataItem]
) -> Region:
    read = task.reads.get(name, items[name].empty_region())
    write = task.writes.get(name, items[name].empty_region())
    return read.union(write)


def _cheapest_pid(
    task: PlacementTask,
    claims: dict[str, list[Region]],
    items: dict[str, DataItem],
    processes: int,
    cost: CostModel,
    loads: list[float],
    phase_loads: list[float],
    phase_mean: float,
) -> int:
    """Process minimizing transfer time plus expected queueing delay.

    Phases end in a barrier, so a process loaded above the phase mean
    delays the whole phase; charging that excess as compute time lets
    tasks spill off a hot process once the wait exceeds the transfer.
    """
    best: tuple[float, float, int] | None = None
    pulls = _pulls(task, claims, items)
    for pid in range(processes):
        seconds = _pull_seconds(pulls, pid, cost)
        queueing = max(0.0, phase_loads[pid] + task.flops - phase_mean)
        key = (seconds + cost.compute_seconds(queueing), loads[pid], pid)
        if best is None or key < best:
            best = key
    assert best is not None
    return best[2]


def _pulls(
    task: PlacementTask,
    claims: dict[str, list[Region]],
    items: dict[str, DataItem],
) -> list[tuple[float, int, int]]:
    """``(weight, bytes, owner)`` of every claimed part the task touches.

    Which process runs the task changes neither list nor order, so one
    scan of the claims prices the task on every candidate.  Claims whose
    hull misses the wanted region's are skipped before the region algebra.
    """
    pulls = []
    for weight, regions in ((WRITE_WEIGHT, task.writes), (READ_WEIGHT, task.reads)):
        for name, wanted in regions.items():
            item = items[name]
            hull = wanted.hull()
            for owner, claimed in enumerate(claims[name]):
                if bounds_disjoint(hull, claimed.hull()):
                    continue
                overlap = claimed.intersect(wanted)
                if not overlap.is_empty():
                    pulls.append((weight, item.region_bytes(overlap), owner))
    return pulls


def _pull_seconds(
    pulls: list[tuple[float, int, int]], pid: int, cost: CostModel
) -> float:
    """Estimated time to pull the remote bytes among ``pulls`` to ``pid``."""
    seconds = 0.0
    for weight, nbytes, owner in pulls:
        if owner != pid:
            seconds += weight * cost.transfer_seconds(nbytes, owner, pid)
    return seconds


def _claim(
    task: PlacementTask,
    pid: int,
    claims: dict[str, list[Region]],
    items: dict[str, DataItem],
) -> None:
    """Claim the still-unowned parts of the task's regions for ``pid``."""
    for name in task.accessed_names():
        wanted = _accessed(task, name, items)
        for claimed in claims[name]:
            if wanted.is_empty():
                break
            if not bounds_disjoint(wanted.hull(), claimed.hull()):
                wanted = wanted.difference(claimed)
        if not wanted.is_empty():
            claims[name][pid] = claims[name][pid].union(wanted)


def _claims_for(
    tasks: list[PlacementTask],
    items: dict[str, DataItem],
    processes: int,
    assignment: list[int],
) -> dict[str, list[Region]]:
    claims = _empty_claims(items, processes)
    for task, pid in zip(tasks, assignment):
        _claim(task, pid, claims, items)
    return claims


# -- refinement ------------------------------------------------------------------


def _refine(
    tasks: list[PlacementTask],
    processes: int,
    cost: CostModel,
    assignment: list[int],
    loads: list[float],
    pulls: list[list[tuple[float, int, int]]],
    rounds: int,
) -> int:
    """Single-task moves that cut transfer time without a worse bottleneck.

    ``pulls[i]`` is task ``i``'s pull list over the seeding claims.
    """
    moves = 0
    for _ in range(max(0, rounds)):
        improved = False
        for index, (task, task_pulls) in enumerate(zip(tasks, pulls)):
            current = assignment[index]
            here = _pull_seconds(task_pulls, current, cost)
            if here <= 0.0:
                continue
            bottleneck = max(loads)
            best: tuple[float, int] | None = None
            for pid in range(processes):
                if pid == current:
                    continue
                if loads[pid] + task.flops > bottleneck:
                    continue
                there = _pull_seconds(task_pulls, pid, cost)
                if there < here and (best is None or (there, pid) < best):
                    best = (there, pid)
            if best is not None:
                loads[current] -= task.flops
                loads[best[1]] += task.flops
                assignment[index] = best[1]
                moves += 1
                improved = True
        if not improved:
            break
    return moves


# -- pins ------------------------------------------------------------------------


def _pins(tasks: list[PlacementTask], assignment: list[int]) -> dict[str, int]:
    """Name→process pins for frontier tasks and their interior ancestors.

    An interior task is pinned where its heaviest frontier descendant
    went — routing the subtree root toward its bulk keeps the scheduler's
    split cascade from bouncing work across the machine before the
    frontier pins can take hold.  A name observed with two different
    targets is ambiguous and dropped entirely.
    """
    pins: dict[str, int] = {}
    conflicted: set[str] = set()
    for task, pid in zip(tasks, assignment):
        if pins.setdefault(task.name, pid) != pid:
            conflicted.add(task.name)
    heaviest: dict[str, tuple[float, int]] = {}
    for task, pid in zip(tasks, assignment):
        for ancestor in task.ancestors:
            seen = heaviest.get(ancestor)
            if seen is None or task.flops > seen[0]:
                heaviest[ancestor] = (task.flops, pid)
    for name, (_, pid) in heaviest.items():
        if pins.setdefault(name, pid) != pid:
            conflicted.add(name)
    for name in conflicted:
        del pins[name]
    return pins
