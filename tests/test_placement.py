"""Unit tests for the offline placement planner and its runtime policy."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.ipic3d import IPic3DWorkload, ipic3d_allscale, ipic3d_program
from repro.apps.stencil import StencilWorkload, stencil_allscale, stencil_program
from repro.apps.tpc import (
    TPCWorkload,
    make_problem,
    tpc_allscale,
    tpc_program,
)
from repro.items.grid import Grid
from repro.placement import (
    CostModel,
    PlacementPlan,
    PlannedPolicy,
    extract_program,
    plan_placement,
)
from repro.analysis.coverage import check_coverage
from repro.analysis.expansion import expand_task
from repro.analysis.races import effective_requirements
from repro.bench.placement import TOPOLOGIES, _apps, _spec
from repro.placement.planner import (
    READ_WEIGHT,
    WRITE_WEIGHT,
    _pins,
    _solve,
    default_analysis_config,
)
from repro.placement.extract import ExtractedProgram, PlacementTask, _frontier
from repro.runtime.config import RuntimeConfig
from repro.runtime.policies import PlacementContext, RandomPolicy
from repro.runtime.runtime import AllScaleRuntime
from repro.runtime.tasks import TaskSpec
from repro.sim.cluster import Cluster, ClusterSpec

NODES = 4
WORKLOAD = StencilWorkload(n_per_node=200, timesteps=2, functional=False)


def make_cluster(nodes=NODES):
    return Cluster(
        ClusterSpec(num_nodes=nodes, cores_per_node=2, flops_per_core=1e9)
    )


@pytest.fixture(scope="module")
def program():
    return stencil_program(WORKLOAD, NODES, cores_per_node=2)


@pytest.fixture(scope="module")
def plan(program):
    return plan_placement(program, make_cluster())


class TestExtract:
    def test_frontier_tasks_and_items(self, program):
        extracted = extract_program(program)
        assert extracted.label == f"stencil[{NODES}]"
        assert extracted.tasks
        assert set(extracted.items) == {"stencil.A", "stencil.B"}
        # phases arrive in submission order
        phases = [t.phase for t in extracted.tasks]
        assert phases == sorted(phases)
        # 2 init phases + one per timestep
        assert phases[-1] == 1 + WORKLOAD.timesteps

    def test_effective_regions_cover_the_sweep(self, program):
        """Frontier write regions union back to each init sweep's target."""
        extracted = extract_program(program)
        grid = extracted.items["stencil.A"]
        written = grid.empty_region()
        for task in extracted.tasks:
            if task.phase == 0:
                written = written.union(task.writes["stencil.A"])
        assert written.size() == grid.full_region.size()

    def test_ancestors_name_the_subtree_chain(self, program):
        extracted = extract_program(program)
        deep = [t for t in extracted.tasks if t.ancestors]
        assert deep
        for task in deep:
            assert task.ancestors[0].startswith(("init.stencil.", "step"))


class TestPlanner:
    def test_layouts_disjoint_and_within_item(self, plan):
        assert plan.processes == NODES
        for name, regions in plan.layouts.items():
            assert len(regions) == NODES
            total = 0
            for pid, region in enumerate(regions):
                total += region.size()
                for other in regions[pid + 1:]:
                    assert region.intersect(other).is_empty()
            assert total > 0

    def test_layout_spreads_across_processes(self, plan):
        regions = plan.layouts["stencil.A"]
        assert sum(1 for r in regions if not r.is_empty()) == NODES

    def test_pins_are_valid_processes(self, plan):
        assert plan.pins
        assert all(0 <= pid < NODES for pid in plan.pins.values())

    def test_stats_digest(self, plan):
        for key in ("tasks", "expanded", "load_max", "est_transfer_seconds"):
            assert key in plan.stats
        assert plan.stats["tasks"] > 0
        summary = plan.summary()
        assert summary["processes"] == NODES
        assert set(summary["items"]) == set(plan.layouts)

    def test_layout_for_rejects_other_process_counts(self, plan):
        assert plan.layout_for("stencil.A", NODES) is not None
        assert plan.layout_for("stencil.A", NODES + 1) is None
        assert plan.layout_for("no-such-item", NODES) is None

    def test_conflicting_pin_names_are_dropped(self):
        grid = Grid((4, 4), name="g")
        region = grid.full_region

        def task(name, flops=1.0, ancestors=()):
            return PlacementTask(
                name=name,
                path="0",
                phase=0,
                flops=flops,
                reads={},
                writes={"g": region},
                ancestors=ancestors,
            )

        tasks = [
            task("dup"),
            task("dup"),
            task("solo", ancestors=("root",)),
        ]
        pins = _pins(tasks, [0, 1, 2])
        assert "dup" not in pins
        assert pins["solo"] == 2
        assert pins["root"] == 2


class TestGrownCluster:
    def test_plan_after_add_node_engages(self):
        cluster = make_cluster(NODES)
        cluster.add_node()
        nodes = NODES + 1
        plan = plan_placement(
            stencil_program(WORKLOAD, nodes, cores_per_node=2), cluster
        )
        assert plan.processes == nodes
        assert plan.layout_for("stencil.A", nodes) is not None
        runtime = AllScaleRuntime(
            cluster, RuntimeConfig(functional=False), PlannedPolicy(plan)
        )
        runtime.register_item(Grid(WORKLOAD.global_shape(nodes), name="stencil.A"))
        assert runtime.metrics.counter("placement.preplaced_items") > 0

    def test_hop_table_covers_the_new_node(self):
        cluster = make_cluster(NODES)
        newcomer = cluster.add_node()
        cost = CostModel(cluster)
        assert cost.transfer_seconds(1.0, 0, newcomer) > 0.0


class TestCostModel:
    def test_transfer_scales_with_hops(self):
        cost = CostModel(make_cluster(8))
        assert cost.transfer_seconds(1024, 3, 3) == 0.0
        assert cost.transfer_seconds(0, 0, 1) == 0.0
        near = cost.transfer_seconds(1 << 20, 0, 1)
        assert near > 0.0
        topo = make_cluster(8).topology
        if topo.switch_hops(0, 7) > topo.switch_hops(0, 1):
            assert cost.transfer_seconds(1 << 20, 0, 7) > near


class TestPlannedPolicy:
    def _runtime(self, policy):
        return AllScaleRuntime(
            make_cluster(), RuntimeConfig(functional=False), policy
        )

    def _task(self, name, **kwargs):
        defaults = dict(
            name=name, flops=1.0, size_hint=1.0, body=lambda ctx: None
        )
        defaults.update(kwargs)
        return TaskSpec(**defaults)

    def test_pin_tier_wins(self, plan):
        policy = PlannedPolicy(plan)
        runtime = self._runtime(policy)
        name, pid = next(iter(sorted(plan.pins.items())))
        ctx = PlacementContext(runtime=runtime, origin=0, lookup={})
        assert policy.pick_target(self._task(name), ctx) == pid

    def test_out_of_range_pin_is_ignored(self):
        doctored = PlacementPlan(label="x", processes=NODES)
        doctored.pins = {"t": NODES + 7}
        policy = PlannedPolicy(doctored)
        runtime = self._runtime(policy)
        ctx = PlacementContext(runtime=runtime, origin=2, lookup={})
        # no pin in range, no layouts: falls through to the online policy,
        # which keeps a requirement-free task at its origin
        assert policy.pick_target(self._task("t"), ctx) == 2

    def test_layout_vote_follows_planned_owner(self, plan):
        policy = PlannedPolicy(plan)
        runtime = self._runtime(policy)
        grid = Grid(WORKLOAD.global_shape(NODES), name="stencil.A")
        runtime.register_item(grid)
        layout = plan.layout_for("stencil.A", NODES)
        for pid, owned in enumerate(layout):
            if owned.is_empty():
                continue
            task = self._task(f"unpinned{pid}", writes={grid: owned})
            assert task.name not in plan.pins
            ctx = PlacementContext(runtime=runtime, origin=0, lookup={})
            assert policy.pick_target(task, ctx) == pid

    def test_register_item_preplaces_ownership(self, plan):
        policy = PlannedPolicy(plan)
        runtime = self._runtime(policy)
        grid = Grid(WORKLOAD.global_shape(NODES), name="stencil.A")
        runtime.register_item(grid)
        assert runtime.metrics.counter("placement.preplaced_items") == 1
        layout = plan.layout_for("stencil.A", NODES)
        for pid, region in enumerate(layout):
            owned = runtime.processes[pid].data_manager.owned_region(grid)
            assert owned.covers(region)

    def test_plan_for_other_cluster_size_preplaces_nothing(self, plan):
        policy = PlannedPolicy(plan)
        cluster = make_cluster(NODES * 2)
        runtime = AllScaleRuntime(
            cluster, RuntimeConfig(functional=False), policy
        )
        grid = Grid(WORKLOAD.global_shape(NODES), name="stencil.A")
        runtime.register_item(grid)
        assert runtime.metrics.counter("placement.preplaced_items") == 0


class TestEndToEnd:
    def test_planned_moves_fewer_bytes_than_random(self, plan):
        config = RuntimeConfig(functional=False)

        def race(policy):
            result = stencil_allscale(
                make_cluster(), WORKLOAD, config, policy
            )
            runtime = result.extras["runtime"]
            return runtime.metrics.counter(
                "net.bytes"
            ) + runtime.data_bytes_moved()

        planned = race(PlannedPolicy(plan))
        random = race(RandomPolicy(seed=0))
        assert planned < random


def _stencil(config):
    return (
        lambda: stencil_program(WORKLOAD, NODES, cores_per_node=2, config=config),
        lambda: stencil_allscale(make_cluster(), WORKLOAD, config),
    )


def _ipic3d(config):
    workload = IPic3DWorkload(
        particles_per_node=1_000_000, cells_per_node_side=4, timesteps=2
    )
    return (
        lambda: ipic3d_program(workload, NODES, cores_per_node=2, config=config),
        lambda: ipic3d_allscale(make_cluster(), workload, config),
    )


def _tpc(config):
    workload = TPCWorkload(
        total_points=2**12,
        depth=8,
        queries_total=12,
        task_subtree_height=4,
        task_batch=2,
        submission_waves=2,
    )
    problem = make_problem(workload, NODES)
    return (
        lambda: tpc_program(problem),
        lambda: tpc_allscale(make_cluster(), workload, config, problem=problem),
    )


class TestDriverSubmitsTheProgram:
    """The planner pins tasks *by name* and the analyzer admits *by graph*:
    both read ``program.phases``, so what the driver hands to
    ``AllScaleRuntime.submit_all`` must be exactly the program's roots."""

    @pytest.mark.parametrize("app", [_stencil, _ipic3d, _tpc])
    def test_submissions_equal_all_roots(self, app, monkeypatch):
        # non-default oversubscription: the config must reach the builder
        build, run = app(RuntimeConfig(functional=False, oversubscription=2))
        submitted = []
        real_submit_all = AllScaleRuntime.submit_all

        def spy(self, tasks, origins):
            submitted.extend(
                (task.name, task.granularity, origin)
                for task, origin in zip(tasks, origins)
            )
            return real_submit_all(self, tasks, origins)

        monkeypatch.setattr(AllScaleRuntime, "submit_all", spy)
        run()
        program = build()
        assert submitted == [
            (
                root.name,
                root.granularity,
                k % NODES if program.rotate_origins else 0,
            )
            for k, root in enumerate(program.all_roots())
        ]
        if program.rotate_origins:  # ... and the rotation was exercised
            assert {origin for _, _, origin in submitted} == set(range(NODES))


# -- oracle: the pricing the planner used before it priced each task once ------
#
# Full claim scans with no hull gate, every task's pull list rebuilt on each
# use, the fat-tree distance asked per transfer, and extraction running the
# analyzer's coverage pass.  The planner must reproduce its plans exactly.


class ScalarCostModel(CostModel):
    def __init__(self, cluster):
        super().__init__(cluster)
        self.topology = cluster.topology

    def transfer_seconds(self, nbytes, src, dst):
        if src == dst or nbytes <= 0:
            return 0.0
        return nbytes * self.topology.switch_hops(src, dst) / self.bandwidth


def scalar_extract(program, config):
    out = ExtractedProgram(label=program.label)
    findings = []
    for phase_index, phase in enumerate(program.phases):
        for spec in phase:
            root, expanded, truncated = expand_task(spec, config, findings)
            out.expanded += expanded
            out.truncated += truncated
            findings.extend(check_coverage(root, config))
            efforts = effective_requirements(root)
            for node, ancestors in _frontier(root):
                eff = efforts[id(node)]
                reads, writes = {}, {}
                for item, region in eff.writes.items():
                    out.items.setdefault(item.name, item)
                    writes[item.name] = region
                for item, region in eff.reads.items():
                    out.items.setdefault(item.name, item)
                    reads[item.name] = region
                out.tasks.append(
                    PlacementTask(
                        name=node.spec.name,
                        path=node.path,
                        phase=phase_index,
                        flops=float(node.spec.flops),
                        reads=reads,
                        writes=writes,
                        ancestors=ancestors,
                        truncated=node.truncated,
                    )
                )
    return out


def scalar_accessed(task, name, items):
    read = task.reads.get(name, items[name].empty_region())
    write = task.writes.get(name, items[name].empty_region())
    return read.union(write)


def scalar_touches(task, claims, items):
    return any(
        claimed.overlaps(scalar_accessed(task, name, items))
        for name in task.accessed_names()
        for claimed in claims[name]
    )


def scalar_pulls(task, claims, items):
    pulls = []
    for weight, regions in ((WRITE_WEIGHT, task.writes), (READ_WEIGHT, task.reads)):
        for name, wanted in regions.items():
            for owner, claimed in enumerate(claims[name]):
                overlap = claimed.intersect(wanted)
                if not overlap.is_empty():
                    pulls.append((weight, items[name].region_bytes(overlap), owner))
    return pulls


def scalar_seconds(task, pid, claims, items, cost):
    seconds = 0.0
    for weight, nbytes, owner in scalar_pulls(task, claims, items):
        if owner != pid:
            seconds += weight * cost.transfer_seconds(nbytes, owner, pid)
    return seconds


def scalar_claim(task, pid, claims, items):
    for name in task.accessed_names():
        wanted = scalar_accessed(task, name, items)
        for claimed in claims[name]:
            if wanted.is_empty():
                break
            wanted = wanted.difference(claimed)
        if not wanted.is_empty():
            claims[name][pid] = claims[name][pid].union(wanted)


def scalar_claims_for(tasks, items, processes, assignment):
    claims = {
        name: [item.empty_region() for _ in range(processes)]
        for name, item in items.items()
    }
    for task, pid in zip(tasks, assignment):
        scalar_claim(task, pid, claims, items)
    return claims


def scalar_seed(tasks, items, processes, cost):
    claims = scalar_claims_for([], items, processes, [])
    loads = [0.0] * processes
    assignment = []
    for phase in range(1 + max((t.phase for t in tasks), default=0)):
        phase_tasks = [t for t in tasks if t.phase == phase]
        fresh = [not scalar_touches(t, claims, items) for t in phase_tasks]
        fresh_total = sum(t.flops for t, f in zip(phase_tasks, fresh) if f)
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
                pid = min(
                    range(processes),
                    key=lambda p: (
                        scalar_seconds(task, p, claims, items, cost)
                        + cost.compute_seconds(
                            max(0.0, phase_loads[p] + task.flops - phase_mean)
                        ),
                        loads[p],
                        p,
                    ),
                )
            assignment.append(pid)
            loads[pid] += task.flops
            phase_loads[pid] += task.flops
            scalar_claim(task, pid, claims, items)
    return assignment, loads, claims


def scalar_refine(tasks, items, processes, cost, assignment, loads, claims, rounds):
    moves = 0
    for _ in range(rounds):
        improved = False
        for index, task in enumerate(tasks):
            current = assignment[index]
            here = scalar_seconds(task, current, claims, items, cost)
            if here <= 0.0:
                continue
            bottleneck = max(loads)
            best = None
            for pid in range(processes):
                if pid == current or loads[pid] + task.flops > bottleneck:
                    continue
                there = scalar_seconds(task, pid, claims, items, cost)
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


def scalar_solve(tasks, items, processes, cost, rounds=2):
    assignment, loads, claims = scalar_seed(tasks, items, processes, cost)
    moves = scalar_refine(
        tasks, items, processes, cost, assignment, loads, claims, rounds
    )
    if moves:
        claims = scalar_claims_for(tasks, items, processes, assignment)
    total = sum(
        scalar_seconds(task, pid, claims, items, cost)
        for task, pid in zip(tasks, assignment)
    )
    return assignment, loads, claims, moves, total


def scalar_plan(program, cluster):
    processes = cluster.num_nodes
    extracted = scalar_extract(program, default_analysis_config(processes))
    tasks = extracted.tasks
    assignment, loads, claims, moves, total = scalar_solve(
        tasks, extracted.items, processes, ScalarCostModel(cluster)
    )
    layouts = {
        name: [region.cache_key() for region in regions]
        for name, regions in claims.items()
        if any(not region.is_empty() for region in regions)
    }
    stats = {
        "tasks": float(len(tasks)),
        "tasks_truncated": float(sum(1 for t in tasks if t.truncated)),
        "expanded": float(extracted.expanded),
        "refine_moves": float(moves),
        "est_transfer_seconds": total,
        "load_max": max(loads, default=0.0),
        "load_mean": sum(loads) / processes,
    }
    return layouts, _pins(tasks, assignment), stats


@pytest.fixture(scope="module")
def smoke_apps():
    return {setup.name: setup for setup in _apps("smoke")}


class TestPlannerMatchesScalarPricing:
    @pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
    @pytest.mark.parametrize("app", ["stencil", "ipic3d", "tpc"])
    def test_same_plan(self, app, topology, smoke_apps):
        nodes, radix = TOPOLOGIES[topology]
        program = smoke_apps[app].program(nodes, None)
        plan = plan_placement(program, Cluster(_spec(nodes, radix)))
        layouts, pins, stats = scalar_plan(program, Cluster(_spec(nodes, radix)))
        assert {
            name: [region.cache_key() for region in regions]
            for name, regions in plan.layouts.items()
        } == layouts
        assert plan.pins == pins
        assert plan.stats == stats

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_same_solution_on_random_tasks(self, data):
        """Overlapping random boxes over two grids, so refinement moves tasks
        whose claims then change owner."""
        processes = data.draw(st.integers(2, 5))
        cluster = Cluster(
            ClusterSpec(
                num_nodes=processes,
                cores_per_node=1,
                flops_per_core=1e6,
                switch_radix=2,
            )
        )
        grids = {name: Grid((12, 12), name=name) for name in ("u", "v")}
        corner = st.tuples(st.integers(0, 11), st.integers(0, 11))

        def box(grid):
            a, b = data.draw(corner), data.draw(corner)
            lo = tuple(min(x, y) for x, y in zip(a, b))
            hi = tuple(max(x, y) + 1 for x, y in zip(a, b))
            return grid.box(lo, hi)

        tasks = []
        for index in range(data.draw(st.integers(1, 14))):
            reads = {n: box(g) for n, g in grids.items() if data.draw(st.booleans())}
            writes = {n: box(g) for n, g in grids.items() if data.draw(st.booleans())}
            tasks.append(
                PlacementTask(
                    name=f"t{index}",
                    path=f"t{index}",
                    phase=0,
                    flops=float(data.draw(st.integers(1, 4))),
                    reads=reads,
                    writes=writes,
                    ancestors=(),
                )
            )
        phases = sorted(data.draw(st.integers(0, 3)) for _ in tasks)
        for task, phase in zip(tasks, phases):
            task.phase = phase
        items = dict(grids)
        assignment, loads, claims, moves, total = _solve(
            tasks, items, processes, CostModel(cluster), 2
        )
        old = scalar_solve(tasks, items, processes, ScalarCostModel(cluster))
        assert (assignment, loads, moves, total) == (
            old[0], old[1], old[3], old[4],
        )
        assert {
            name: [region.cache_key() for region in regions]
            for name, regions in claims.items()
        } == {
            name: [region.cache_key() for region in regions]
            for name, regions in old[2].items()
        }
