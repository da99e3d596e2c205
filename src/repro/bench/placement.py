"""The ``--placement`` panel: offline planner vs. online policies.

A policy *tournament*: every application × topology × policy combination
runs the same workload, and the leaderboard reports simulated wall
clock, message count, bytes moved (wire payload plus migrated/replicated
fragment bytes), and load-balancer migrations.  The contenders:

* ``planned`` — :class:`~repro.placement.policy.PlannedPolicy` carrying
  a fresh offline :class:`~repro.placement.plan.PlacementPlan` solved
  per app × topology;
* ``data-aware`` — the runtime's default online policy;
* ``round-robin`` / ``random`` — the scheduler-ablation baselines.

The online policies are deliberately *shared instances* across all
races: the ``reset()`` contract (invoked at runtime construction) must
make back-to-back runs identical, and this panel's exact-match baseline
is the standing proof.

Results — every race, every plan digest, the topologies — are pinned in
``BENCH_placement_baseline.json`` through :mod:`repro.bench.panel`; the
semantic gate is the planner's headline guarantee — ``planned`` moves
strictly fewer bytes than both ablation baselines for every application
— plus EXPERIMENTS.md's Ablation C: on the stencil the data-aware tiers
of Algorithm 2 beat round-robin and random on wall clock *and* bytes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

from typing import Callable

from repro.api.program import ProgramRun, execute_program
from repro.apps.ipic3d import IPic3DWorkload, ipic3d_program
from repro.apps.stencil import StencilWorkload, stencil_program
from repro.apps.tpc import TPCProblem, TPCWorkload, make_problem, tpc_program
from repro.bench.panel import Panel
from repro.placement import PlannedPolicy, plan_placement
from repro.runtime.config import RuntimeConfig
from repro.runtime.policies import (
    DataAwarePolicy,
    RandomPolicy,
    RoundRobinPolicy,
    SchedulingPolicy,
)
from repro.runtime.tasks import TaskProgram
from repro.sim.cluster import Cluster, ClusterSpec, meggie_like_spec

#: name → (node count, fat-tree switch radix).  Three shapes: a single
#: edge-switch group, a deep skinny tree (every hop counts), and a wide
#: two-level machine.
TOPOLOGIES: dict[str, tuple[int, int]] = {
    "edge4": (4, 16),
    "deep8": (8, 2),
    "wide16": (16, 4),
}

POLICIES = ("planned", "data-aware", "round-robin", "random")

#: cores per node for every tournament cluster.  Placement quality is a
#: cross-*node* story; meggie's 20 cores only multiply the leaf-task and
#: message counts (the worst 16-node races get ~10x slower to simulate)
#: without changing who wins.
TOURNAMENT_CORES = 4


@dataclass
class RaceResult:
    """One policy's metrics on one app × topology race."""

    app: str
    topology: str
    policy: str
    #: simulated seconds (exact, deterministic)
    elapsed: float
    messages: float
    bytes_moved: float
    migrations: float
    preplaced: float

    def values(self) -> dict[str, float]:
        return {
            "elapsed": self.elapsed,
            "messages": self.messages,
            "bytes_moved": self.bytes_moved,
            "migrations": self.migrations,
            "preplaced": self.preplaced,
        }


@dataclass
class PlacementPanel:
    """One complete tournament at one mode."""

    mode: str
    results: list[RaceResult] = field(default_factory=list)
    #: (app, topology) → planner digest
    plans: dict[str, dict] = field(default_factory=dict)
    wall_seconds: float = 0.0

    def race(self, app: str, topology: str, policy: str) -> RaceResult:
        for result in self.results:
            if (result.app, result.topology, result.policy) == (
                app,
                topology,
                policy,
            ):
                return result
        raise KeyError(f"no race {app}/{topology}/{policy}")


def _spec(nodes: int, radix: int) -> ClusterSpec:
    return replace(
        meggie_like_spec(nodes),
        switch_radix=radix,
        cores_per_node=TOURNAMENT_CORES,
    )


def _config(balancer_interval: float) -> RuntimeConfig:
    return RuntimeConfig(
        functional=False,
        oversubscription=2,
        load_balancing=True,
        balancer_interval=balancer_interval,
    )


@dataclass
class _AppSetup:
    """One app's program builder at one mode."""

    name: str
    #: balancer period, scaled to the app's simulated duration
    balancer_interval: float
    #: (nodes, config) -> the app's program; planned *and* raced from it
    program: Callable[[int, RuntimeConfig | None], TaskProgram]


def _apps(mode: str) -> list[_AppSetup]:
    if mode == "full":
        stencil_wl = StencilWorkload(
            n_per_node=2_000, timesteps=3, functional=False
        )
        ipic3d_wl = IPic3DWorkload(
            particles_per_node=24_000_000, cells_per_node_side=6, timesteps=2
        )
        tpc_wl = TPCWorkload(
            total_points=2**27,
            depth=14,
            queries_total=96,
            functional=False,
            visit_flops=150.0,
            point_flops=30.0,
            task_subtree_height=8,
        )
    elif mode == "quick":
        stencil_wl = StencilWorkload(
            n_per_node=1_000, timesteps=2, functional=False
        )
        ipic3d_wl = IPic3DWorkload(
            particles_per_node=12_000_000, cells_per_node_side=4, timesteps=2
        )
        tpc_wl = TPCWorkload(
            total_points=2**25,
            depth=12,
            queries_total=64,
            functional=False,
            visit_flops=150.0,
            point_flops=30.0,
            task_subtree_height=7,
        )
    else:  # smoke
        stencil_wl = StencilWorkload(
            n_per_node=500, timesteps=2, functional=False
        )
        ipic3d_wl = IPic3DWorkload(
            particles_per_node=6_000_000, cells_per_node_side=4, timesteps=1
        )
        tpc_wl = TPCWorkload(
            total_points=2**23,
            depth=10,
            queries_total=32,
            functional=False,
            visit_flops=150.0,
            point_flops=30.0,
            task_subtree_height=6,
        )

    problems: dict[int, TPCProblem] = {}

    def tpc_problem(nodes: int) -> TPCProblem:
        if nodes not in problems:
            problems[nodes] = make_problem(tpc_wl, nodes)
        return problems[nodes]

    return [
        _AppSetup(
            "stencil",
            2e-4,
            lambda nodes, config: stencil_program(
                stencil_wl,
                nodes,
                cores_per_node=TOURNAMENT_CORES,
                config=config,
            ),
        ),
        _AppSetup(
            "ipic3d",
            20.0,
            lambda nodes, config: ipic3d_program(
                ipic3d_wl,
                nodes,
                cores_per_node=TOURNAMENT_CORES,
                config=config,
            ),
        ),
        _AppSetup(
            "tpc", 2e-3, lambda nodes, config: tpc_program(tpc_problem(nodes))
        ),
    ]


def _measure(
    app: str, topology: str, policy_name: str, run: ProgramRun
) -> RaceResult:
    runtime = run.runtime
    counters = runtime.metrics
    return RaceResult(
        app=app,
        topology=topology,
        policy=policy_name,
        elapsed=run.elapsed,
        messages=counters.counter("net.messages"),
        bytes_moved=(
            counters.counter("net.bytes") + runtime.data_bytes_moved()
        ),
        migrations=counters.counter("balancer.migrations"),
        preplaced=counters.counter("placement.preplaced_items"),
    )


def placement_panel(mode: str) -> PlacementPanel:
    """Run the full tournament: apps × topologies × policies."""
    panel = PlacementPanel(mode=mode)
    started = time.perf_counter()
    # shared across every race on purpose: reset() must isolate runs
    online: dict[str, SchedulingPolicy] = {
        "data-aware": DataAwarePolicy(),
        "round-robin": RoundRobinPolicy(),
        "random": RandomPolicy(seed=0),
    }
    for setup in _apps(mode):
        config = _config(setup.balancer_interval)
        for topo_name, (nodes, radix) in TOPOLOGIES.items():
            spec = _spec(nodes, radix)
            # planned at the builder's default config, raced at ``config``:
            # the pinned plan digests were solved that way (ROADMAP note)
            plan = plan_placement(setup.program(nodes, None), Cluster(spec))
            panel.plans[f"{setup.name}/{topo_name}"] = plan.summary()
            for policy_name in POLICIES:
                policy: SchedulingPolicy
                if policy_name == "planned":
                    policy = PlannedPolicy(plan)
                else:
                    policy = online[policy_name]
                panel.results.append(
                    _measure(
                        setup.name,
                        topo_name,
                        policy_name,
                        execute_program(
                            Cluster(spec),
                            setup.program(nodes, config),
                            config,
                            policy,
                        ),
                    )
                )
    panel.wall_seconds = time.perf_counter() - started
    return panel


def semantic_problems(panel: PlacementPanel) -> list[str]:
    """The planner's headline claims, independent of any baseline.

    ``planned`` must move strictly fewer bytes than *both* ablation
    baselines on every app × topology, and must pre-distribute at least
    one item everywhere (proof the plan actually engaged).  Ablation C:
    removing Algorithm 2's data-aware tiers turns the stencil into a
    data-shipping workload, so ``data-aware`` must beat both ablation
    baselines on simulated wall clock and on bytes, on every topology.
    """
    problems: list[str] = []
    for setup_app in ("stencil", "ipic3d", "tpc"):
        for topo_name in TOPOLOGIES:
            try:
                planned = panel.race(setup_app, topo_name, "planned")
            except KeyError:
                problems.append(f"{setup_app}/{topo_name}: planned race missing")
                continue
            if planned.preplaced < 1:
                problems.append(
                    f"{setup_app}/{topo_name}: plan pre-placed no items"
                )
            for rival_name in ("round-robin", "random"):
                rival = panel.race(setup_app, topo_name, rival_name)
                if not planned.bytes_moved < rival.bytes_moved:
                    problems.append(
                        f"{setup_app}/{topo_name}: planned moved "
                        f"{planned.bytes_moved:.0f} bytes, not fewer than "
                        f"{rival_name}'s {rival.bytes_moved:.0f}"
                    )
                if setup_app != "stencil":
                    continue
                aware = panel.race(setup_app, topo_name, "data-aware")
                for metric in ("elapsed", "bytes_moved"):
                    if not getattr(aware, metric) < getattr(rival, metric):
                        problems.append(
                            f"{setup_app}/{topo_name}: data-aware "
                            f"{metric} {getattr(aware, metric):.6g} does "
                            f"not beat {rival_name}'s "
                            f"{getattr(rival, metric):.6g}"
                        )
    return problems


# -- baseline ------------------------------------------------------------------


def panel_section(panel: PlacementPanel) -> dict:
    races = [
        {
            "app": result.app,
            "topology": result.topology,
            "policy": result.policy,
            **result.values(),
        }
        for result in panel.results
    ]
    return {
        "topologies": {
            name: {"nodes": nodes, "radix": radix}
            for name, (nodes, radix) in TOPOLOGIES.items()
        },
        "races": races,
        "plans": panel.plans,
        "wall_seconds": round(panel.wall_seconds, 2),
    }


def render_placement_leaderboard(panel: PlacementPanel) -> str:
    """Per app × topology leaderboard, best simulated wall clock first."""
    lines = [f"Placement tournament ({panel.mode})"]
    header = (
        f"  {'policy':<12} {'wall(sim)':>12} {'messages':>10} "
        f"{'bytes moved':>14} {'migrations':>10}"
    )
    for setup_app in ("stencil", "ipic3d", "tpc"):
        for topo_name, (nodes, radix) in TOPOLOGIES.items():
            rows = sorted(
                (
                    r
                    for r in panel.results
                    if r.app == setup_app and r.topology == topo_name
                ),
                key=lambda r: (r.elapsed, r.policy),
            )
            if not rows:
                continue
            lines.append(
                f"{setup_app} @ {topo_name} "
                f"({nodes} nodes, radix {radix})"
            )
            lines.append(header)
            for row in rows:
                lines.append(
                    f"  {row.policy:<12} {row.elapsed:>12.6f} "
                    f"{row.messages:>10.0f} {row.bytes_moved:>14.0f} "
                    f"{row.migrations:>10.0f}"
                )
            lines.append("")
    lines.append(f"(tournament ran in {panel.wall_seconds:.1f}s wall time)")
    return "\n".join(lines)


PANEL = Panel(
    name="placement",
    help="run the placement policy tournament: the offline planner "
    "vs. data-aware/round-robin/random across all three apps and "
    "three fat-tree topologies, reporting wall clock, messages, "
    "bytes moved, and balancer migrations",
    run=placement_panel,
    section=panel_section,
    render=render_placement_leaderboard,
    semantic=semantic_problems,
)
