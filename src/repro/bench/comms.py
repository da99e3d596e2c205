"""The ``--comms`` panel: what the communication layer buys per app.

Each application's AllScale port runs twice on the same cluster and
workload — once with the paper-prototype per-piece messaging (the
default) and once with transfer coalescing plus replica prefetch enabled
— and the panel reports message counts, bytes moved, Algorithm-1 index
lookups with their mean hops, and simulated wall-clock for both, plus
the ``comms.*`` counters of the optimised run.

Stencil and iPiC3D run with their data born where it is first touched
(:class:`FirstTouchPolicy`): the flags group the index lookups and
fetches that first touches make, and under the default policy, whose
items are born at their homes, those apps make almost none (ROADMAP
item 6a has both regimes' counts).  TPC runs under the default policy.

The two runs must agree on *what* was computed and moved: identical
work, identical data payload bytes.  Only message counts and timing may
differ — that is the optimisation's contract (this panel's semantic
gate), and ``tests/test_determinism.py`` pins it per app while
``BENCH_comms_baseline.json`` pins the panel's measured values through
:mod:`repro.bench.panel`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.apps.common import AppResult
from repro.apps.ipic3d import IPic3DWorkload, ipic3d_allscale
from repro.apps.stencil import StencilWorkload, stencil_allscale
from repro.apps.tpc import TPCWorkload, make_problem, tpc_allscale
from repro.bench.panel import Panel, render_table
from repro.runtime.config import RuntimeConfig
from repro.runtime.policies import DataAwarePolicy
from repro.sim.cluster import Cluster, meggie_like_spec

#: fixed cluster size of the comms comparison (message effects are
#: already fully visible at a handful of nodes; the panel is about
#: counts and deltas, not scaling curves)
COMMS_NODE_COUNT = 4

#: metric keys copied verbatim from the optimised run into each row
_ON_COUNTERS = (
    "net.bulk_messages",
    "net.bulk_parts",
    "comms.coalesced_fetches",
    "comms.coalesced_parts",
    "comms.batched_dispatches",
    "comms.batched_tasks",
    "comms.prefetches",
    "comms.prefetched_bytes",
    "comms.replica_hits",
    "comms.replica_misses",
    "comms.plans",
    "comms.planned_bytes",
    "comms.moved_bytes",
    "comms.refetched_bytes",
)


class FirstTouchPolicy(DataAwarePolicy):
    """The default policy, with items born where they are first touched."""

    births_at_home = False


@dataclass
class CommsPoint:
    """One app's off-versus-on communication comparison."""

    app: str
    nodes: int
    messages_off: float
    messages_on: float
    net_bytes_off: float
    net_bytes_on: float
    #: payload bytes that crossed address spaces (migrations + replications);
    #: the optimisation must not change these
    data_bytes_off: float
    data_bytes_on: float
    work_off: float
    work_on: float
    elapsed_off: float
    elapsed_on: float
    #: Algorithm-1 index lookups, and the mean control messages each sent
    lookups_off: float = 0.0
    lookups_on: float = 0.0
    hops_per_lookup_off: float = 0.0
    hops_per_lookup_on: float = 0.0
    counters: dict = field(default_factory=dict)

    @property
    def message_reduction(self) -> float:
        """Fraction of network messages the comm layer removed."""
        if not self.messages_off:
            return 0.0
        return 1.0 - self.messages_on / self.messages_off

    @property
    def elapsed_delta(self) -> float:
        """Relative simulated wall-clock change (negative = faster)."""
        if not self.elapsed_off:
            return 0.0
        return self.elapsed_on / self.elapsed_off - 1.0

    @property
    def outputs_identical(self) -> bool:
        """Same work completed, same payload bytes moved."""
        return (
            self.work_off == self.work_on
            and self.data_bytes_off == self.data_bytes_on
        )

    def to_row(self) -> dict:
        return {
            "app": self.app,
            "nodes": self.nodes,
            "messages_off": self.messages_off,
            "messages_on": self.messages_on,
            "message_reduction": round(self.message_reduction, 4),
            "net_bytes_off": self.net_bytes_off,
            "net_bytes_on": self.net_bytes_on,
            "data_bytes_off": self.data_bytes_off,
            "data_bytes_on": self.data_bytes_on,
            "work_off": self.work_off,
            "work_on": self.work_on,
            "elapsed_off": self.elapsed_off,
            "elapsed_on": self.elapsed_on,
            "elapsed_delta": round(self.elapsed_delta, 4),
            "lookups_off": self.lookups_off,
            "lookups_on": self.lookups_on,
            "hops_per_lookup_off": round(self.hops_per_lookup_off, 4),
            "hops_per_lookup_on": round(self.hops_per_lookup_on, 4),
            "outputs_identical": self.outputs_identical,
            "counters": dict(self.counters),
        }


def _config(enabled: bool) -> RuntimeConfig:
    # mirror the Fig. 7 harness knobs so the panel measures the same runs
    return RuntimeConfig(
        functional=False,
        oversubscription=2,
        comm_coalescing=enabled,
        replica_prefetch=enabled,
    )


def _hops_per_lookup(result: AppResult) -> float:
    index = result.extras["runtime"].index
    return index.lookup_hops / index.lookups if index.lookups else 0.0


def _measure(app: str, run, nodes: int) -> CommsPoint:
    """Run ``run(config)`` with the comm layer off then on; diff them."""
    off: AppResult = run(_config(False))
    on: AppResult = run(_config(True))
    m_off = off.extras["runtime"].metrics.snapshot()
    m_on = on.extras["runtime"].metrics.snapshot()
    counters = {key: m_on.get(key, 0.0) for key in _ON_COUNTERS}
    return CommsPoint(
        app=app,
        nodes=nodes,
        messages_off=m_off.get("net.messages", 0.0),
        messages_on=m_on.get("net.messages", 0.0),
        net_bytes_off=m_off.get("net.bytes", 0.0),
        net_bytes_on=m_on.get("net.bytes", 0.0),
        data_bytes_off=float(off.extras["runtime"].data_bytes_moved()),
        data_bytes_on=float(on.extras["runtime"].data_bytes_moved()),
        work_off=off.work,
        work_on=on.work,
        elapsed_off=off.elapsed,
        elapsed_on=on.elapsed,
        lookups_off=float(off.extras["runtime"].index.lookups),
        lookups_on=float(on.extras["runtime"].index.lookups),
        hops_per_lookup_off=_hops_per_lookup(off),
        hops_per_lookup_on=_hops_per_lookup(on),
        counters=counters,
    )


@dataclass
class CommsPanel:
    """One off-versus-on comparison of every app, with host timing."""

    points: list[CommsPoint]
    wall_seconds: float = 0.0


def comms_panel(mode: str) -> CommsPanel:
    """Off-versus-on comparison for all three applications."""
    started = time.perf_counter()
    reduced = mode != "full"  # quick and smoke share one reduced size
    nodes = COMMS_NODE_COUNT
    cluster = lambda: Cluster(meggie_like_spec(nodes))  # noqa: E731

    stencil_wl = StencilWorkload(
        n_per_node=4_000 if not reduced else 1_000,
        timesteps=2,
        functional=False,
    )
    ipic3d_wl = IPic3DWorkload(
        particles_per_node=48_000_000 if not reduced else 12_000_000,
        cells_per_node_side=8 if not reduced else 4,
        timesteps=2,
    )
    tpc_wl = TPCWorkload(
        total_points=2**29 if not reduced else 2**25,
        depth=16 if not reduced else 12,
        queries_total=128 if not reduced else 64,
        functional=False,
        visit_flops=150.0,
        point_flops=30.0,
        task_subtree_height=9 if not reduced else 7,
    )
    tpc_problem = make_problem(tpc_wl, nodes)

    points = [
        _measure(
            "stencil",
            lambda cfg: stencil_allscale(
                cluster(), stencil_wl, cfg, policy=FirstTouchPolicy()
            ),
            nodes,
        ),
        _measure(
            "ipic3d",
            lambda cfg: ipic3d_allscale(
                cluster(), ipic3d_wl, cfg, policy=FirstTouchPolicy()
            ),
            nodes,
        ),
        _measure(
            "tpc",
            lambda cfg: tpc_allscale(
                cluster(), tpc_wl, cfg, problem=tpc_problem
            ),
            nodes,
        ),
    ]
    return CommsPanel(points, time.perf_counter() - started)


def render_comms(panel: CommsPanel) -> str:
    """The panel as a fixed-width table."""
    rows = []
    for p in panel.points:
        rows.append(
            (
                p.app,
                str(p.nodes),
                f"{p.messages_off:.0f}",
                f"{p.messages_on:.0f}",
                f"{p.message_reduction * 100.0:+.1f}%",
                f"{p.data_bytes_off:.0f}",
                f"{p.elapsed_delta * 100.0:+.1f}%",
                f"{p.lookups_off:.0f}",
                f"{p.lookups_on:.0f}",
                f"{p.hops_per_lookup_off:.2f}",
                f"{p.hops_per_lookup_on:.2f}",
                "yes" if p.outputs_identical else "NO",
            )
        )
    title = (
        "Communication layer — per-app deltas "
        "(coalescing + prefetch vs. prototype messaging)"
    )
    body = render_table(
        [
            "app",
            "nodes",
            "msgs off",
            "msgs on",
            "msg delta",
            "data bytes",
            "time delta",
            "lookups off",
            "lookups on",
            "hops off",
            "hops on",
            "outputs ==",
        ],
        rows,
    )
    return (
        f"{title}\n{body}\n"
        f"(regenerated in {panel.wall_seconds:.1f}s wall time)"
    )


def panel_section(panel: CommsPanel) -> dict:
    return {
        "nodes": COMMS_NODE_COUNT,
        "apps": {p.app: p.to_row() for p in panel.points},
        "wall_seconds": round(panel.wall_seconds, 2),
    }


def semantic_problems(panel: CommsPanel) -> list[str]:
    return [
        f"{p.app}: optimised run changed outputs or moved bytes"
        for p in panel.points
        if not p.outputs_identical
    ]


PANEL = Panel(
    name="comms",
    help="run the communication-layer panel: each app with transfer "
    "coalescing + replica prefetch off vs. on, reporting message "
    "counts, bytes, and wall-clock deltas (non-zero exit if the "
    "optimised run changes computed outputs or moved bytes)",
    run=comms_panel,
    section=panel_section,
    render=render_comms,
    semantic=semantic_problems,
)
