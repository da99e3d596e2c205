"""Regeneration of the paper's Fig. 7 (the three scaling panels).

Each ``fig7_*`` function sweeps node counts and returns a
:class:`~repro.bench.harness.ScalingSeries` with AllScale and MPI
throughput per node count.  ``quick=True`` shrinks the sweep (and, for
iPiC3D/TPC, the workload intensity) to keep CI runs fast; the full sweep
reproduces the paper's 1–64 node x-axis.

Calibration (single-node anchors, see DESIGN.md §5):

* stencil — effective 2.4 GFLOP/s/core ⇒ ≈45 GFLOPS/node, matching the
  paper's leftmost stencil point;
* iPiC3D — ``flops_per_particle_update = 7·10⁵`` ⇒ ≈6.5·10⁴ particle
  updates/s/node;
* TPC — ``visit_flops=150 / point_flops=30`` ⇒ ≈600 q/s single node.
"""

from __future__ import annotations


from repro.apps.ipic3d import IPic3DWorkload, ipic3d_allscale, ipic3d_mpi
from repro.apps.stencil import StencilWorkload, stencil_allscale, stencil_mpi
from repro.apps.tpc import TPCWorkload, make_problem, tpc_allscale, tpc_mpi
from repro.bench.harness import FIG7_NODE_COUNTS, ScalingSeries, sweep
from repro.runtime.config import RuntimeConfig
from repro.sim.cluster import Cluster, meggie_like_spec


def quick_node_counts(quick: bool, smoke: bool = False) -> tuple[int, ...]:
    if smoke:
        return (1, 4)
    return (1, 4, 16) if quick else FIG7_NODE_COUNTS


def _runtime_config() -> RuntimeConfig:
    # modest oversubscription keeps task counts (and simulation cost)
    # reasonable without changing the scaling shape
    return RuntimeConfig(functional=False, oversubscription=2)


def fig7_stencil(quick: bool = False, smoke: bool = False) -> ScalingSeries:
    """Fig. 7, left panel: stencil throughput [GFLOPS]."""
    reduced = quick or smoke
    workload = StencilWorkload(
        n_per_node=20_000 if not reduced else 4_000,
        timesteps=4 if not reduced else 2,
        functional=False,
    )
    return sweep(
        "stencil",
        "GFLOPS",
        quick_node_counts(quick, smoke),
        lambda nodes: stencil_allscale(
            Cluster(meggie_like_spec(nodes)), workload, _runtime_config()
        ),
        lambda nodes: stencil_mpi(Cluster(meggie_like_spec(nodes)), workload),
    )


def fig7_ipic3d(quick: bool = False, smoke: bool = False) -> ScalingSeries:
    """Fig. 7, middle panel: iPiC3D throughput [particles/s]."""
    reduced = quick or smoke
    workload = IPic3DWorkload(
        particles_per_node=48_000_000,
        cells_per_node_side=16 if not reduced else 8,
        timesteps=3 if not reduced else 2,
    )
    return sweep(
        "ipic3d",
        "particles/s",
        quick_node_counts(quick, smoke),
        lambda nodes: ipic3d_allscale(
            Cluster(meggie_like_spec(nodes)), workload, _runtime_config()
        ),
        lambda nodes: ipic3d_mpi(Cluster(meggie_like_spec(nodes)), workload),
    )


def fig7_tpc(quick: bool = False, smoke: bool = False) -> ScalingSeries:
    """Fig. 7, right panel: TPC throughput [queries/s].

    Offered load: a fixed window of queries per measurement (see the
    ``queries_total`` note in :class:`~repro.apps.tpc.TPCWorkload`); both
    systems process the identical window.
    """
    reduced = quick or smoke
    workload = TPCWorkload(
        total_points=2**29,
        depth=16,
        queries_total=384 if not reduced else 128,
        functional=False,
        visit_flops=150.0,
        point_flops=30.0,
        task_subtree_height=9,
    )
    series = ScalingSeries(app="tpc", metric="queries/s")
    for nodes in quick_node_counts(quick, smoke):
        problem = make_problem(workload, nodes)
        allscale = tpc_allscale(
            Cluster(meggie_like_spec(nodes)),
            workload,
            _runtime_config(),
            problem=problem,
        )
        mpi = tpc_mpi(Cluster(meggie_like_spec(nodes)), workload, problem=problem)
        series.add(allscale, mpi)
    return series


#: the three Fig. 7 panels by CLI name, in the paper's left-to-right order
FIG7_BUILDERS = {
    "stencil": fig7_stencil,
    "ipic3d": fig7_ipic3d,
    "tpc": fig7_tpc,
}
