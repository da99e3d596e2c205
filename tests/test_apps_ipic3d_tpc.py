"""Application tests for iPiC3D and TPC."""

from dataclasses import replace

import numpy as np
import pytest

from repro.apps.ipic3d import IPic3DWorkload, ipic3d_allscale, ipic3d_mpi
from repro.apps.tpc import (
    TPCWorkload,
    make_problem,
    tpc_allscale,
    tpc_mpi,
)
from repro.runtime.config import RuntimeConfig
from repro.sim.cluster import Cluster, ClusterSpec, meggie_like_spec


def small_cluster(nodes, cores=4):
    return Cluster(
        ClusterSpec(num_nodes=nodes, cores_per_node=cores, flops_per_core=1e9)
    )


SMALL_IPIC = IPic3DWorkload(
    particles_per_node=200_000,
    cells_per_node_side=8,
    timesteps=2,
    flops_per_particle_update=100.0,
)


class TestIPic3D:
    def test_workload_accounting(self):
        wl = IPic3DWorkload(particles_per_node=1000, cells_per_node_side=4, timesteps=3)
        assert wl.field_shape(2) == (8, 4, 4)
        assert wl.particles_per_cell(2) == pytest.approx(1000 / 64)
        assert wl.total_updates(2) == 2000 * 3

    @pytest.mark.parametrize("nodes", [1, 2, 4])
    def test_both_ports_run(self, nodes):
        result_a = ipic3d_allscale(small_cluster(nodes), SMALL_IPIC)
        result_m = ipic3d_mpi(small_cluster(nodes), SMALL_IPIC)
        assert result_a.throughput > 0
        assert result_m.throughput > 0
        assert result_a.work == result_m.work

    def test_comparable_performance(self):
        """§4.2: AllScale and MPI show comparable performance for iPiC3D."""
        result_a = ipic3d_allscale(small_cluster(2), SMALL_IPIC)
        result_m = ipic3d_mpi(small_cluster(2), SMALL_IPIC)
        assert result_a.throughput > 0.4 * result_m.throughput

    def test_oversubscription_two_matches_mpi(self):
        """Remote dispatch's parcel work does not queue behind booked leaf
        compute: with two leaves per core, each hop of the task-tree
        distribution would otherwise wait one whole leaf (5,250 s here)."""
        spec = replace(meggie_like_spec(4), switch_radix=4, cores_per_node=4)
        workload = IPic3DWorkload(
            particles_per_node=24_000_000, cells_per_node_side=4, timesteps=2
        )
        config = RuntimeConfig(functional=False, oversubscription=2)
        result_a = ipic3d_allscale(Cluster(spec), workload, config)
        result_m = ipic3d_mpi(Cluster(spec), workload)
        assert result_m.elapsed == pytest.approx(3500.0, rel=1e-5)
        assert result_a.elapsed == pytest.approx(result_m.elapsed, rel=1e-5)

    def test_three_grids_distributed(self):
        result = ipic3d_allscale(small_cluster(2), SMALL_IPIC)
        runtime = result.extras["runtime"]
        runtime.check_ownership_invariants()
        names = {item.name for item in runtime.items}
        assert {"ipic3d.E", "ipic3d.B", "ipic3d.P", "ipic3d.X"} <= names
        for item in runtime.items:
            owners = sum(
                1
                for pid in range(2)
                if not runtime.process(pid)
                .data_manager.owned_region(item)
                .is_empty()
            )
            assert owners == 2

    def test_particle_grid_dominates_bytes(self):
        result = ipic3d_allscale(small_cluster(1), SMALL_IPIC)
        runtime = result.extras["runtime"]
        by_name = {item.name: item for item in runtime.items}
        assert (
            by_name["ipic3d.P"].bytes_per_element
            > by_name["ipic3d.E"].bytes_per_element
        )
        assert (
            by_name["ipic3d.X"].bytes_per_element
            < by_name["ipic3d.P"].bytes_per_element
        )


SMALL_TPC = TPCWorkload(
    total_points=4096,
    dims=3,
    radius=25.0,
    queries_per_node=6,
    depth=7,
    functional=True,
    visit_flops=10.0,
    point_flops=2.0,
)


class TestTPC:
    def test_problem_construction(self):
        problem = make_problem(SMALL_TPC, 4)
        assert problem.structure.total_points == 4096
        assert len(problem.queries) == 24
        assert len(problem.plans) == 24
        # every task root has an owner
        assert set(problem.owner_of_root.values()) <= set(range(4))
        # placement partitions the tree
        total = problem.item.empty_region()
        for region in problem.placement:
            assert total.intersect(region).is_empty()
            total = total.union(region)
        assert total.same_elements(problem.item.full_region)

    def test_plans_cover_exact_counts(self):
        """Top count + per-root counts must equal the true range count."""
        problem = make_problem(SMALL_TPC, 4)
        for qi, plan in enumerate(problem.plans):
            total = plan.top_count + sum(
                problem.band_work[(qi, root)][1]
                for root in plan.recurse_roots
            )
            exact = problem.structure.brute_force_count(
                problem.queries[qi], SMALL_TPC.radius
            )
            assert total == pytest.approx(exact)

    @pytest.mark.parametrize("nodes", [1, 2, 4])
    def test_allscale_counts_exact(self, nodes):
        problem = make_problem(SMALL_TPC, nodes)
        result = tpc_allscale(small_cluster(nodes), SMALL_TPC, problem=problem)
        counts = sorted(result.extras["counts"])
        exact = sorted(
            problem.structure.brute_force_count(q, SMALL_TPC.radius)
            for q in problem.queries
        )
        assert np.allclose(counts, exact)
        result.extras["runtime"].check_ownership_invariants()

    @pytest.mark.parametrize("nodes", [1, 2, 4])
    def test_mpi_total_matches(self, nodes):
        problem = make_problem(SMALL_TPC, nodes)
        result = tpc_mpi(small_cluster(nodes), SMALL_TPC, problem=problem)
        total = sum(result.extras["totals"].values())
        exact = sum(
            problem.structure.brute_force_count(q, SMALL_TPC.radius)
            for q in problem.queries
        )
        assert total == pytest.approx(exact)

    def test_batching_preserves_counts(self):
        """Query aggregation (the §4.2 mitigation) must not change results."""
        from dataclasses import replace

        batched = replace(SMALL_TPC, task_batch=4)
        problem = make_problem(batched, 2)
        result = tpc_allscale(small_cluster(2), batched, problem=problem)
        total = sum(result.extras["counts"])
        exact = sum(
            problem.structure.brute_force_count(q, batched.radius)
            for q in problem.queries
        )
        assert total == pytest.approx(exact)
        # fewer root tasks than queries
        assert len(result.extras["batches"]) == len(problem.queries) // 4

    def test_band_tasks_run_at_owners(self):
        problem = make_problem(SMALL_TPC, 4)
        result = tpc_allscale(small_cluster(4), SMALL_TPC, problem=problem)
        runtime = result.extras["runtime"]
        # no data was moved: tasks went to the data
        assert runtime.metrics.counter("dm.migrations") == 0
        assert runtime.metrics.counter("dm.replicas_fetched") == 0
        assert runtime.metrics.counter("sched.remote_dispatch") > 0

    def test_queries_total_override(self):
        from dataclasses import replace

        wl = replace(SMALL_TPC, queries_total=10)
        assert wl.total_queries(64) == 10
        assert SMALL_TPC.total_queries(2) == 12
