"""Golden-trace determinism harness for the communication layer.

Two pins hold the coalescing + prefetch layer in place:

* **bitwise repeatability** — every application run on a fixed cluster,
  workload and config produces a byte-identical execution trace (per-task
  lifecycle timestamps, in completion order) and metric dump when run
  twice in the same process.  The simulation has no hidden source of
  nondeterminism, so any divergence is a scheduling or staging bug.
* **off/on equivalence** — enabling transfer coalescing and replica
  prefetch must not change *what* is computed or *which payload bytes*
  cross address spaces; only message counts and timing may move.  This is
  the optimisation's contract (`BENCH_comms_baseline.json` pins the same
  property at full workload scale).
"""

import numpy as np
import pytest

from repro.apps.ipic3d import IPic3DWorkload, ipic3d_allscale
from repro.apps.stencil import (
    StencilWorkload,
    sequential_reference,
    stencil_allscale,
)
from repro.apps.tpc import TPCWorkload, make_problem, tpc_allscale
from repro.regions.box import Box
from repro.runtime.config import RuntimeConfig
from repro.runtime.policies import RoundRobinPolicy
from repro.runtime.runtime import AllScaleRuntime
from repro.runtime.tasks import TaskSpec
from repro.runtime.tracing import ExecutionTracer
from repro.sim.cluster import Cluster, ClusterSpec

NODES = 2

#: power-of-two geometry everywhere so domain decompositions split without
#: remainder slivers whose first-touch owner could depend on task order
STENCIL_WL = StencilWorkload(n_per_node=16, timesteps=2, functional=True)
IPIC_WL = IPic3DWorkload(
    particles_per_node=64_000,
    cells_per_node_side=4,
    timesteps=2,
    flops_per_particle_update=100.0,
)
TPC_WL = TPCWorkload(
    total_points=4096,
    dims=3,
    radius=25.0,
    queries_per_node=8,
    depth=7,
    functional=True,
    visit_flops=10.0,
    point_flops=2.0,
    task_subtree_height=4,  # forces splits, so batching has material
)


def small_cluster():
    return Cluster(
        ClusterSpec(num_nodes=NODES, cores_per_node=2, flops_per_core=1e9)
    )


def comm_config(enabled: bool) -> RuntimeConfig:
    return RuntimeConfig(
        comm_coalescing=enabled, replica_prefetch=enabled
    )


def run_app(app: str, config: RuntimeConfig, policy=None):
    if app == "stencil":
        return stencil_allscale(small_cluster(), STENCIL_WL, config, policy)
    if app == "ipic3d":
        return ipic3d_allscale(small_cluster(), IPIC_WL, config)
    if app == "tpc":
        problem = make_problem(TPC_WL, NODES)
        return tpc_allscale(small_cluster(), TPC_WL, config, problem=problem)
    raise ValueError(app)


def canonical_trace(result) -> bytes:
    """The run as bytes: every traced task lifecycle (in completion
    order) plus the full metric dump, `repr`-exact floats included."""
    runtime = result.extras["runtime"]
    tracer = runtime.probe.observer(ExecutionTracer)
    lines = [
        f"{r.name} p{r.pid} {r.enqueued!r} {r.started!r} "
        f"{r.data_ready!r} {r.locks_held!r} {r.finished!r}"
        for r in tracer.records
    ]
    snapshot = runtime.metrics.snapshot()
    lines.extend(f"{key}={snapshot[key]!r}" for key in sorted(snapshot))
    lines.append(f"elapsed={result.elapsed!r}")
    lines.append(f"work={result.work!r}")
    return "\n".join(lines).encode()


@pytest.fixture
def traced(monkeypatch):
    """Attach an :class:`ExecutionTracer` to every runtime constructed
    while the fixture is active (the app drivers build their own)."""
    original = AllScaleRuntime.__init__

    def patched(self, *args, **kwargs):
        original(self, *args, **kwargs)
        self.probe.attach(ExecutionTracer())

    monkeypatch.setattr(AllScaleRuntime, "__init__", patched)


def read_final_grid(result):
    runtime = result.extras["runtime"]
    grid = result.extras["final_grid"]

    def body(ctx):
        return ctx.fragment(grid).gather(Box.of((0, 0), grid.shape)).copy()

    task = TaskSpec(
        name="readback", reads={grid: grid.full_region}, body=body, size_hint=1
    )
    return runtime.wait(runtime.submit(task))


class TestGoldenTraces:
    """Same config, run twice → byte-identical traces and metrics."""

    @pytest.mark.parametrize("app", ["stencil", "ipic3d", "tpc"])
    @pytest.mark.parametrize(
        "enabled", [False, True], ids=["comms-off", "comms-on"]
    )
    def test_trace_repeats_bit_identically(self, traced, app, enabled):
        first = canonical_trace(run_app(app, comm_config(enabled)))
        second = canonical_trace(run_app(app, comm_config(enabled)))
        assert first == second

    def test_trace_captures_tasks(self, traced):
        result = run_app("stencil", comm_config(True))
        runtime = result.extras["runtime"]
        assert runtime.probe.observer(ExecutionTracer).records


class TestOffOnEquivalence:
    """Coalescing + prefetch change messages, never results or payload."""

    def run_pair(self, app, policy=None):
        off = run_app(app, comm_config(False), policy)
        on = run_app(app, comm_config(True), policy)
        return off, on

    @staticmethod
    def messages(result) -> float:
        return result.extras["runtime"].metrics.counter("net.messages")

    @staticmethod
    def moved(result) -> int:
        return result.extras["runtime"].data_bytes_moved()

    def test_stencil_values_and_bytes_identical(self):
        off, on = self.run_pair("stencil")
        values_off = read_final_grid(off)
        values_on = read_final_grid(on)
        assert np.array_equal(values_off, values_on)
        assert np.allclose(
            values_on, sequential_reference(STENCIL_WL, NODES)
        )
        assert self.moved(off) == self.moved(on)
        # born at its homes, the default stencil fetches each halo from
        # one peer, so the flags have nothing to coalesce; round-robin
        # placement leaves them lookups and fetches to cut
        off, on = self.run_pair("stencil", RoundRobinPolicy())
        assert self.messages(on) < self.messages(off)

    def test_ipic3d_work_and_bytes_identical(self):
        off, on = self.run_pair("ipic3d")
        assert off.work == on.work
        assert self.moved(off) == self.moved(on)
        assert self.messages(on) < self.messages(off)

    def test_tpc_counts_and_bytes_identical(self):
        off, on = self.run_pair("tpc")
        assert off.extras["counts"] == on.extras["counts"]
        assert off.work == on.work
        assert self.moved(off) == self.moved(on)
        assert self.messages(on) < self.messages(off)

    def test_on_runs_violation_free(self):
        """The optimised paths hold every sentinel invariant."""
        from repro.runtime import sentinel as sentinel_mod

        sentinel_mod.enable_globally(
            sentinel_mod.SentinelConfig(strict=True)
        )
        try:
            for app in ("stencil", "ipic3d", "tpc"):
                run_app(app, comm_config(True))
        finally:
            created = sentinel_mod.drain_created()
            sentinel_mod.reset_global()
        assert created
        assert all(not s.violations for s in created)
