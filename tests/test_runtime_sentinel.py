"""Tests for the runtime invariant sentinel (§2.5 properties, online).

Three layers:

* clean runs — workloads with overlapping requirements, forced
  migrations, checkpoint/restore and node failure, all under a *strict*
  sentinel: any false positive raises;
* a property-based sweep driving randomized task DAGs through the same
  machinery;
* fault injection — deliberately corrupted lock tables, index leaves,
  and checkpoint payloads, asserting the sentinel *catches* each with the
  right check name (these carry the ``sentinel_injection`` marker so the
  ``REPRO_SENTINEL=1`` fixture does not auto-attach a strict sentinel on
  top).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.items.grid import Grid
from repro.regions.bounds import NO_BOUNDS, bounds_disjoint, corner_bounds
from repro.runtime.config import RuntimeConfig
from repro.runtime.locks import _Hold
from repro.runtime.resilience import ResilienceManager
from repro.runtime.runtime import AllScaleRuntime
from repro.runtime.sentinel import (
    RuntimeSentinel,
    SentinelConfig,
    SentinelViolationError,
    Violation,
)
from repro.runtime.tasks import TaskSpec
from repro.sim.cluster import Cluster, ClusterSpec

GRID_SIDE = 12


def make_runtime(nodes=4, **config):
    cluster = Cluster(
        ClusterSpec(num_nodes=nodes, cores_per_node=2, flops_per_core=1e9)
    )
    return AllScaleRuntime(cluster, RuntimeConfig(**config))


def watched_runtime(nodes=4, strict=True, **config):
    runtime = make_runtime(nodes, **config)
    auto = runtime.probe.observer(RuntimeSentinel)
    if auto is not None:  # REPRO_SENTINEL fixture beat us to it
        auto.detach()
    sentinel = RuntimeSentinel(
        runtime, SentinelConfig(strict=strict)
    ).attach()
    return runtime, sentinel


def box_region(grid, x0, y0, x1, y1):
    return grid.box((x0, y0), (x1, y1))


def rw_task(grid, name, reads=None, writes=None):
    return TaskSpec(
        name=name,
        reads={grid: reads} if reads is not None else {},
        writes={grid: writes} if writes is not None else {},
        size_hint=1,
    )


class TestSentinelCleanRuns:
    def test_overlapping_workload_has_zero_violations(self):
        runtime, sentinel = watched_runtime(nodes=4)
        grid = Grid((GRID_SIDE, GRID_SIDE), name="g")
        runtime.register_item(grid)
        whole = grid.full_region
        left = box_region(grid, 0, 0, 6, GRID_SIDE)
        right = box_region(grid, 6, 0, GRID_SIDE, GRID_SIDE)
        mid = box_region(grid, 3, 0, 9, GRID_SIDE)
        # overlapping writes and reads from rotating origins: exercises
        # migration, replication, invalidation, and lock queueing
        pending = []
        for step, region in enumerate((left, right, mid, whole, mid)):
            pending.append(
                runtime.submit(
                    rw_task(grid, f"w{step}", writes=region),
                    origin=step % runtime.num_processes,
                )
            )
            pending.append(
                runtime.submit(
                    rw_task(grid, f"r{step}", reads=whole),
                    origin=(step + 1) % runtime.num_processes,
                )
            )
        for treeture in pending:
            runtime.wait(treeture)
        sentinel.verify_all()
        sentinel.check_terminal()
        assert sentinel.violations == []
        assert sentinel.checks > 0
        assert runtime.metrics.counter("sentinel.scans") >= 1
        assert runtime.metrics.counter("sentinel.violations") == 0

    def test_checkpoint_failure_recovery_clean(self):
        runtime, sentinel = watched_runtime(nodes=4)
        grid = Grid((GRID_SIDE, GRID_SIDE), name="g")
        runtime.register_item(grid)
        for pid in range(4):
            runtime.wait(
                runtime.submit(
                    rw_task(
                        grid,
                        f"init{pid}",
                        writes=grid.decompose(4)[pid],
                    ),
                    origin=pid,
                )
            )
        res = ResilienceManager(runtime)
        snapshot = runtime.wait_process(res.checkpoint())
        runtime.fail_process(2)
        runtime.wait_process(res.recover_lost_data(snapshot))
        sentinel.verify_all()
        assert sentinel.violations == []

    def test_orphaned_replica_promotion_stays_coherent(self):
        """Regression (found by the sentinel's randomized DAG sweep):
        first-touch allocation claiming a region a process already holds
        as a *replica* — possible once a node failure orphans the owner —
        used to leave the stale entry in the replica registry."""
        runtime, sentinel = watched_runtime(nodes=2)
        grid = Grid((GRID_SIDE, GRID_SIDE), name="g")
        runtime.register_item(grid, placement=[grid.empty_region()] * 2)
        home0 = grid.decompose(2)[0]
        # process 1 owns process 0's home block; 0 replicates a corner
        runtime.process(1).data_manager.allocate(grid, home0)
        replicated = box_region(grid, 0, 0, 2, 2)
        payload = runtime.process(1).data_manager.fragment(grid).extract(
            replicated
        )
        # the cut registers the copy, its landing splices it
        runtime.register_replica(grid, 0, replicated)
        runtime.process(0).data_manager.insert_replica(grid, payload)
        sentinel.verify_all()
        assert sentinel.violations == []
        assert 0 in runtime.replica_holders(grid)
        runtime.fail_process(1)
        # first touch grabs the whole orphaned block — including the
        # corner process 0 still holds as a replica
        runtime.process(0).data_manager.allocate(grid, home0)
        assert runtime.process(0).data_manager.owned_region(grid).covers(
            replicated
        )
        sentinel.verify_all()
        assert sentinel.violations == []
        assert 0 not in runtime.replica_holders(grid)

    @pytest.mark.sentinel_injection
    def test_strict_mode_raises_on_violation(self):
        runtime, sentinel = watched_runtime(nodes=2, strict=True)
        grid = Grid((GRID_SIDE, GRID_SIDE), name="g")
        runtime.register_item(grid)
        runtime.wait(
            runtime.submit(rw_task(grid, "w", writes=grid.full_region))
        )
        table = runtime.process(0).locks
        region = box_region(grid, 0, 0, 4, 4)
        table._holds.append(_Hold("a", grid, region, write=True))
        table._holds.append(_Hold("b", grid, region, write=True))
        with pytest.raises(SentinelViolationError):
            sentinel.verify_all()

    def test_violation_report_structure(self):
        violation = Violation(
            check="exclusive_writes",
            message="overlap",
            sim_time=1.5,
            item="g",
            holders=((0, "a", "W"), (1, "b", "R")),
            task="t",
        )
        text = str(violation)
        assert "exclusive_writes" in text
        assert "t=1.5s" in text
        assert "'g'" in text


# -- property-based: randomized DAGs stay violation-free -----------------------------


boxes = st.tuples(
    st.integers(0, GRID_SIDE - 1),
    st.integers(0, GRID_SIDE - 1),
    st.integers(1, 6),
    st.integers(1, 6),
).map(
    lambda t: (
        (t[0], t[1]),
        (min(GRID_SIDE, t[0] + t[2]), min(GRID_SIDE, t[1] + t[3])),
    )
)

dag_ops = st.lists(
    st.tuples(
        st.sampled_from(["read", "write", "readwrite"]),
        boxes,
        st.integers(0, 7),  # origin selector (forces migrations)
        st.lists(st.integers(0, 30), max_size=2),  # dependency edges
    ),
    min_size=1,
    max_size=10,
)


@given(
    ops=dag_ops,
    nodes=st.integers(1, 4),
    mid_checkpoint=st.booleans(),
)
@settings(max_examples=25, deadline=None)
def test_random_dags_have_zero_violations(ops, nodes, mid_checkpoint):
    """Correct runs — whatever the DAG shape — never trip the sentinel.

    Tasks with overlapping read/write regions are submitted from rotating
    origins (forcing migrations and replica invalidation), chained into a
    DAG via ``after`` edges, optionally interrupted by a checkpoint, a
    node failure, and a recovery in the middle.  The sentinel is strict:
    a single false positive fails the test at the violating event.
    """
    runtime, sentinel = watched_runtime(nodes=nodes)
    grid = Grid((GRID_SIDE, GRID_SIDE), name="g")
    runtime.register_item(grid)
    submitted = []
    half = len(ops) // 2
    for index, (kind, (lo, hi), origin, deps) in enumerate(ops):
        region = grid.box(lo, hi)
        if region.is_empty():
            continue
        spec = TaskSpec(
            name=f"{kind[0]}{index}",
            reads={grid: region} if kind in ("read", "readwrite") else {},
            writes={grid: region} if kind in ("write", "readwrite") else {},
            size_hint=region.size(),
        )
        after = [submitted[d % len(submitted)] for d in deps if submitted]
        submitted.append(
            runtime.submit(spec, origin=origin % nodes, after=after)
        )
        if index == half and mid_checkpoint:
            # mid-run barrier: drain, checkpoint, kill a node, recover
            for treeture in submitted:
                runtime.wait(treeture)
            res = ResilienceManager(runtime)
            snapshot = runtime.wait_process(res.checkpoint())
            if nodes > 1:
                runtime.fail_process(nodes - 1)
                runtime.wait_process(res.recover_lost_data(snapshot))
    for treeture in submitted:
        runtime.wait(treeture)
    sentinel.verify_all()
    sentinel.check_terminal()
    assert sentinel.violations == []


# -- fault injection: corrupted state must be caught ----------------------------------


def _filled_runtime(nodes=4):
    runtime, sentinel = watched_runtime(nodes=nodes, strict=False)
    grid = Grid((GRID_SIDE, GRID_SIDE), name="g")
    runtime.register_item(grid)
    for pid in range(nodes):
        runtime.wait(
            runtime.submit(
                rw_task(
                    grid, f"init{pid}", writes=grid.decompose(nodes)[pid]
                ),
                origin=pid,
            )
        )
    assert sentinel.violations == []
    return runtime, sentinel, grid


def _checks(sentinel):
    return {violation.check for violation in sentinel.violations}


@pytest.mark.sentinel_injection
class TestSentinelFaultInjection:
    def test_double_write_lock_grant_is_caught(self):
        """Fault 1: a lock table grants two overlapping write holds."""
        runtime, sentinel, grid = _filled_runtime()
        region = box_region(grid, 0, 0, 5, 5)
        table = runtime.process(0).locks
        table._holds.append(_Hold("task-a", grid, region, write=True))
        table._holds.append(
            _Hold("task-b", grid, box_region(grid, 2, 2, 7, 7), write=True)
        )
        sentinel.verify_all()
        assert "lock_table_race" in _checks(sentinel)
        offending = [
            v for v in sentinel.violations if v.check == "lock_table_race"
        ]
        assert offending[0].item == "g"
        assert len(offending[0].holders) == 2

    def test_cross_process_write_overlap_is_caught(self):
        """Fault 1b: write holds on the same region in two processes."""
        runtime, sentinel, grid = _filled_runtime()
        region = box_region(grid, 0, 0, 5, 5)
        runtime.process(0).locks._holds.append(
            _Hold("task-a", grid, region, write=True)
        )
        runtime.process(1).locks._holds.append(
            _Hold("task-b", grid, region, write=True)
        )
        sentinel.verify_all()
        assert "exclusive_writes" in _checks(sentinel)

    @staticmethod
    def _edit_leaf(runtime, grid, pid, region):
        """Overwrite ``pid``'s index leaf behind its ancestors' back — the
        one ownership corruption left once ownership is stored only there."""
        runtime.index._cover[(grid, 1, pid)] = region

    def test_ownership_index_desync_is_caught(self):
        """Fault 2: a leaf shrinks behind its ancestors' back."""
        runtime, sentinel, grid = _filled_runtime()
        owned = runtime.process(0).data_manager.owned_region(grid)
        bite = box_region(grid, 0, 0, 2, 2)
        assert owned.covers(bite)
        self._edit_leaf(runtime, grid, 0, owned.difference(bite))
        sentinel.verify_all()
        assert "index_coherence" in _checks(sentinel)

    @given(seed=st.integers(0, 200))
    @settings(max_examples=10, deadline=None)
    def test_random_ownership_corruption_is_caught(self, seed):
        import random

        runtime, sentinel, grid = _filled_runtime()
        rng = random.Random(seed)
        pid = rng.randrange(runtime.num_processes)
        owned = runtime.process(pid).data_manager.owned_region(grid)
        x = rng.randrange(GRID_SIDE - 1)
        y = rng.randrange(GRID_SIDE - 1)
        bite = box_region(grid, x, y, x + 1, y + 1)
        if owned.covers(bite):
            edited = owned.difference(bite)  # shrink
        else:
            edited = owned.union(bite)  # steal
        self._edit_leaf(runtime, grid, pid, edited)
        sentinel.verify_all()
        assert "index_coherence" in _checks(sentinel)

    def test_checkpoint_payload_loss_is_caught(self):
        """Fault 3: a checkpoint payload vanishes before recovery."""
        runtime, sentinel, grid = _filled_runtime()
        res = ResilienceManager(runtime)
        snapshot = runtime.wait_process(res.checkpoint())
        assert sentinel.violations == []
        # lose the victim's checkpoint entry, then lose the victim
        victim = 2
        snapshot.payloads["g"] = [
            (pid, payload)
            for pid, payload in snapshot.payloads["g"]
            if pid != victim
        ]
        runtime.fail_process(victim)
        runtime.wait_process(res.recover_lost_data(snapshot))
        assert "data_preservation" in _checks(sentinel)

    def test_truncated_payload_bytes_are_caught(self):
        """Fault 3b: a payload's byte count disagrees with its region."""
        runtime, sentinel, grid = _filled_runtime(nodes=2)
        payload = runtime.process(0).data_manager.fragment(grid).extract(
            runtime.process(0).data_manager.owned_region(grid)
        )
        payload.nbytes //= 2  # half the bytes went missing in transit
        runtime.process(1).data_manager.import_owned(grid, payload)
        assert "payload_bytes" in _checks(sentinel)

    def test_double_execution_is_caught(self):
        """A task dispatched to leaf execution twice trips the sentinel."""
        runtime, sentinel, grid = _filled_runtime(nodes=2)
        task = rw_task(grid, "dup", reads=box_region(grid, 0, 0, 3, 3))
        runtime.wait(runtime.submit(task, origin=0))
        assert sentinel.violations == []
        # second dispatch of the same task
        for notify in runtime.probe.task_start:
            notify(task, None, 1, runtime.now)
        assert "single_execution" in _checks(sentinel)

    def test_wedged_runtime_fails_terminal_check(self):
        runtime, sentinel, grid = _filled_runtime(nodes=2)
        runtime.process(0).locks._holds.append(
            _Hold("zombie", grid, box_region(grid, 0, 0, 2, 2), write=False)
        )
        sentinel.check_terminal()
        assert "termination" in _checks(sentinel)


class TestBoundsPrefilter:
    """The cheap bounding-corner rejection the sentinel's scans use must
    never mask a real overlap."""

    def test_box_bounds_classification(self):
        grid = Grid((8, 8), name="b")
        a = corner_bounds(box_region(grid, 0, 0, 4, 4))
        b = corner_bounds(box_region(grid, 4, 4, 8, 8))
        c = corner_bounds(box_region(grid, 3, 3, 5, 5))
        empty = corner_bounds(grid.empty_region())
        assert bounds_disjoint(a, b)  # half-open boxes: touching corners
        assert not bounds_disjoint(a, c)
        assert not bounds_disjoint(b, c)
        assert bounds_disjoint(a, empty) and bounds_disjoint(empty, empty)
        # unknown schemes can never be rejected
        assert not bounds_disjoint(a, NO_BOUNDS)
        assert not bounds_disjoint(NO_BOUNDS, NO_BOUNDS)

    def test_interval_bounds(self):
        from repro.regions.interval import IntervalRegion

        a = corner_bounds(IntervalRegion.span(0, 10))
        b = corner_bounds(IntervalRegion.span(10, 20))
        c = corner_bounds(IntervalRegion.span(5, 15))
        assert bounds_disjoint(a, b)
        assert not bounds_disjoint(a, c)

    def test_bounds_are_conservative_for_schemes_without_corners(self):
        from repro.items.tree import BalancedTree

        tree = BalancedTree(3, name="t")
        assert corner_bounds(tree.full_region) is NO_BOUNDS

    def test_bounds_cache_keys_by_identity(self):
        grid = Grid((8, 8), name="b2")
        region = box_region(grid, 1, 1, 3, 3)
        first = corner_bounds(region)
        assert corner_bounds(region) is first


@pytest.mark.sentinel_injection
class TestSampledProfileStillDetects:
    def test_bench_profile_shape(self):
        config = SentinelConfig.bench_profile()
        assert not config.strict
        assert config.task_stride > 1 and config.scan_stride > 4096

    def test_scan_catches_forged_overlap_despite_task_sampling(self):
        """Sampling skips per-dispatch checks; the (unsampled) scan must
        still catch a cross-table overlapping write pair."""
        runtime = make_runtime(2)
        auto = runtime.probe.observer(RuntimeSentinel)
        if auto is not None:
            auto.detach()
        sentinel = RuntimeSentinel(
            runtime, SentinelConfig.bench_profile()
        ).attach()
        grid = Grid((GRID_SIDE, GRID_SIDE), name="g")
        runtime.register_item(grid)
        region = box_region(grid, 0, 0, 4, 4)
        runtime.process(0).locks._holds.append(
            _Hold("t0", grid, region, write=True)
        )
        runtime.process(1).locks._holds.append(
            _Hold("t1", grid, box_region(grid, 2, 2, 6, 6), write=True)
        )
        sentinel.verify_all()
        assert "exclusive_writes" in _checks(sentinel)


class TestRandomSweepRegressions:
    """Deterministic pins of schedules the randomized sweep falsified.

    Each was a real latent bug: a reader/writer staging livelock, a
    writer/writer intent deadlock (an ``owner`` variable shadowed by the
    lookup loop), and a replica registered over a region that became
    owned while its payload was in transit.
    """

    def _run_ops(self, ops, nodes):
        runtime, sentinel = watched_runtime(nodes=nodes)
        grid = Grid((GRID_SIDE, GRID_SIDE), name="g")
        runtime.register_item(grid)
        submitted = []
        for index, (kind, (lo, hi), origin) in enumerate(ops):
            region = grid.box(lo, hi)
            spec = TaskSpec(
                name=f"{kind[0]}{index}",
                reads={grid: region} if kind in ("read", "readwrite") else {},
                writes={grid: region} if kind in ("write", "readwrite") else {},
                size_hint=region.size(),
            )
            submitted.append(
                runtime.submit(spec, origin=origin % nodes, after=[])
            )
        for treeture in submitted:
            runtime.wait(treeture)
        sentinel.verify_all()
        sentinel.check_terminal()
        assert sentinel.violations == []

    def test_reader_writer_staging_is_not_a_livelock(self):
        """A writer invalidating the replicas a reader keeps re-fetching
        used to ping-pong until the bounded retries gave up."""
        self._run_ops(
            [('read', ((0, 0), (1, 1)), 0)] * 7
            + [
                ('write', ((4, 0), (5, 1)), 0),
                ('read', ((4, 4), (5, 9)), 0),
                ('write', ((4, 4), (5, 9)), 1),
            ],
            nodes=3,
        )

    def test_concurrent_writer_staging_is_not_a_deadlock(self):
        """Two disjoint writers plus a wide reader once deadlocked on a
        write intent that was never matched against the right owner."""
        self._run_ops(
            [('read', ((0, 0), (1, 1)), 0)] * 7
            + [
                ('read', ((0, 0), (5, 5)), 0),
                ('write', ((4, 4), (5, 9)), 0),
                ('write', ((5, 0), (6, 1)), 0),
            ],
            nodes=3,
        )

    def test_replica_landing_on_freshly_owned_region_stays_coherent(self):
        """A replica payload arriving after part of its region became
        locally owned must not register the owned part as a replica."""
        self._run_ops(
            [('read', ((0, 0), (1, 1)), 0)] * 7
            + [
                ('read', ((0, 4), (1, 9)), 0),
                ('write', ((0, 0), (1, 2)), 0),
                ('write', ((0, 5), (1, 8)), 0),
            ],
            nodes=4,
        )
