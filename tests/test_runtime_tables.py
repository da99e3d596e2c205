"""The runtime's hull-keyed tables: same answers as a linear scan, and no
region-algebra call for an entry whose hull cannot reach the query.

The write-intent table, the lock tables, the replica registry, the home
maps and the index covers all reject an entry by comparing cached hulls
before they ask the region kernel.  The property test checks every answer
against an oracle that scans the whole table and compares element sets;
the counted tests check that a hull-disjoint entry never reaches the
kernel at all.
"""

from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.items.grid import Grid
from repro.items.tree import BalancedTree
from repro.regions.tree import TreeRegion
from repro.regions.kernel import get_kernel
from repro.runtime.locks import LockTable
from repro.runtime.policies import DataAwarePolicy
from repro.runtime.runtime import AllScaleRuntime
from repro.runtime.tasks import TaskSpec
from repro.sim.cluster import Cluster, ClusterSpec
from repro.sim.engine import SimEngine
from tests.conftest import TREE_GEOMETRY, box_set_regions, tree_regions

OWNERS = 4

#: one item per region family; every region of an item shares its family
FAMILIES = {
    "box": (lambda: Grid((8, 8), name="g"), box_set_regions()),
    "tree": (lambda: BalancedTree(TREE_GEOMETRY.depth, name="t"), tree_regions()),
}


def _program(regions):
    owner = st.integers(0, OWNERS - 1)
    return st.lists(
        st.one_of(
            st.tuples(st.just("register"), owner, regions),
            st.tuples(st.just("clear"), owner),
            st.tuples(st.just("acquire"), owner, regions, regions),
            st.tuples(st.just("release"), owner),
        ),
        max_size=10,
    )


def _elements(region) -> frozenset:
    return frozenset(region.elements())


def _oracle_blocked(intents, query, owner) -> bool:
    """Every other intent, older ones only for an intent holder, write
    regions by element set."""
    own = intents.get(owner)
    for other, (seq, write) in intents.items():
        if other is owner or (own is not None and seq > own[0]):
            continue
        if write & query:
            return True
    return False


def _oracle_locks(table, item, query, owner=None, writes_only=False) -> bool:
    """Any hold of ``table`` on ``item`` overlapping ``query``, by element
    set, skipping ``owner``'s own; the hold list is the source of truth."""
    return any(
        hold.owner is not owner
        and hold.item is item
        and (hold.write or not writes_only)
        and _elements(hold.region) & query
        for hold in table._holds
    )


@pytest.mark.parametrize("family", FAMILIES)
def test_tables_answer_like_the_linear_scan(family):
    make_item, regions = FAMILIES[family]

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        program=_program(regions),
        queries=st.lists(regions, min_size=1, max_size=4),
    )
    def check(program, queries):
        item = make_item()
        runtime = AllScaleRuntime(
            Cluster(ClusterSpec(num_nodes=1, cores_per_node=1))
        )
        table = LockTable(SimEngine())
        owners = [object() for _ in range(OWNERS)]
        #: owner -> (seq, write elements)
        intents: dict = {}
        seq = 0
        for op, who, *args in program:
            owner = owners[who]
            if op == "register":
                (write,) = args
                runtime.register_write_intent(owner, {item: write})
                seq += 1
                intents[owner] = (seq, _elements(write))
            elif op == "clear":
                runtime.clear_write_intent(owner)
                intents.pop(owner, None)
            elif op == "acquire":
                reads, writes = args
                table.try_acquire(owner, {item: reads}, {item: writes})
            else:
                table.release(owner)
            for query in queries:
                wanted = _elements(query)
                for asker in (None, *owners):
                    assert runtime.write_intent_blocked(
                        item, query, asker
                    ) == _oracle_blocked(intents, wanted, asker)
                    assert table.conflicts(
                        {}, {item: query}, owner=asker
                    ) == _oracle_locks(table, item, wanted, asker)
                    assert table.conflicts(
                        {item: query}, {}, owner=asker
                    ) == _oracle_locks(table, item, wanted, asker, True)
                assert table.any_locked(item, query) == _oracle_locks(
                    table, item, wanted
                )
                assert table.write_locked(item, query) == _oracle_locks(
                    table, item, wanted, writes_only=True
                )

    check()


@pytest.mark.parametrize("family", FAMILIES)
def test_intent_search_reaches_back_by_the_window(family):
    """An older intent whose hull starts below the query's and reaches
    into it blocks: the hull check rejects only provably disjoint pairs."""
    item = FAMILIES[family][0]()
    if family == "box":
        older, query = item.box((0, 0), (4, 8)), item.box((2, 0), (6, 8))
    else:
        older = TreeRegion.of_subtrees(TREE_GEOMETRY, [2])
        query = TreeRegion.of_nodes(TREE_GEOMETRY, [5])  # in node 2's sub-tree
    assert older.hull()[1][0] < query.hull()[1][0]
    runtime = AllScaleRuntime(
        Cluster(ClusterSpec(num_nodes=1, cores_per_node=1))
    )
    runtime.register_write_intent(object(), {item: older})
    assert runtime.write_intent_blocked(item, query, None)


class TestCountedHullRejects:
    """Counted, not timed: N entries whose hulls are disjoint from the
    query's cost the region kernel nothing — no hit, no miss, no hull
    reject — where a full scan would call it once per entry."""

    N = 16

    @staticmethod
    def _kernel_counts() -> tuple[int, int, int]:
        stats = get_kernel().stats()
        return (
            stats["region.cache_hits"],
            stats["region.cache_misses"],
            stats["region.hull_rejects"],
        )

    def _blocks(self):
        """A grid of N + 1 four-row blocks: N entries and the query."""
        grid = Grid((4 * (self.N + 1), 8), name="g")
        grid.empty_region()  # built lazily, through the kernel
        blocks = [
            grid.box((4 * i, 0), (4 * i + 4, 8)).interned()
            for i in range(self.N + 1)
        ]
        return grid, blocks[: self.N], blocks[self.N]

    def test_lock_table_scans(self):
        grid, blocks, query = self._blocks()
        table = LockTable(SimEngine())
        for i, block in enumerate(blocks):
            assert table.try_acquire(f"t{i}", {}, {grid: block})
        before = self._kernel_counts()
        assert not table.conflicts({}, {grid: query})
        assert not table.conflicts({grid: query}, {})
        assert not table.any_locked(grid, query)
        assert not table.write_locked(grid, query)
        assert self._kernel_counts() == before

    def test_write_intent_walk(self):
        grid, blocks, query = self._blocks()
        runtime = AllScaleRuntime(
            Cluster(ClusterSpec(num_nodes=1, cores_per_node=1))
        )
        for block in blocks:
            runtime.register_write_intent(object(), {grid: block})
        before = self._kernel_counts()
        assert not runtime.write_intent_blocked(grid, query, None)
        assert self._kernel_counts() == before

    def test_invalidate_replicas_walk(self):
        grid, blocks, query = self._blocks()
        runtime = AllScaleRuntime(
            Cluster(ClusterSpec(num_nodes=1, cores_per_node=1))
        )
        for pid, block in enumerate(blocks, start=1):
            runtime.register_replica(grid, pid, block)
        before = self._kernel_counts()
        # no holder overlaps: nothing is sent, nothing dropped
        assert list(runtime.invalidate_replicas(grid, query, keeper=0)) == []
        assert self._kernel_counts() == before

    def test_home_hint_walk(self):
        grid, blocks, query = self._blocks()
        runtime = SimpleNamespace(home_map=lambda item: blocks)
        task = TaskSpec(name="t", writes={grid: query})
        policy = DataAwarePolicy()
        before = self._kernel_counts()
        assert policy._home_hint(task, runtime) is None
        assert self._kernel_counts() == before
        # the one block the task does touch still wins the hint
        touching = TaskSpec(name="u", writes={grid: blocks[5]})
        assert policy._home_hint(touching, runtime) == 5
