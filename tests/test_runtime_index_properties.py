"""Property-based tests for the hierarchical index under random churn.

Random sequences of ownership updates (growth, shrink, handoffs) must keep
every inner node's covered region equal to the union of its children, and
every lookup must return exactly the intersection of the request with the
true ownership map — regardless of origin.  The origin-side locality cache
(``lookup_cached``) must answer exactly what the charged lookup answers.
"""

from hypothesis import given, settings, strategies as st

from repro.items.grid import Grid
from repro.regions.base import Region
from repro.regions.box import Box, BoxSetRegion
from repro.runtime.index import HierarchicalIndex
from repro.sim.cluster import Cluster, ClusterSpec

SIDE = 16


def make_index(num_processes):
    cluster = Cluster(ClusterSpec(num_nodes=num_processes, cores_per_node=1))
    index = HierarchicalIndex(cluster.network, num_processes)
    return cluster, index


def check_hierarchy_consistency(index, item, num_processes):
    """Inner covers equal the union of their children at every level."""
    for level in range(2, index.levels + 1):
        span = 1 << (level - 1)
        for root in range(0, num_processes, span):
            left, right = index.children_of(level, root)
            expected = index.covered(item, level - 1, left)
            if right < num_processes:
                expected = expected.union(
                    index.covered(item, level - 1, right)
                )
            actual = index.covered(item, level, root)
            assert actual.same_elements(expected), (
                f"level {level} node {root} diverged"
            )


boxes = st.tuples(
    st.integers(0, SIDE - 1),
    st.integers(0, SIDE - 1),
    st.integers(1, 6),
    st.integers(1, 6),
).map(
    lambda t: Box.of(
        (t[0], t[1]), (min(SIDE, t[0] + t[2]), min(SIDE, t[1] + t[3]))
    )
)


@given(
    num_processes=st.sampled_from([1, 2, 3, 4, 6, 8]),
    updates=st.lists(
        st.tuples(st.integers(0, 7), boxes, st.booleans()),
        min_size=1,
        max_size=15,
    ),
    lookups=st.lists(
        st.tuples(st.integers(0, 7), boxes), min_size=1, max_size=5
    ),
)
@settings(max_examples=50, deadline=None)
def test_random_updates_keep_hierarchy_consistent(
    num_processes, updates, lookups
):
    cluster, index = make_index(num_processes)
    grid = Grid((SIDE, SIDE), name="g")
    index.register_item(grid)
    # ground truth: per-process owned regions (kept disjoint by always
    # removing a region from everyone before granting it)
    truth = [grid.empty_region() for _ in range(num_processes)]

    for pid_raw, box, grow in updates:
        pid = pid_raw % num_processes
        region = BoxSetRegion((box,))
        if grow:
            for other in range(num_processes):
                if other != pid:
                    truth[other] = truth[other].difference(region)
                    index.update_ownership(grid, other, truth[other])
            truth[pid] = truth[pid].union(region)
        else:
            truth[pid] = truth[pid].difference(region)
        index.update_ownership(grid, pid, truth[pid])

    for pid in range(num_processes):
        assert index.owned_region(grid, pid).same_elements(truth[pid])
    check_hierarchy_consistency(index, grid, num_processes)

    total = grid.empty_region()
    for region in truth:
        total = total.union(region)

    for origin_raw, box in lookups:
        origin = origin_raw % num_processes
        request = BoxSetRegion((box,))
        done = cluster.engine.spawn(index.lookup(grid, request, origin))
        cluster.engine.run()
        mapping, unresolved = done.value
        # resolved pieces are disjoint, correct, and complete
        resolved = grid.empty_region()
        for part, pid in mapping:
            assert truth[pid].covers(part), "wrong owner reported"
            assert resolved.intersect(part).is_empty(), "overlapping pieces"
            resolved = resolved.union(part)
        assert resolved.same_elements(request.intersect(total))
        assert unresolved.same_elements(request.difference(total))


@given(seed_boxes=st.lists(boxes, min_size=1, max_size=6))
@settings(max_examples=30, deadline=None)
def test_lookup_is_origin_independent(seed_boxes):
    num_processes = 4
    cluster, index = make_index(num_processes)
    grid = Grid((SIDE, SIDE), name="g")
    index.register_item(grid)
    for k, box in enumerate(seed_boxes):
        pid = k % num_processes
        region = BoxSetRegion((box,))
        current = index.owned_region(grid, pid)
        for other in range(num_processes):
            if other != pid:
                index.update_ownership(
                    grid,
                    other,
                    index.owned_region(grid, other).difference(region),
                )
        index.update_ownership(grid, pid, current.union(region))

    request = grid.full_region
    results = []
    for origin in range(num_processes):
        done = cluster.engine.spawn(index.lookup(grid, request, origin))
        cluster.engine.run()
        mapping, unresolved = done.value
        owned_by = {}
        for part, pid in mapping:
            for element in part.elements():
                owned_by[element] = pid
        results.append((owned_by, unresolved.size()))
    first = results[0]
    for other in results[1:]:
        assert other == first


def run_lookup(cluster, gen):
    done = cluster.engine.spawn(gen)
    cluster.engine.run()
    return done.value


def shares_by_owner(grid, mapping) -> dict[int, Region]:
    shares: dict[int, Region] = {}
    for part, pid in mapping:
        shares[pid] = shares.get(pid, grid.empty_region()).union(part)
    return {pid: share for pid, share in shares.items() if not share.is_empty()}


def shrink(box: Box) -> Box:
    """A non-empty sub-box: the lower-left quarter, rounded up."""
    lo, hi = box.lo, box.hi
    return Box.of(
        lo, tuple(a + max(1, (b - a + 1) // 2) for a, b in zip(lo, hi))
    )


#: one step of a lookup sequence: ``("update", pid, box, grow)`` moves
#: ownership; ``("lookup", origin, kind, box)`` asks for a fresh box, a
#: repeat or a sub-box of an earlier request, or the whole grid
steps = st.one_of(
    st.tuples(
        st.just("update"), st.integers(0, 7), boxes, st.booleans()
    ),
    st.tuples(
        st.just("lookup"),
        st.integers(0, 7),
        st.sampled_from(["fresh", "repeat", "sub", "full"]),
        boxes,
    ),
)


@given(
    num_processes=st.sampled_from([1, 2, 3, 4, 6, 8]),
    layout=st.lists(st.tuples(st.integers(0, 7), boxes), max_size=8),
    sequence=st.lists(steps, min_size=1, max_size=20),
)
@settings(max_examples=60, deadline=None)
def test_cached_lookup_answers_like_the_charged_lookup(
    num_processes, layout, sequence
):
    cluster, index = make_index(num_processes)
    grid = Grid((SIDE, SIDE), name="g")
    index.register_item(grid)
    truth = [grid.empty_region() for _ in range(num_processes)]

    def grant(pid, region, grow):
        if grow:
            for other in range(num_processes):
                if other != pid:
                    truth[other] = truth[other].difference(region)
                    index.update_ownership(grid, other, truth[other])
            truth[pid] = truth[pid].union(region)
        else:
            truth[pid] = truth[pid].difference(region)
        index.update_ownership(grid, pid, truth[pid])

    for pid_raw, box in layout:
        grant(pid_raw % num_processes, BoxSetRegion((box,)), True)

    asked: list[Box] = []
    for step in sequence:
        if step[0] == "update":
            _, pid_raw, box, grow = step
            grant(pid_raw % num_processes, BoxSetRegion((box,)), grow)
            continue
        _, origin_raw, kind, box = step
        origin = origin_raw % num_processes
        if kind == "full":
            request = grid.full_region
        else:
            if kind == "repeat" and asked:
                box = asked[-1]
            elif kind == "sub" and asked:
                box = shrink(asked[-1])
            asked.append(box)
            request = BoxSetRegion((box,))

        hits = index.cache_hits
        messages = cluster.network.metrics.counter("net.messages")
        cached, cached_unresolved = run_lookup(
            cluster, index.lookup_cached(grid, request, origin)
        )
        if index.cache_hits > hits:
            # a hit is answered at the origin: no message is charged
            assert (
                cluster.network.metrics.counter("net.messages") == messages
            )
        charged, charged_unresolved = run_lookup(
            cluster, index.lookup(grid, request, origin)
        )
        assert cached_unresolved.same_elements(charged_unresolved)
        cached_shares = shares_by_owner(grid, cached)
        charged_shares = shares_by_owner(grid, charged)
        assert cached_shares.keys() == charged_shares.keys()
        for pid, share in charged_shares.items():
            assert cached_shares[pid].same_elements(share)


def test_updates_after_scale_out_keep_hierarchy_consistent():
    """Growth and shrink updates after ``grow`` adds root levels: every
    inner node stays the union of its children."""
    cluster = Cluster(ClusterSpec(num_nodes=6, cores_per_node=1))
    index = HierarchicalIndex(cluster.network, 3)
    grid = Grid((SIDE, SIDE), name="g")
    index.register_item(grid)
    for pid, region in enumerate(grid.decompose(3)):
        index.update_ownership(grid, pid, region)
    levels = index.levels
    index.grow(6)
    assert index.levels > levels
    check_hierarchy_consistency(index, grid, 6)

    moved = BoxSetRegion((Box.of((0, 0), (4, SIDE)),))
    owner = next(
        pid for pid in range(3) if index.owned_region(grid, pid).overlaps(moved)
    )
    # growth at a newcomer, then a shrink at the old owner
    index.update_ownership(grid, 5, moved)
    check_hierarchy_consistency(index, grid, 6)
    index.update_ownership(
        grid, owner, index.owned_region(grid, owner).difference(moved)
    )
    check_hierarchy_consistency(index, grid, 6)
    # and back: the newcomer shrinks to nothing, the owner grows again
    index.update_ownership(grid, 5, grid.empty_region())
    index.update_ownership(
        grid, owner, index.owned_region(grid, owner).union(moved)
    )
    check_hierarchy_consistency(index, grid, 6)
    root = index.covered(grid, index.levels, 0)
    assert root.same_elements(grid.full_region)
