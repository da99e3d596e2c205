"""The pfor split contract: exact leaf counts that partition the loop.

A loop of size ``S`` at granularity ``g`` yields exactly ``max(1,
round(S / g))`` leaves, and those leaves tile the root without overlap —
for any owner map the splits are steered by, stale or fragmented.  Parts
spanning several owners are cut at owner boundaries; a part one process
holds (or an empty map) splits by halving the leaf count.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.pfor import LoopPart, _split_box, pfor_task
from repro.regions.box import Box, BoxSetRegion


def _leaves(part: LoopPart, owners=()) -> list[Box]:
    if part.leaves <= 1:
        return [part.box]
    return [
        box for sub in _split_box(part, owners) for box in _leaves(sub, owners)
    ]


def _halving(part: LoopPart) -> list[LoopPart]:
    """The owner-blind rule: ``ceil(n / 2)`` leaves left, the cut at that
    share of the widest axis."""
    box, leaves = part
    widths = box.widths()
    axis = widths.index(max(widths))
    share = (leaves + 1) // 2
    cut = min(widths[axis] - 1, max(1, round(widths[axis] * share / leaves)))
    left, right = box.split(axis, box.lo[axis] + cut)
    share = min(max(share, leaves - right.size()), left.size())
    return [LoopPart(left, share), LoopPart(right, leaves - share)]


def _assert_tiles(box: Box, leaves: list[Box]) -> None:
    """Every cell of ``box`` lies in exactly one of ``leaves``."""
    lo = np.array([leaf.lo for leaf in leaves]) - box.lo
    hi = np.array([leaf.hi for leaf in leaves]) - box.lo
    assert (lo >= 0).all() and (hi <= box.widths()).all(), "leaf escapes"
    assert (hi > lo).all(), "empty leaf"
    cover = np.zeros(box.widths(), dtype=int)
    for a, b in zip(lo, hi):
        cover[tuple(map(slice, a, b))] += 1
    assert (cover == 1).all()


@st.composite
def boxes(draw):
    rank = draw(st.integers(1, 3))
    lo = draw(st.lists(st.integers(-8, 8), min_size=rank, max_size=rank))
    widths = draw(st.lists(st.integers(1, 12), min_size=rank, max_size=rank))
    return Box.of(lo, [a + w for a, w in zip(lo, widths)])


@settings(max_examples=200, deadline=None)
@given(boxes(), st.floats(0.5, 400.0, allow_nan=False))
def test_leaves_partition_the_root_with_the_exact_count(box, granularity):
    leaves = _leaves(LoopPart.of(box, granularity))
    assert len(leaves) == max(1, round(box.size() / max(1.0, granularity)))
    _assert_tiles(box, leaves)


@st.composite
def owned(draw):
    """A root box and an arbitrary owner map: random pieces, overlapping
    or fragmented, reaching past the root or missing it, any pids."""
    box = draw(boxes())
    pieces = []
    for _ in range(draw(st.integers(0, 6))):
        lo = [draw(st.integers(a - 3, b)) for a, b in zip(box.lo, box.hi)]
        hi = [a + draw(st.integers(1, 8)) for a in lo]
        region = BoxSetRegion((Box.of(lo, hi),))
        pieces.append((region, draw(st.integers(0, 4))))
    return box, pieces


@settings(max_examples=300, deadline=None)
@given(owned(), st.floats(0.5, 400.0, allow_nan=False))
def test_any_owner_map_keeps_the_exact_count_and_tiling(case, granularity):
    box, owners = case
    leaves = _leaves(LoopPart.of(box, granularity), owners)
    assert len(leaves) == max(1, round(box.size() / max(1.0, granularity)))
    _assert_tiles(box, leaves)


@settings(max_examples=200, deadline=None)
@given(boxes(), st.integers(2, 400), st.integers(0, 4))
def test_no_or_one_owner_gives_the_halving_split(box, leaves, pid):
    leaves = min(leaves, box.size())
    if leaves < 2:
        return
    part = LoopPart(box, leaves)
    expected = _halving(part)
    assert _split_box(part) == expected
    # one owner of the whole part, or of a piece of it: nothing to cut at
    whole = BoxSetRegion((box,))
    assert _split_box(part, [(whole, pid)]) == expected
    assert _split_box(part, [(whole, pid), (whole, pid)]) == expected


@st.composite
def slabs(draw):
    """A root box cut into owner slabs across its widest axis, each slab
    at least as thick as the root is wide elsewhere (so a part spanning
    two slabs keeps that axis widest), and a leaf count at which every
    slab holds at least one leaf's cells."""
    rank = draw(st.integers(1, 3))
    cross = draw(st.lists(st.integers(1, 4), min_size=rank - 1, max_size=rank - 1))
    axis = draw(st.integers(0, rank - 1))
    floor = max(cross, default=1)
    thick = draw(
        st.lists(st.integers(floor, floor + 6), min_size=1, max_size=6)
    )
    lo = draw(st.lists(st.integers(-5, 5), min_size=rank, max_size=rank))
    widths = list(cross)
    widths.insert(axis, sum(thick))
    box = Box.of(lo, [a + w for a, w in zip(lo, widths)])
    owners, start = [], lo[axis]
    pids = draw(st.permutations(range(len(thick))))
    for pid, width in zip(pids, thick):
        slab_lo, slab_hi = list(box.lo), list(box.hi)
        slab_lo[axis], slab_hi[axis] = start, start + width
        owners.append((BoxSetRegion((Box.of(slab_lo, slab_hi),)), pid))
        start += width
    # every slab holds at least a leaf's size / n cells
    least = -(-sum(thick) // min(thick))
    leaves = draw(st.integers(least, min(box.size(), least + 40)))
    return box, owners, leaves


@settings(max_examples=300, deadline=None)
@given(slabs())
def test_owner_slabs_are_never_mixed_in_a_leaf(case):
    box, owners, leaves = case
    found = _leaves(LoopPart(box, leaves), owners)
    assert len(found) == leaves
    _assert_tiles(box, found)
    for leaf in found:
        holders = {
            pid
            for region, pid in owners
            if not region.intersect(BoxSetRegion((leaf,))).is_empty()
        }
        assert len(holders) == 1, (leaf, holders)


def test_a_three_node_loop_gives_each_block_its_share():
    # three 8-row home blocks; the interior loop [1, 23) x [1, 7) at 12
    # leaves: halving would put 6 leaves in rows [1, 12), straddling
    # blocks 0 and 1; owner cuts give every block its 4
    homes = [
        (BoxSetRegion((Box.of((8 * k, 0), (8 * k + 8, 8)),)), k)
        for k in range(3)
    ]
    root = LoopPart(Box.of((1, 1), (23, 7)), 12)
    found = _leaves(root, homes)
    per_block = [
        sum(1 for leaf in found if 8 * k <= leaf.lo[0] and leaf.hi[0] <= 8 * k + 8)
        for k in range(3)
    ]
    assert per_block == [4, 4, 4]


def test_a_twenty_core_node_gets_one_leaf_per_worker_slot():
    # 20 cores x oversubscription 2: forty leaves, not the 64 of halving
    box = Box.of((1, 1), (3999, 3999))
    leaves = _leaves(LoopPart.of(box, box.size() / 40))
    assert len(leaves) == 40
    sizes = [leaf.size() for leaf in leaves]
    assert max(sizes) / min(sizes) < 1.01


def test_pfor_task_leaves_carry_no_splitter():
    task = pfor_task((0,), (10,), body=lambda ctx, box: None, granularity=4)
    # 10 / 4 rounds to 2 leaves: one split, two plain leaves
    children = task.expand_children()
    assert [child.size_hint for child in children] == [5.0, 5.0]
    assert all(child.splitter is None for child in children)
