"""The pfor split contract: exact leaf counts that partition the loop.

A loop of size ``S`` at granularity ``g`` yields exactly ``max(1,
round(S / g))`` leaves, and those leaves tile the root without overlap.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.pfor import LoopPart, _split_box, pfor_task
from repro.regions.box import Box


def _leaves(part: LoopPart) -> list[Box]:
    if part.leaves <= 1:
        return [part.box]
    return [box for sub in _split_box(part) for box in _leaves(sub)]


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
    # every cell of the root is covered by exactly one leaf
    lo = np.array([leaf.lo for leaf in leaves]) - box.lo
    hi = np.array([leaf.hi for leaf in leaves]) - box.lo
    assert (lo >= 0).all() and (hi <= box.widths()).all(), "leaf escapes"
    assert (hi > lo).all(), "empty leaf"
    cover = np.zeros(box.widths(), dtype=int)
    for a, b in zip(lo, hi):
        cover[tuple(map(slice, a, b))] += 1
    assert (cover == 1).all()


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
    children = task.splitter()
    assert [child.size_hint for child in children] == [5.0, 5.0]
    assert all(child.splitter is None for child in children)
