"""Property tests: clean random task trees analyze clean; seeded bugs don't.

The generator builds requirement-correct trees by construction — every
split partitions the parent's write range into disjoint child sub-ranges,
and reads go to a *different* item, fully declared at every level.  Such
trees must produce zero findings.  Conversely, inflating any one leaf's
write range by a single element breaks either sibling disjointness or
parent subsumption, so the analyzer must report at least one error.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import AnalysisConfig, analyze_task
from repro.items.grid import Grid
from repro.runtime.tasks import TaskSpec


N = 64
DST = Grid((N + 8,), name="dst")
SRC = Grid((N + 8,), name="src")

CONFIG = AnalysisConfig(max_depth=8, max_nodes=1024)


def span(lo, hi, grid=DST):
    return grid.box((lo,), (hi,))


def build_tree(lo, hi, draw, depth=0):
    """A requirement-correct task over dst[lo, hi), reading src[lo, hi).

    Returns ``(spec, leaves)`` with each leaf as ``(spec, lo, hi)``.
    """
    width = hi - lo
    arity = draw(st.integers(2, 3)) if width >= 4 else 2
    do_split = depth < 4 and width >= arity and draw(st.booleans())
    spec = TaskSpec(
        name=f"t{lo}_{hi}",
        reads={SRC: span(lo, hi, SRC)},
        writes={DST: span(lo, hi)},
    )
    if not do_split:
        return spec, [(spec, lo, hi)]
    cuts = sorted(
        draw(
            st.lists(
                st.integers(lo + 1, hi - 1),
                min_size=arity - 1,
                max_size=arity - 1,
                unique=True,
            )
        )
    )
    edges = [lo, *cuts, hi]
    children, leaves = [], []
    for a, b in zip(edges, edges[1:]):
        child, sub_leaves = build_tree(a, b, draw, depth + 1)
        children.append(child)
        leaves.extend(sub_leaves)
    spec.splitter = lambda _owners, kids=children: list(kids)
    return spec, leaves


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_clean_random_trees_have_zero_findings(data):
    root, _ = build_tree(0, N, data.draw)
    report = analyze_task(root, CONFIG)
    assert report.findings == [], "\n".join(map(str, report.findings))
    assert report.tasks_truncated == 0


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_inflated_leaf_write_always_caught(data):
    root, leaves = build_tree(0, N, data.draw)
    victim, lo, hi = leaves[data.draw(st.integers(0, len(leaves) - 1))]
    # one element past the leaf's range: crosses into a sibling's range
    # (overlap + write/write race) or out of the root's (write escape)
    victim.writes[DST] = span(lo, hi + 1)
    if victim is root:
        # no parent to escape and no sibling to collide with: the root's
        # own declaration is the outermost contract
        return
    report = analyze_task(root, CONFIG)
    assert not report.clean, report.summary()
    allowed = {
        "coverage.sibling_write_overlap",
        "coverage.write_escape",
        "race.write_write",
    }
    assert {f.check for f in report.errors} <= allowed


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_shrunken_parent_read_always_caught(data):
    """Dropping part of a split parent's read declaration is a read escape."""
    half = N // 2
    left, _ = build_tree(0, half, data.draw, depth=1)
    right, _ = build_tree(half, N, data.draw, depth=1)
    root = TaskSpec(
        name="root",
        reads={SRC: span(1, N, SRC)},  # children still read src[0, N)
        writes={DST: span(0, N)},
        splitter=lambda _owners: [left, right],
    )
    report = analyze_task(root, CONFIG)
    assert "coverage.read_escape" in {f.check for f in report.errors}
