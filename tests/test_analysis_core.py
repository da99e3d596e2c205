"""Unit tests for the static analyzer: findings, expansion, coverage, races."""

import pytest

from repro.analysis import (
    AnalysisConfig,
    AnalysisReport,
    ERROR,
    Finding,
    WARNING,
    analyze_task,
    expand_task,
)
from repro.analysis.coverage import check_coverage
from repro.analysis.races import (
    check_concurrent_roots,
    check_tree_races,
    effective_requirements,
)
from repro.items.grid import Grid
from repro.runtime.tasks import TaskSpec


GRID = Grid((64,), name="dst")
SRC = Grid((64,), name="src")


def span(lo, hi, grid=GRID):
    return grid.box((lo,), (hi,))


def leaf(name, lo, hi, reads=None, grid=GRID):
    """A leaf writing [lo, hi) of ``grid``, optionally reading ``reads``."""
    spec = TaskSpec(name=name, writes={grid: span(lo, hi, grid)})
    if reads is not None:
        spec.reads = dict(reads)
    return spec


def split(name, children, reads=None, writes=None):
    return TaskSpec(
        name=name,
        reads=dict(reads or {}),
        writes=dict(writes or {}),
        splitter=lambda _owners: list(children),
    )


def clean_tree():
    """Root writing [0, 32), split twice into disjoint quarters."""
    leaves_l = [leaf("ll", 0, 8), leaf("lr", 8, 16)]
    leaves_r = [leaf("rl", 16, 24), leaf("rr", 24, 32)]
    left = split("left", leaves_l, writes={GRID: span(0, 16)})
    right = split("right", leaves_r, writes={GRID: span(16, 32)})
    return split("root", [left, right], writes={GRID: span(0, 32)})


class TestFindings:
    def test_severity_validated(self):
        with pytest.raises(ValueError):
            Finding(check="x", severity="fatal", message="boom")

    def test_report_counts_and_clean(self):
        report = AnalysisReport(subject="s")
        assert report.clean
        report.add(Finding(check="a", severity=ERROR, message="m"))
        report.add(Finding(check="b", severity=WARNING, message="m"))
        assert not report.clean
        assert report.counts() == {"error": 1, "warning": 1, "info": 0}
        assert len(report.errors) == 1 and len(report.warnings) == 1

    def test_merge_deduplicates(self):
        a = AnalysisReport(subject="a")
        b = AnalysisReport(subject="b")
        finding = Finding(check="c", severity=ERROR, message="m", task="t")
        a.add(finding)
        b.add(Finding(check="c", severity=ERROR, message="m", task="t"))
        b.add(Finding(check="c", severity=ERROR, message="m", task="u"))
        a.merge(b)
        assert len(a.findings) == 2

    def test_render_lines_truncates(self):
        report = AnalysisReport(subject="s")
        for k in range(10):
            report.add(Finding(check="c", severity=ERROR, message=f"m{k}"))
        lines = report.render_lines(max_findings=3)
        assert any("7 more" in line for line in lines)


class TestExpansion:
    def test_full_expansion_counts(self):
        root, expanded, truncated = expand_task(clean_tree())
        assert expanded == 7
        assert truncated == 0
        assert len(root.children) == 2
        paths = sorted(n.path for n in root.walk())
        assert "root[0][1]" in paths

    def test_depth_bound_truncates(self):
        config = AnalysisConfig(max_depth=1)
        root, expanded, truncated = expand_task(clean_tree(), config)
        assert expanded == 3
        # both depth-1 children are splittable but unexpanded
        assert truncated == 2
        assert all(child.truncated for child in root.children)

    def test_node_budget_truncates(self):
        config = AnalysisConfig(max_nodes=3)
        root, expanded, truncated = expand_task(clean_tree(), config)
        assert expanded == 3
        assert truncated >= 1

    def test_failing_splitter_becomes_warning(self):
        def bad(_owners):
            raise RuntimeError("boom")

        spec = TaskSpec(name="bad", splitter=bad)
        findings = []
        root, expanded, truncated = expand_task(spec, findings=findings)
        assert truncated == 1
        assert [f.check for f in findings] == ["expansion.splitter_failed"]
        assert findings[0].severity == WARNING

    def test_leaf_only_expand_children_raises(self):
        with pytest.raises(ValueError):
            leaf("l", 0, 4).expand_children()


class TestCoverage:
    def test_clean_tree_has_no_findings(self):
        root, _, _ = expand_task(clean_tree())
        assert check_coverage(root) == []

    def test_write_escape_caught(self):
        # child writes [0, 20) but the parent only declared [0, 16)
        child = leaf("child", 0, 20)
        parent = split("parent", [child], writes={GRID: span(0, 16)})
        root, _, _ = expand_task(parent)
        findings = check_coverage(root)
        assert [f.check for f in findings] == ["coverage.write_escape"]
        assert findings[0].severity == ERROR
        assert findings[0].task == "parent[0]"
        assert findings[0].region.size() == 4

    def test_read_escape_caught(self):
        # child reads the whole source; parent declared nothing on it
        child = leaf("child", 0, 8, reads={SRC: span(0, 64, SRC)})
        parent = split("parent", [child], writes={GRID: span(0, 8)})
        root, _, _ = expand_task(parent)
        findings = check_coverage(root)
        assert [f.check for f in findings] == ["coverage.read_escape"]
        assert findings[0].item == "src"

    def test_read_covered_by_parent_write_is_fine(self):
        # reads within the parent's *accessed* (read ∪ write) region
        child = leaf("child", 0, 8, reads={GRID: span(0, 12)})
        parent = split("parent", [child], writes={GRID: span(0, 16)})
        root, _, _ = expand_task(parent)
        assert check_coverage(root) == []

    def test_sibling_write_overlap_caught(self):
        a = leaf("a", 0, 10)
        b = leaf("b", 8, 16)
        parent = split("parent", [a, b], writes={GRID: span(0, 16)})
        root, _, _ = expand_task(parent)
        findings = check_coverage(root)
        assert [f.check for f in findings] == ["coverage.sibling_write_overlap"]
        assert findings[0].region.size() == 2
        assert "parent[0]" in findings[0].message

    def test_defect_at_depth_two_caught(self):
        # the defect sits below the first split level
        bad = split(
            "bad",
            [leaf("x", 0, 6), leaf("y", 4, 8)],
            writes={GRID: span(0, 8)},
        )
        top = split("top", [bad], writes={GRID: span(0, 8)})
        report = analyze_task(top, AnalysisConfig(lint=False))
        assert {f.check for f in report.errors} == {
            "coverage.sibling_write_overlap",
            "race.write_write",
        }


class TestRaces:
    def test_effective_regions_union_descendants(self):
        root, _, _ = expand_task(clean_tree())
        effective = effective_requirements(root)
        eff_root = effective[id(root)]
        assert eff_root.writes[GRID].same_elements(span(0, 32))
        left = root.children[0]
        assert effective[id(left)].writes[GRID].same_elements(span(0, 16))

    def test_clean_tree_no_races(self):
        root, _, _ = expand_task(clean_tree())
        findings, pairs = check_tree_races(root)
        assert findings == []
        assert pairs == 3  # one pair at the root, one per inner node

    def test_escaped_write_surfaces_as_race(self):
        # declarations look disjoint at level 1, but a grandchild of the
        # right subtree escapes into the left's range: the effective
        # union keeps the escape visible to the sibling check
        left = split("left", [leaf("ll", 0, 10)], writes={GRID: span(0, 10)})
        right = split(
            "right", [leaf("rl", 5, 20)], writes={GRID: span(10, 20)}
        )
        tree = split("root", [left, right], writes={GRID: span(0, 20)})
        root, _, _ = expand_task(tree)
        findings, _ = check_tree_races(root)
        races = [f for f in findings if f.check == "race.write_write"]
        assert len(races) == 1
        assert races[0].severity == ERROR
        assert races[0].region.size() == 5

    def test_read_write_overlap_is_warning(self):
        a = leaf("a", 0, 8, reads={GRID: span(0, 12)})
        b = leaf("b", 8, 16)
        tree = split(
            "root",
            [a, b],
            reads={GRID: span(0, 12)},
            writes={GRID: span(0, 16)},
        )
        root, _, _ = expand_task(tree)
        findings, _ = check_tree_races(root)
        assert [f.check for f in findings] == ["race.read_write"]
        assert findings[0].severity == WARNING
        assert findings[0].region.size() == 4

    def test_disjoint_items_never_race(self):
        a = leaf("a", 0, 8, reads={SRC: span(0, 16, SRC)})
        b = leaf("b", 8, 16, reads={SRC: span(0, 16, SRC)})
        tree = split(
            "root",
            [a, b],
            reads={SRC: span(0, 16, SRC)},
            writes={GRID: span(0, 16)},
        )
        root, _, _ = expand_task(tree)
        findings, _ = check_tree_races(root)
        assert findings == []

    def test_pair_budget_respected(self):
        leaves = [leaf(f"l{k}", 4 * k, 4 * k + 4) for k in range(8)]
        tree = split("root", leaves, writes={GRID: span(0, 32)})
        root, _, _ = expand_task(tree)
        findings, pairs = check_tree_races(root, AnalysisConfig(max_pairs=5))
        assert pairs == 5

    def test_concurrent_roots_checked(self):
        a, _, _ = expand_task(leaf("a", 0, 10))
        b, _, _ = expand_task(leaf("b", 5, 15))
        efforts = [
            effective_requirements(a)[id(a)],
            effective_requirements(b)[id(b)],
        ]
        findings, pairs = check_concurrent_roots(efforts)
        assert pairs == 1
        assert [f.check for f in findings] == ["race.write_write"]


class TestAnalyzeTask:
    def test_clean_tree_report(self):
        report = analyze_task(clean_tree())
        assert report.clean
        assert report.tasks_expanded == 7
        assert report.pairs_checked == 3
        assert report.elapsed > 0

    def test_seeded_defects_all_caught(self):
        """The acceptance trio: overlap, escape, and a race in one tree."""
        a = leaf("a", 0, 10)
        b = leaf("b", 8, 16)  # overlaps a
        c = leaf("c", 16, 40)  # escapes the parent's write region
        tree = split("root", [a, b, c], writes={GRID: span(0, 32)})
        report = analyze_task(tree, AnalysisConfig(lint=False))
        checks = {f.check for f in report.errors}
        assert "coverage.sibling_write_overlap" in checks
        assert "coverage.write_escape" in checks
        assert "race.write_write" in checks

    def test_toggles_disable_checks(self):
        a = leaf("a", 0, 10)
        b = leaf("b", 8, 16)
        tree = split("root", [a, b], writes={GRID: span(0, 16)})
        config = AnalysisConfig(coverage=False, races=False, lint=False)
        report = analyze_task(tree, config)
        assert report.clean
        assert report.pairs_checked == 0
