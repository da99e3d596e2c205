"""Regression: the paper apps and examples analyze clean; model bridge; CLI."""

import pytest

from repro.analysis import AnalysisConfig, analyze_model_program, analyze_task
from repro.analysis.targets import (
    EXAMPLE_SCRIPTS,
    analyze_app,
    analyze_example,
)
from repro.model.elements import DataItemDecl
from repro.model.task import AccessSpec, Program, simple_task
from repro.regions.interval import IntervalRegion


QUICK = AnalysisConfig(max_depth=3, max_nodes=128)


class TestAppsAnalyzeClean:
    """Acceptance: zero error findings on the three paper apps."""

    @pytest.mark.parametrize("app", ["stencil", "ipic3d", "tpc"])
    def test_app_clean(self, app):
        report = analyze_app(app, QUICK)
        assert report.tasks_expanded > 0
        assert report.findings == [], "\n".join(map(str, report.findings))


class TestExamplesAnalyzeClean:
    @pytest.mark.parametrize("script", EXAMPLE_SCRIPTS)
    def test_example_clean(self, script):
        if script == "graph_bfs.py":
            pytest.importorskip("networkx")
        report = analyze_example(script, QUICK)
        assert report.tasks_expanded > 0
        assert report.errors == [], "\n".join(map(str, report.errors))


class TestTPCRootRequirement:
    """Pin the pre-fix TPC defect: band reads escaping an undeclared root.

    The batch root originally declared no requirements while its band
    children read whole kd-subtrees; the coverage check exists precisely
    to catch that shape, and the fix (the batch root declaring the union
    of its children's sub-tree reads) must keep the graph clean.
    """

    def make_batch_root(self):
        from repro.apps.tpc import TPCWorkload, _query_batches, make_problem
        from repro.runtime.tasks import TaskSpec

        workload = TPCWorkload(
            total_points=2**10,
            depth=6,
            queries_per_node=4,
            task_subtree_height=3,
            task_batch=2,
        )
        problem = make_problem(workload, 2)
        batch = _query_batches(problem, workload.task_batch)[0]
        roots = sorted(
            {r for qi in batch for r in problem.plans[qi].recurse_roots}
        )
        reads = problem.item.empty_region()
        for root in roots:
            reads = reads.union(problem.item.subtree_region(root))

        def splitter(_owners):
            return [
                TaskSpec(
                    name=f"tpc.band{root}",
                    reads={problem.item: problem.item.subtree_region(root)},
                    body_in_virtual=True,
                )
                for root in roots
            ]

        fixed = TaskSpec(
            name="tpc.query",
            reads={problem.item: reads},
            splitter=splitter,
        )
        broken = TaskSpec(name="tpc.query", splitter=splitter)
        return fixed, broken

    def test_old_shape_caught_and_fix_clean(self):
        fixed, broken = self.make_batch_root()
        bad = analyze_task(broken, QUICK)
        assert {f.check for f in bad.errors} == {"coverage.read_escape"}
        good = analyze_task(fixed, QUICK)
        assert good.findings == []


ITEM = DataItemDecl(IntervalRegion.span(0, 40), name="data")


def model_child(name, lo, hi, read_lo=None, read_hi=None):
    reqs = AccessSpec(
        reads={
            ITEM: IntervalRegion.span(
                lo if read_lo is None else read_lo,
                hi if read_hi is None else read_hi,
            )
        },
        writes={ITEM: IntervalRegion.span(lo, hi)},
    )

    def body(ctx):
        return
        yield  # pragma: no cover

    return simple_task(body, reqs, name=name)


def fork_join(children, *, sync_between=False, parent_reqs=None):
    def main(ctx):
        yield ctx.create(ITEM)
        for child in children:
            yield ctx.spawn(child)
            if sync_between:
                yield ctx.sync(child)
        if not sync_between:
            for child in children:
                yield ctx.sync(child)
        yield ctx.destroy(ITEM)

    return Program(simple_task(main, parent_reqs, name="main"))


class TestModelBridge:
    def test_clean_fork_join(self):
        children = [model_child(f"c{k}", 10 * k, 10 * (k + 1)) for k in range(4)]
        report = analyze_model_program(fork_join(children))
        assert report.errors == [], "\n".join(map(str, report.errors))
        assert report.tasks_expanded == 5
        assert report.pairs_checked == 6

    def test_unordered_write_overlap_is_error(self):
        children = [model_child("a", 0, 20), model_child("b", 10, 30)]
        report = analyze_model_program(fork_join(children))
        assert "race.write_write" in {f.check for f in report.errors}

    def test_sync_orders_out_the_race(self):
        children = [model_child("a", 0, 20), model_child("b", 10, 30)]
        report = analyze_model_program(fork_join(children, sync_between=True))
        assert report.findings == []

    def test_read_write_overlap_is_warning(self):
        children = [
            model_child("a", 0, 20, read_lo=0, read_hi=25),
            model_child("b", 20, 40),
        ]
        report = analyze_model_program(fork_join(children))
        assert report.errors == []
        assert "race.read_write" in {f.check for f in report.warnings}

    def test_created_items_exempt_from_escape(self):
        # the parent creates ITEM inside its body, so children's
        # requirements on it cannot escape anything
        children = [model_child("a", 0, 20), model_child("b", 20, 40)]
        report = analyze_model_program(fork_join(children))
        assert not any(f.check.startswith("model.") for f in report.findings)

    def test_escape_without_create_is_warning(self):
        other = DataItemDecl(IntervalRegion.span(0, 40), name="other")
        reqs = AccessSpec(writes={other: IntervalRegion.span(0, 10)})

        def body(ctx):
            return
            yield  # pragma: no cover

        child = simple_task(body, reqs, name="child")

        def main(ctx):
            yield ctx.spawn(child)
            yield ctx.sync(child)

        report = analyze_model_program(Program(simple_task(main, name="main")))
        assert "model.write_escape" in {f.check for f in report.warnings}


class TestCommandLine:
    def test_cli_reports_clean_target(self, capsys):
        from repro.analysis.__main__ import main

        assert main(["stencil", "--quiet", "--max-depth", "3"]) == 0
        out = capsys.readouterr().out
        assert "app:stencil" in out
        assert "0 error(s)" in out

    def test_bench_analyze_smoke(self, capsys):
        from repro.bench.__main__ import main

        assert main(["stencil", "--smoke", "--analyze"]) == 0
        out = capsys.readouterr().out
        assert "analysis:" in out
