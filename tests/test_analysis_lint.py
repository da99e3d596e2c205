"""AST lint tests: declared requirements vs. actual ``ctx`` accesses."""

import ast
import pathlib
import types

import pytest

from repro.analysis import AnalysisConfig, analyze_task, lint
from repro.analysis.lint import lint_key, lint_spec
from repro.analysis.targets import EXAMPLES_DIR
from repro.api.pfor import pfor_task
from repro.items.grid import Grid
from repro.runtime.tasks import TaskSpec


GRID = Grid((16,), name="g")
OTHER = Grid((16,), name="h")


def span(lo, hi, grid=GRID):
    return grid.box((lo,), (hi,))


def checks(findings):
    return [f.check for f in findings]


class TestUnderDeclaration:
    def test_undeclared_item_is_error(self):
        def body(ctx):
            return ctx.fragment(OTHER).gather(span(0, 4, OTHER))

        spec = TaskSpec(name="t", writes={GRID: span(0, 8)}, body=body)
        findings = lint_spec(spec)
        by_check = {f.check: f for f in findings}
        assert by_check["lint.undeclared_item"].severity == "error"
        assert by_check["lint.undeclared_item"].item == "h"

    def test_undeclared_write_is_error(self):
        def body(ctx):
            ctx.fragment(GRID).scatter(span(0, 4), 1.0)

        spec = TaskSpec(name="t", reads={GRID: span(0, 8)}, body=body)
        assert checks(lint_spec(spec)) == ["lint.undeclared_write"]

    def test_read_of_write_only_is_warning(self):
        def body(ctx):
            return ctx.fragment(GRID).gather(span(0, 4))

        spec = TaskSpec(name="t", writes={GRID: span(0, 8)}, body=body)
        findings = lint_spec(spec)
        assert checks(findings) == ["lint.undeclared_read"]
        assert findings[0].severity == "warning"

    def test_matching_declaration_is_clean(self):
        def body(ctx):
            values = ctx.fragment(GRID).gather(span(0, 4))
            ctx.fragment(GRID).scatter(span(0, 4), values)

        spec = TaskSpec(
            name="t",
            reads={GRID: span(0, 4)},
            writes={GRID: span(0, 4)},
            body=body,
        )
        assert lint_spec(spec) == []


class TestOverDeclaration:
    def test_unused_requirement_is_warning(self):
        def body(ctx):
            return ctx.fragment(GRID).gather(span(0, 4))

        spec = TaskSpec(
            name="t",
            reads={GRID: span(0, 4), OTHER: span(0, 4, OTHER)},
            body=body,
        )
        findings = lint_spec(spec)
        assert checks(findings) == ["lint.unused_requirement"]
        assert findings[0].item == "h"

    def test_empty_declared_region_not_flagged(self):
        def body(ctx):
            return ctx.fragment(GRID).gather(span(0, 4))

        spec = TaskSpec(
            name="t",
            reads={GRID: span(0, 4), OTHER: OTHER.empty_region()},
            body=body,
        )
        assert lint_spec(spec) == []

    def test_opaque_ctx_suppresses_over_declaration(self):
        def helper(ctx):
            return ctx.fragment(GRID).gather(span(0, 4))

        def body(ctx):
            return helper(ctx)

        spec = TaskSpec(name="t", reads={GRID: span(0, 4)}, body=body)
        # ctx escapes into helper(); the lint cannot see inside, so it
        # must not claim the requirement is unused
        assert lint_spec(spec) == []


class TestResolution:
    def test_alias_tracking(self):
        def body(ctx):
            fragment = ctx.fragment(GRID)
            fragment.scatter(span(0, 4), 0.0)

        spec = TaskSpec(name="t", reads={GRID: span(0, 4)}, body=body)
        assert checks(lint_spec(spec)) == ["lint.undeclared_write"]

    def test_lambda_in_call_expression(self):
        spec = TaskSpec(
            name="t",
            writes={GRID: span(0, 8)},
            body=(lambda ctx: ctx.fragment(GRID).scatter(span(0, 8), 1.0)),
        )
        assert lint_spec(spec) == []

    def test_default_argument_resolution(self):
        spec = TaskSpec(
            name="t",
            writes={GRID: span(0, 8)},
            body=(lambda ctx, g=GRID: ctx.fragment(g).scatter(span(0, 8), 1)),
        )
        assert lint_spec(spec) == []

    def test_cost_stub_skipped(self):
        # bodies never touching ctx (virtual-mode cost stubs) are exempt,
        # whatever they declare
        spec = TaskSpec(
            name="t",
            reads={GRID: span(0, 8)},
            body=(lambda ctx, v=3: v),
        )
        assert lint_spec(spec) == []

    def test_builtin_body_reports_no_source(self):
        spec = TaskSpec(name="t", body=len, writes={GRID: span(0, 4)})
        findings = lint_spec(spec)
        assert checks(findings) == ["lint.no_source"]
        assert findings[0].severity == "info"

    def test_unresolvable_argument_reports_info(self):
        def body(ctx):
            return ctx.fragment(pick_item()).gather(span(0, 4))

        def pick_item():
            return GRID

        spec = TaskSpec(name="t", reads={GRID: span(0, 4)}, body=body)
        findings = lint_spec(spec)
        assert checks(findings) == ["lint.unresolvable"]
        assert "pick_item()" in findings[0].message

    def test_origin_body_preferred_over_wrapper(self):
        def kernel(ctx, box):
            ctx.fragment(OTHER).scatter(span(0, 2, OTHER), 0.0)

        def wrapper(ctx):
            return kernel(ctx, None)

        spec = TaskSpec(
            name="t",
            writes={GRID: span(0, 8)},
            body=wrapper,
            origin_body=kernel,
        )
        found = checks(lint_spec(spec))
        assert "lint.undeclared_item" in found


class TestLintKey:
    def test_same_kernel_same_items_share_key(self):
        def kernel(ctx, box):
            return ctx.fragment(GRID).gather(box)

        a = TaskSpec(name="a", reads={GRID: span(0, 4)}, origin_body=kernel)
        b = TaskSpec(name="b", reads={GRID: span(4, 8)}, origin_body=kernel)
        assert lint_key(a) == lint_key(b)

    def test_different_items_differ(self):
        def kernel(ctx, box):
            return ctx.fragment(GRID).gather(box)

        a = TaskSpec(name="a", reads={GRID: span(0, 4)}, origin_body=kernel)
        b = TaskSpec(name="b", reads={OTHER: span(0, 4, OTHER)}, origin_body=kernel)
        assert lint_key(a) != lint_key(b)

    def test_unlintable_is_none(self):
        assert lint_key(TaskSpec(name="t")) is None


class TestPforIntegration:
    def test_undeclared_access_in_point_kernel_caught(self):
        task = pfor_task(
            (0,),
            (16,),
            point_kernel=lambda ctx, coord: ctx.fragment(GRID).get(coord),
            writes=lambda box: {OTHER: OTHER.box(box.lo, box.hi)},
            granularity=4.0,
        )
        report = analyze_task(task, AnalysisConfig(max_depth=2))
        assert "lint.undeclared_item" in {f.check for f in report.errors}

    def test_declared_point_kernel_clean(self):
        task = pfor_task(
            (0,),
            (16,),
            point_kernel=lambda ctx, coord: ctx.fragment(GRID).get(coord),
            reads=lambda box: {GRID: GRID.box(box.lo, box.hi)},
            granularity=4.0,
        )
        report = analyze_task(task, AnalysisConfig(max_depth=2))
        assert report.clean
        # one shared kernel: linted once despite several leaves
        assert report.bodies_linted >= 1


# -- kernel source resolution ---------------------------------------------------


def _walk_based_function_node(fn, module):
    """The pre-index ``_function_node`` search, kept verbatim as oracle."""
    code = fn.__code__
    lineno = code.co_firstlineno
    name = getattr(fn, "__name__", "<lambda>")
    candidates = []
    for n in ast.walk(module):
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)):
            start = min(
                [n.lineno] + [d.lineno for d in n.decorator_list]
            )
            if start == lineno and n.name == name:
                candidates.append(n)
        elif isinstance(n, ast.Lambda) and n.lineno == lineno:
            if len(n.args.posonlyargs + n.args.args) == code.co_argcount:
                candidates.append(n)
    return candidates


def _functions_of(path):
    """A function object per def/lambda code object compiled from ``path``."""
    with open(path, encoding="utf-8") as handle:
        pending = [compile(handle.read(), str(path), "exec")]
    while pending:
        code = pending.pop()
        pending.extend(
            const for const in code.co_consts if isinstance(const, types.CodeType)
        )
        if code.co_name == "<lambda>" or not code.co_name.startswith("<"):
            cells = tuple(types.CellType() for _ in code.co_freevars)
            yield types.FunctionType(code, {}, None, None, cells)


SRC = pathlib.Path(lint.__file__).resolve().parents[1]
KERNEL_SOURCES = [
    SRC / "service" / "catalog.py",
    *sorted((SRC / "apps").glob("[!_]*.py")),
    *sorted(EXAMPLES_DIR.glob("*.py")),
    pathlib.Path(__file__),  # decorated and nested defs, call-site lambdas
]


def _decorate(fn):
    return fn


@_decorate
@_decorate
def _decorated_kernel(ctx, box):
    def nested(ctx, box):
        return ctx.fragment(GRID).gather(box)

    return nested(ctx, box)


class TestFunctionNodeIndex:
    @pytest.mark.parametrize(
        "path", KERNEL_SOURCES, ids=[p.name for p in KERNEL_SOURCES]
    )
    def test_index_finds_the_node_the_module_walk_found(self, path):
        module = lint._source_file(str(path)).module
        found = 0
        for fn in _functions_of(path):
            expected = _walk_based_function_node(fn, module)
            node, problem = lint._function_node(fn)
            if len(expected) == 1:
                assert node is expected[0], (fn, problem)
                found += 1
            elif not expected:
                assert node is None and "no def" in problem
            else:
                # the walk silently took the first of several; the index
                # must name one of them or say it cannot tell
                assert node in expected or "ambiguous" in problem
        assert found

    def test_decorated_def_is_found_at_its_first_decorator_line(self):
        node, _ = lint._function_node(_decorated_kernel)
        assert node.name == "_decorated_kernel"
        assert node.lineno == _decorated_kernel.__code__.co_firstlineno + 2

    def test_same_line_same_arity_lambdas_are_told_apart(self):
        # fmt: off
        first, second = (lambda ctx, b: ctx.fragment(GRID).gather(b), lambda ctx, b: ctx.fragment(OTHER).gather(b))  # noqa: E501
        # fmt: on
        declared = {"reads": {GRID: span(0, 8)}}
        assert lint_spec(TaskSpec(name="t", body=first, **declared)) == []
        # the walk linted ``second`` as ``first`` and accepted it
        assert "lint.undeclared_item" in checks(
            lint_spec(TaskSpec(name="t", body=second, **declared))
        )

    def test_nested_same_line_lambdas_resolve_to_their_own_body(self):
        outer = lambda ctx, b: (lambda c, d: c.fragment(OTHER).gather(d))  # noqa: E731,E501
        outer_node, _ = lint._function_node(outer)
        inner_node, _ = lint._function_node(outer(None, None))
        assert outer_node.body is inner_node

    def test_unresolvable_ambiguity_is_reported_not_guessed(self, monkeypatch):
        # what an interpreter without ``code.co_positions`` (3.10) sees
        monkeypatch.setattr(
            lint, "_holding_instructions", lambda code, candidates: candidates
        )
        pair = (lambda ctx, b: ctx.fragment(GRID).gather(b), lambda ctx, b: ctx.fragment(OTHER).gather(b))  # noqa: E501
        findings = lint_spec(
            TaskSpec(name="t", body=pair[1], reads={GRID: span(0, 8)})
        )
        assert checks(findings) == ["lint.no_source"]
        assert findings[0].severity == "info"
        assert "ambiguous def at" in findings[0].message

    def test_changed_file_is_reparsed(self, tmp_path):
        path = tmp_path / "embedder.py"

        def load(text):
            path.write_text(text)
            scope = {}
            exec(compile(text, str(path), "exec"), scope)
            return scope["kernel"]

        old = load("def kernel(ctx):\n    return 1\n")
        assert lint._function_node(old)[0].name == "kernel"
        # same path, the def moved down a line: a stale AST has no def there
        new = load("import os\ndef kernel(ctx):\n    return 22\n")
        node, problem = lint._function_node(new)
        assert node is not None, problem
        assert node.lineno == 2 and node.body[0].value.value == 22
