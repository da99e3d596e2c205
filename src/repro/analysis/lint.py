"""AST lint over leaf-task bodies: declared vs. actual ``ctx`` accesses.

The §2.5 guarantees only cover what a task *declared* (Def. 2.7); the
data-item manager stages and locks exactly the declared regions, so a
body reaching for anything else is a latent out-of-requirement access —
the defect the PR-3 sentinel catches dynamically, caught here before any
simulation event runs.  The pass parses the user kernel's source
(``inspect.getsource`` + ``ast``), follows ``ctx.fragment(item)`` calls
(including aliases like ``f = ctx.fragment(grid)``), classifies fragment
methods as reads or writes, resolves the item names through the kernel's
closure and globals (``inspect.getclosurevars``), and compares against
the task's ``reads``/``writes``:

* an item touched but declared nowhere — under-declaration, error
  (``lint.undeclared_item``);
* a write-classified method on an item declared read-only — error
  (``lint.undeclared_write``);
* a read-classified method on an item declared write-only — warning
  (``lint.undeclared_read``: the manager only guarantees *presence* of
  the write region, not meaningful values);
* an item declared but never touched — warning
  (``lint.unused_requirement``: correct but serializes the scheduler
  against phantom conflicts, i.e. lost parallelism).

The lint is best-effort and honest about it: kernels whose source or
item references cannot be resolved produce ``info`` findings
(``lint.no_source`` / ``lint.unresolvable``) and suppress the
over-declaration check rather than guessing.  Bodies that never mention
their context parameter (pure cost stubs, ubiquitous in virtual-mode
benchmarks) are skipped entirely.
"""

from __future__ import annotations

import ast
import inspect
import os
import types
from dataclasses import dataclass, field

from repro.analysis.findings import ERROR, INFO, WARNING, Finding
from repro.items.base import DataItem
from repro.runtime.tasks import TaskSpec

#: fragment methods that mutate element values
WRITE_METHODS = frozenset({"scatter", "set", "put", "delete", "fill"})
#: fragment methods that only observe element values
READ_METHODS = frozenset(
    {
        "gather",
        "get",
        "neighbors",
        "degree",
        "local_items",
        "local_size",
        "local_vertices",
        "can_visit",
    }
)

_FunctionNode = ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda


@dataclass
class BodyAccesses:
    """What one kernel body does with its execution context."""

    #: the body never references its ctx parameter (pure cost stub)
    ignores_ctx: bool = False
    #: items read (or touched via an unclassified method)
    reads: set[DataItem] = field(default_factory=set)
    #: items written
    writes: set[DataItem] = field(default_factory=set)
    #: items touched in any way
    touched: set[DataItem] = field(default_factory=set)
    #: source snippets of fragment() arguments that did not resolve
    unresolved: list[str] = field(default_factory=list)
    #: ctx escaped into a helper call / container — accesses are opaque
    opaque: bool = False


def lint_spec(spec: TaskSpec, task_path: str | None = None) -> list[Finding]:
    """Lint one task's kernel against its declared requirements.

    Returns an empty list (and no lint happens) when the task has no
    resolvable Python kernel.  ``task_path`` is the provenance string
    used in findings; defaults to the task name.
    """
    path = task_path if task_path is not None else spec.name
    fn = spec.origin_body or spec.body
    if fn is None:
        return []
    node, problem = _function_node(fn)
    if node is None:
        return [
            Finding(
                check="lint.no_source",
                severity=INFO,
                message=f"kernel source unavailable ({problem}); body not linted",
                task=path,
            )
        ]
    accesses = extract_accesses(node, _resolver(fn))
    if accesses.ignores_ctx:
        return []
    return _compare(spec, path, accesses)


def extract_accesses(node: _FunctionNode, resolve) -> BodyAccesses:
    """Walk a kernel's AST and classify its ``ctx`` accesses.

    ``resolve`` maps a variable name to its runtime value (closure cell,
    global, default) or raises ``KeyError``.
    """
    out = BodyAccesses()
    args = node.args
    positional = args.posonlyargs + args.args
    if not positional:
        out.ignores_ctx = True
        return out
    ctx_name = positional[0].arg
    body = node.body if isinstance(node.body, list) else [node.body]
    parents: dict[ast.AST, ast.AST] = {}
    nodes: list[ast.AST] = []
    for stmt in body:
        for parent in ast.walk(stmt):
            nodes.append(parent)
            for child in ast.iter_child_nodes(parent):
                parents[child] = parent

    if not any(
        isinstance(n, ast.Name) and n.id == ctx_name for n in nodes
    ):
        out.ignores_ctx = True
        return out

    def is_ctx_fragment_call(n: ast.AST) -> bool:
        return (
            isinstance(n, ast.Call)
            and isinstance(n.func, ast.Attribute)
            and n.func.attr == "fragment"
            and isinstance(n.func.value, ast.Name)
            and n.func.value.id == ctx_name
        )

    def resolve_item(arg: ast.AST) -> DataItem | None:
        if isinstance(arg, ast.Name):
            try:
                value = resolve(arg.id)
            except KeyError:
                value = None
            if isinstance(value, DataItem):
                return value
        out.unresolved.append(ast.unparse(arg))
        return None

    def record(item: DataItem | None, method: str | None) -> None:
        if item is None:
            return
        out.touched.add(item)
        if method in WRITE_METHODS:
            out.writes.add(item)
        elif method in READ_METHODS:
            out.reads.add(item)
        elif method is not None:
            # unknown fragment method: count as a read-side touch so the
            # under-declaration check still applies
            out.reads.add(item)

    def method_of(call: ast.Call) -> str | None:
        """Method name when ``call`` is the receiver of ``call.m(...)``."""
        attr = parents.get(call)
        if not isinstance(attr, ast.Attribute):
            return None
        outer = parents.get(attr)
        if isinstance(outer, ast.Call) and outer.func is attr:
            return attr.attr
        return None

    #: alias name -> item, from ``f = ctx.fragment(item)``
    aliases: dict[str, DataItem] = {}
    for n in nodes:
        if not is_ctx_fragment_call(n):
            continue
        item = resolve_item(n.args[0]) if n.args else None
        parent = parents.get(n)
        if (
            isinstance(parent, ast.Assign)
            and parent.value is n
            and len(parent.targets) == 1
            and isinstance(parent.targets[0], ast.Name)
        ):
            if item is not None:
                aliases[parent.targets[0].id] = item
            record(item, None)
        else:
            record(item, method_of(n))

    for n in nodes:
        if (
            isinstance(n, ast.Attribute)
            and isinstance(n.value, ast.Name)
            and n.value.id in aliases
        ):
            outer = parents.get(n)
            method = (
                n.attr
                if isinstance(outer, ast.Call) and outer.func is n
                else None
            )
            record(aliases[n.value.id], method)

    # ctx escaping into anything but a ctx.<attr> access makes the body
    # opaque — e.g. ``helper(ctx)`` may touch arbitrary fragments
    for n in nodes:
        if isinstance(n, ast.Name) and n.id == ctx_name:
            parent = parents.get(n)
            if not (isinstance(parent, ast.Attribute) and parent.value is n):
                out.opaque = True
                break
    return out


def _compare(
    spec: TaskSpec, path: str, accesses: BodyAccesses
) -> list[Finding]:
    findings: list[Finding] = []
    declared_reads = {
        item for item, region in spec.reads.items() if not region.is_empty()
    }
    declared_writes = {
        item for item, region in spec.writes.items() if not region.is_empty()
    }
    declared = declared_reads | declared_writes

    for item in sorted(accesses.touched, key=lambda i: i.name):
        if item not in declared:
            findings.append(
                Finding(
                    check="lint.undeclared_item",
                    severity=ERROR,
                    message=(
                        "body accesses an item absent from the task's "
                        "reads and writes (under-declaration)"
                    ),
                    task=path,
                    item=item.name,
                )
            )
            continue
        if item in accesses.writes and item not in declared_writes:
            findings.append(
                Finding(
                    check="lint.undeclared_write",
                    severity=ERROR,
                    message=(
                        "body writes an item declared read-only "
                        "(under-declared write)"
                    ),
                    task=path,
                    item=item.name,
                )
            )
        if (
            item in accesses.reads
            and item not in declared_reads
            and item in declared_writes
        ):
            findings.append(
                Finding(
                    check="lint.undeclared_read",
                    severity=WARNING,
                    message=(
                        "body reads an item declared write-only; only "
                        "presence of the write region is guaranteed"
                    ),
                    task=path,
                    item=item.name,
                )
            )

    for snippet in accesses.unresolved:
        findings.append(
            Finding(
                check="lint.unresolvable",
                severity=INFO,
                message=(
                    f"fragment argument {snippet!r} could not be resolved "
                    "to a data item; related checks skipped"
                ),
                task=path,
            )
        )

    # over-declaration is only judged when the picture is complete
    if not accesses.opaque and not accesses.unresolved:
        for item in sorted(declared - accesses.touched, key=lambda i: i.name):
            findings.append(
                Finding(
                    check="lint.unused_requirement",
                    severity=WARNING,
                    message=(
                        "requirement declared but the body never touches "
                        "this item (over-declaration costs parallelism)"
                    ),
                    task=path,
                    item=item.name,
                )
            )
    return findings


# -- kernel source resolution ----------------------------------------------------


def _function_node(fn) -> tuple[_FunctionNode | None, str]:
    """Locate ``fn``'s def/lambda node in its source file's AST.

    Parsing the whole file (cached) instead of ``inspect.getsource``'s
    block keeps lambdas embedded in call expressions parseable — their
    snippet (``body=lambda ctx, box: ...``) is not a valid statement.
    """
    code = getattr(fn, "__code__", None)
    if code is None:
        return None, "not a plain Python function"
    try:
        filename = inspect.getsourcefile(fn)
    except TypeError:
        filename = None
    if filename is None:
        return None, "no source file"
    source = _source_file(filename)
    if source is None or source.module is None:
        return None, f"could not parse {filename!r}"
    lineno = code.co_firstlineno
    name = getattr(fn, "__name__", "<lambda>")
    at_line = source.defs.get(lineno, ())
    candidates: list[_FunctionNode]
    if code.co_name == "<lambda>":
        candidates = [
            n
            for n in at_line
            if isinstance(n, ast.Lambda)
            and len(n.args.posonlyargs + n.args.args) == code.co_argcount
        ]
    else:
        candidates = [
            n
            for n in at_line
            if not isinstance(n, ast.Lambda) and n.name == name
        ]
    if len(candidates) > 1:
        candidates = _holding_instructions(code, candidates)
    if not candidates:
        return None, f"no def at {filename}:{lineno}"
    if len(candidates) > 1:
        return None, f"ambiguous def at {filename}:{lineno}"
    return candidates[0], ""


def _holding_instructions(
    code: types.CodeType, candidates: list[_FunctionNode]
) -> list[_FunctionNode]:
    """Narrow same-line candidates to the one whose body ``code`` compiles.

    Several lambdas of equal arity can share a source line; the columns
    of ``code``'s instructions (``co_positions``, Python >= 3.11) lie
    inside exactly one candidate's body — or, for a lambda nested in
    another candidate, inside the enclosing bodies too, so the innermost
    holder wins.  Without column data the candidates come back as they
    are and the caller reports the ambiguity instead of guessing.
    """
    positions = getattr(code, "co_positions", None)
    if positions is None:
        return candidates
    spots = [
        (line, col)
        for line, _end_line, col, _end_col in positions()
        if line is not None and col is not None
    ]

    def body_span(
        node: _FunctionNode,
    ) -> tuple[tuple[int, int], tuple[int, int]]:
        body = node.body if isinstance(node.body, list) else [node.body]
        first, last = body[0], body[-1]
        # ``ast.parse`` sets end positions on every statement and expression
        assert last.end_lineno is not None and last.end_col_offset is not None
        return (
            (first.lineno, first.col_offset),
            (last.end_lineno, last.end_col_offset),
        )

    holders = [
        node
        for node, (start, end) in ((n, body_span(n)) for n in candidates)
        if any(start <= spot < end for spot in spots)
    ]
    # of nested holders the innermost body starts last
    return [max(holders, key=body_span)] if holders else candidates


@dataclass
class _SourceFile:
    """One parsed source file and its def index, valid while ``stamp`` is."""

    #: ``(st_mtime_ns, st_size)`` of the file when it was parsed
    stamp: tuple[int, int]
    #: None: unreadable or unparseable at this stamp
    module: ast.Module | None
    #: first line (decorators included: that is ``co_firstlineno``) ->
    #: def/lambda nodes starting there, in ``ast.walk`` order
    defs: dict[int, list[_FunctionNode]] = field(default_factory=dict)


#: source file -> its parse.  Lint is called once per distinct leaf
#: kernel, thousands of times in a service's life, against a handful of
#: files: each is parsed and indexed once, and again only when its stamp
#: changes — a long-lived service that reloads an embedder module must
#: not lint the new kernels against the old AST
_SOURCES: dict[str, _SourceFile] = {}


def _source_file(filename: str) -> _SourceFile | None:
    try:
        status = os.stat(filename)
    except OSError:
        return None
    stamp = (status.st_mtime_ns, status.st_size)
    source = _SOURCES.get(filename)
    if source is None or source.stamp != stamp:
        source = _SOURCES[filename] = _parse(filename, stamp)
    return source


def _parse(filename: str, stamp: tuple[int, int]) -> _SourceFile:
    try:
        with open(filename, "r", encoding="utf-8") as handle:
            module = ast.parse(handle.read())
    except (OSError, SyntaxError, ValueError):
        return _SourceFile(stamp, None)
    source = _SourceFile(stamp, module)
    for n in ast.walk(module):
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([n.lineno] + [d.lineno for d in n.decorator_list])
        elif isinstance(n, ast.Lambda):
            first = n.lineno
        else:
            continue
        source.defs.setdefault(first, []).append(n)
    return source


def _resolver(fn):
    """Name -> value lookup through the kernel's closure, globals, defaults."""
    try:
        closure = inspect.getclosurevars(fn)
        namespaces = [dict(closure.nonlocals), dict(closure.globals)]
    except (TypeError, ValueError):
        namespaces = [getattr(fn, "__globals__", {})]
    defaults: dict[str, object] = {}
    try:
        signature = inspect.signature(fn)
        for pname, parameter in signature.parameters.items():
            if parameter.default is not inspect.Parameter.empty:
                defaults[pname] = parameter.default
    except (TypeError, ValueError):
        pass
    namespaces.append(defaults)

    def resolve(name: str):
        for namespace in namespaces:
            if name in namespace:
                return namespace[name]
        raise KeyError(name)

    return resolve


def lint_key(spec: TaskSpec) -> tuple | None:
    """Deduplication key: same kernel code + same declared item sets.

    Thousands of pfor leaves share one kernel and one item vocabulary;
    linting the first is linting them all.  ``None`` means unlintable
    (no kernel) — callers skip those without charging the dedupe set.
    """
    fn = spec.origin_body or spec.body
    code = getattr(fn, "__code__", None)
    if code is None:
        return None
    return (
        code,
        tuple(sorted(i.name for i in spec.reads)),
        tuple(sorted(i.name for i in spec.writes)),
    )
