"""Per-layer host-time attribution, installed from outside the program.

:class:`Tracer` replaces the public functions of each layer (see
:data:`TARGETS`) with timing wrappers for the duration of one traced
pass and puts the originals back afterwards; nothing under ``src/`` is
edited or aware of it.

A *span* is (layer, function, start, end, parent).  The ~10⁶ fine-grained
spans of a repetition are never stored: each wrapper folds its span into
an in-memory cell keyed by (layer, function, parent layer) holding the
call count, the *self* time (duration minus the time covered by child
spans) and the inclusive time.  Coarse spans — one per :meth:`Tracer.section`
— are kept individually with their own cell table, so a trace file reads
workload → set-up / rep / verify → per-layer cells.

Attribution rules:

* a wrapped function belongs to the layer that owns its module
  (:func:`layer_of_module`);
* spans open at layer boundaries: a wrapped call made from inside a span
  of its own layer (``RegionKernel.intersect`` interning its result) is
  counted but not timed separately, its time stays in the enclosing span
  — per-layer sums are unaffected, and the common nested case costs no
  clock reads;
* generator functions are timed *per resume*: the wrapper returns a proxy
  whose ``send``/``throw``/``close`` each open and close one span, so a
  coroutine parked on a future accrues nothing;
* callables handed to ``SimEngine.schedule/schedule_at`` and
  ``Future.add_callback`` and generators handed to ``SimEngine.spawn``
  are wrapped on the way in and attributed to the layer owning *their*
  module — ``sim.engine`` self time is therefore queue work, not everyone
  else's callbacks;
* whatever runs directly under a section and inside no wrapper is the
  section's own self time, charged to the layer the section names.

Because every span's self time excludes exactly what its children cover,
the self times of one section sum to that section's wall by construction;
``run.py`` asserts it to catch a broken wrapper.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

#: layer names, in report order; the last one collects callables whose
#: module no layer owns (the *unattributed* share)
LAYERS = (
    "sim.engine",
    "sim.network",
    "sim.node",
    "regions",
    "runtime.index",
    "runtime.scheduler",
    "runtime.data_manager",
    "runtime.locks",
    "runtime.transfers",
    "runtime.process",
    "runtime.balancer",
    "runtime.elastic",
    "runtime.resilience",
    "placement",
    "analysis",
    "service",
    "mpi",
    "apps",
    "other",
)
OTHER = LAYERS.index("other")
ENGINE = LAYERS.index("sim.engine")

#: module prefix -> layer (longest prefix wins).  ``api`` and ``items``
#: are folded into ``apps``; the runtime façade, task objects and job
#: accounting into ``runtime.process``; ``model``, ``verify``, the
#: sentinel and the lifecycle tracer are off every measured path and fall
#: through to ``other``.
_MODULE_LAYERS = (
    ("repro.sim.engine", "sim.engine"),
    ("repro.sim.network", "sim.network"),
    ("repro.sim.topology", "sim.network"),
    ("repro.sim.node", "sim.node"),
    ("repro.sim.accelerator", "sim.node"),
    ("repro.sim.cluster", "sim.node"),
    ("repro.regions", "regions"),
    ("repro.runtime.index", "runtime.index"),
    ("repro.runtime.scheduler", "runtime.scheduler"),
    ("repro.runtime.policies", "runtime.scheduler"),
    ("repro.runtime.data_manager", "runtime.data_manager"),
    ("repro.runtime.locks", "runtime.locks"),
    ("repro.runtime.transfers", "runtime.transfers"),
    ("repro.runtime.process", "runtime.process"),
    ("repro.runtime.runtime", "runtime.process"),
    ("repro.runtime.tasks", "runtime.process"),
    ("repro.runtime.jobs", "runtime.process"),
    ("repro.runtime.balancer", "runtime.balancer"),
    ("repro.runtime.elastic", "runtime.elastic"),
    ("repro.runtime.resilience", "runtime.resilience"),
    ("repro.placement", "placement"),
    ("repro.analysis", "analysis"),
    ("repro.service", "service"),
    ("repro.mpi", "mpi"),
    ("repro.apps", "apps"),
    ("repro.api", "apps"),
    ("repro.items", "apps"),
)

#: "module" or "module:Class" -> public functions wrapped during a pass
TARGETS: dict[str, tuple[str, ...]] = {
    "repro.sim.engine:SimEngine": (
        "run", "schedule", "schedule_at", "spawn", "all_of",
    ),
    "repro.sim.engine:Future": ("add_callback",),
    "repro.sim.network:Network": ("send", "send_bulk"),
    "repro.sim.node:SimNode": ("execute", "execute_parallel"),
    "repro.regions.kernel:RegionKernel": (
        "intern", "union", "intersect", "difference", "covers", "overlaps",
        "is_empty",
    ),
    "repro.runtime.index:HierarchicalIndex": (
        "lookup", "lookup_cached", "update_ownership", "covering_process",
        "grow",
    ),
    "repro.runtime.scheduler:Scheduler": ("assign", "assign_batch"),
    "repro.runtime.data_manager:DataItemManager": (
        "ensure_for_task", "prefetch_for_task", "allocate", "export_owned",
        "import_owned", "insert_replica", "drop_replica", "requirements_hold",
    ),
    "repro.runtime.locks:LockTable": ("try_acquire", "release", "conflicts"),
    "repro.runtime.transfers:TransferPlan": (
        "plan", "record_moved", "record_hit", "finish",
    ),
    "repro.runtime.transfers:ReplicaCache": (
        "note_fetched", "note_dropped", "record_hit", "record_miss",
    ),
    "repro.runtime.transfers": ("plan_for_task",),
    "repro.runtime.process:RuntimeProcess": ("enqueue",),
    "repro.runtime.runtime:AllScaleRuntime": (
        "submit", "register_item", "register_write_intent",
        "write_intent_blocked", "invalidate_replicas",
    ),
    "repro.runtime.balancer:LoadBalancer": (
        "start", "stop", "measured_load", "rebalance_once",
    ),
    "repro.runtime.elastic": ("scale_out", "drain", "failure_storm"),
    "repro.runtime.resilience:ResilienceManager": (
        "checkpoint", "recover_lost_data", "restore",
    ),
    "repro.placement.planner": ("plan_placement",),
    "repro.placement.extract": ("extract_program",),
    "repro.analysis.program": ("analyze_program", "analyze_task"),
    "repro.analysis.expansion": ("expand_task",),
    "repro.service.core:ServiceCore": ("submit", "step"),
    "repro.mpi.comm:Communicator": (
        "isend", "recv", "sendrecv", "compute", "compute_seconds", "barrier",
        "bcast", "allreduce", "alltoall",
    ),
    "repro.mpi.program": ("run_spmd",),
}

#: wrapped functions that receive a callable (positional index after
#: ``self``, keyword name) to be re-attributed to its own layer
_CALLBACK_ARGS = {
    ("repro.sim.engine:SimEngine", "schedule"): (2, "fn"),
    ("repro.sim.engine:SimEngine", "schedule_at"): (2, "fn"),
    ("repro.sim.engine:Future", "add_callback"): (1, "fn"),
}
_SPAWN = ("repro.sim.engine:SimEngine", "spawn")
#: re-attributes its callable but opens no span of its own: appending to a
#: future's callback list is not work worth two clock reads per ``yield``
_UNTIMED = {("repro.sim.engine:Future", "add_callback")}

#: classes whose instances a pass collects, so per-instance public
#: counters (index lookups/hops) can be summed over every runtime a
#: workload creates (``service_mix`` builds one per job and keeps none)
TRACKED_CLASSES = ("repro.runtime.index:HierarchicalIndex",)

#: wrapped function -> (observation name, value of one return) summed
#: into :attr:`Section.observed`
_OBSERVERS: dict[tuple[str, str], tuple[str, Callable[[Any], float]]] = {
    ("repro.analysis.expansion", "expand_task"): (
        "analysis.tasks_expanded",
        lambda result: float(result[1]),
    ),
}


@functools.lru_cache(maxsize=None)
def layer_of_module(module: str | None) -> int:
    """Index into :data:`LAYERS` of the layer owning ``module``."""
    best = ""
    layer = OTHER
    for prefix, name in _MODULE_LAYERS:
        if module is not None and (
            module == prefix or module.startswith(prefix + ".")
        ):
            if len(prefix) > len(best):
                best, layer = prefix, LAYERS.index(name)
    return layer


def _resolve(target: str) -> tuple[Any, str]:
    """``"module:Class"`` -> (class, module name); ``"module"`` -> (module, name)."""
    module_name, _, class_name = target.partition(":")
    module = importlib.import_module(module_name)
    return (getattr(module, class_name) if class_name else module), module_name


@dataclass
class Section:
    """One coarse span with the fine-grained cells recorded under it."""

    name: str
    #: layer charged with the section's own (unwrapped) time
    layer: str
    start: float
    end: float = 0.0
    #: (layer, function, parent layer) -> [calls, self seconds, inclusive seconds]
    cells: dict[tuple[str, str, str], list[float]] = field(default_factory=dict)
    #: named sums of wrapped functions' return values
    observed: dict[str, float] = field(default_factory=dict)
    #: tracked class name -> instances constructed during the section
    instances: dict[str, list[Any]] = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return self.end - self.start

    def layer_self(self) -> dict[str, float]:
        """Self seconds per layer (every layer present, zeros included)."""
        out = dict.fromkeys(LAYERS, 0.0)
        for (layer, _fn, _parent), (_calls, self_s, _total) in self.cells.items():
            out[layer] += self_s
        return out

    def layer_calls(self) -> dict[str, int]:
        out = dict.fromkeys(LAYERS, 0)
        for (layer, function, _parent), (calls, _s, _t) in self.cells.items():
            if not function.startswith("<"):  # the section's own root span
                out[layer] += int(calls)
        return out

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "layer": self.layer,
            "start": self.start,
            "end": self.end,
            "wall_s": self.wall,
            "layer_self_s": self.layer_self(),
            "layer_calls": self.layer_calls(),
            "observed": dict(self.observed),
            "cells": [
                {
                    "layer": layer,
                    "function": function,
                    "parent_layer": parent,
                    "calls": int(calls),
                    "self_s": self_s,
                    "total_s": total_s,
                }
                for (layer, function, parent), (calls, self_s, total_s) in sorted(
                    self.cells.items(), key=lambda kv: -kv[1][1]
                )
            ],
        }


class TracedGenerator:
    """Generator proxy that opens one span per resume.

    ``run`` is a :meth:`Tracer._runner` for the generator's (layer, cells).
    """

    __slots__ = ("_gen", "_run")

    def __init__(self, gen, run: Callable) -> None:
        self._gen = gen
        self._run = run

    def __iter__(self):
        return self

    def __next__(self):
        return self._run(self._gen.send, None)

    def send(self, value):
        return self._run(self._gen.send, value)

    def throw(self, *exc_info):
        return self._run(self._gen.throw, *exc_info)

    def close(self) -> None:
        self._run(self._gen.close)


class Tracer:
    """Installs, drives and removes the layer wrappers (see module doc)."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        #: the innermost open span: [its layer index, seconds its finished
        #: children covered].  Spans nest strictly (a generator resume is a
        #: complete call), so each wrapper saves and restores the pair on
        #: its own Python frame instead of pushing onto an explicit stack.
        self._state: list[float] = [OTHER, 0.0]
        #: (layer index, function) -> per-parent-layer [calls, self, total]
        self._table: dict[tuple[int, str], list[list[float]]] = {}
        #: code object -> the runner shared by every callback or generator
        #: with that code (False: leave the callable unwrapped)
        self._by_code: dict[Any, Any] = {}
        #: (owner, attribute, had own attribute, original) in install order
        self._patches: list[tuple[Any, str, bool, Any]] = []
        self._observed: dict[str, float] = {}
        self._instances: dict[str, list[Any]] = {}
        self._section: Section | None = None
        #: finished sections, in completion order
        self.sections: list[Section] = []

    # -- wrappers -------------------------------------------------------------------

    def _cells(self, layer: int, function: str) -> list[list[float]]:
        key = (layer, function)
        cells = self._table.get(key)
        if cells is None:
            cells = self._table[key] = [[0, 0.0, 0.0] for _ in LAYERS]
        return cells

    def _timed(self, fn: Callable, layer: int, cells, adapt=None) -> Callable:
        """``fn`` inside a span: two clock reads and a few list operations.

        ``adapt(args, kwargs) -> args`` rewrites the arguments inside the
        same frame (the engine's scheduling calls wrap their callable).
        """
        state = self._state
        clock = self._clock

        def traced(*args, **kwargs):
            if adapt is not None:
                args = adapt(args, kwargs)
            parent = state[0]
            if parent == layer:
                # no layer boundary crossed: the time stays in the enclosing
                # span of the same layer, only the call is counted
                cells[layer][0] += 1
                return fn(*args, **kwargs)
            outer = state[1]
            state[0] = layer
            state[1] = 0.0
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                cell = cells[parent]
                cell[0] += 1
                cell[1] += elapsed - state[1]
                cell[2] += elapsed
                state[0] = parent
                state[1] = outer + elapsed

        return traced

    def wrap(self, fn: Callable, layer: int, name: str, adapt=None) -> Callable:
        """Timing wrapper for ``fn``; generator functions are timed per resume."""
        cells = self._cells(layer, name)
        if inspect.isgeneratorfunction(fn):
            run = self._runner(layer, cells)

            def traced(*args, **kwargs):
                return TracedGenerator(fn(*args, **kwargs), run)

            return traced
        return self._timed(fn, layer, cells, adapt)

    def _runner(self, layer: int, cells) -> Callable:
        """``run(fn, *args)``: like :meth:`_timed`, with the callable passed
        in, so one runner serves every callback or generator resume that
        shares a code object, and wrapping a callback costs a
        ``functools.partial``, not a closure.  (The span logic is spelled
        out twice on purpose: routing the ~10⁶ static wrapper calls of a
        repetition through a runner would add a frame to each.)"""
        state = self._state
        clock = self._clock

        def run(fn, *args):
            parent = state[0]
            if parent == layer:
                cells[layer][0] += 1
                return fn(*args)
            outer = state[1]
            state[0] = layer
            state[1] = 0.0
            start = clock()
            try:
                return fn(*args)
            finally:
                elapsed = clock() - start
                cell = cells[parent]
                cell[0] += 1
                cell[1] += elapsed - state[1]
                cell[2] += elapsed
                state[0] = parent
                state[1] = outer + elapsed

        return run

    def _describe(self, target: Any) -> tuple[int, list]:
        """(layer, cells) of a callback or generator, from its module."""
        while isinstance(target, functools.partial):
            target = target.func
        frame = getattr(target, "gi_frame", None)
        if frame is not None:
            module = frame.f_globals.get("__name__")
        else:
            module = (
                getattr(target, "__module__", None) or type(target).__module__
            )
        name = getattr(target, "__qualname__", type(target).__name__)
        layer = layer_of_module(module)
        return layer, self._cells(layer, name)

    def wrap_callback(self, fn: Callable) -> Callable:
        """Attribute a scheduled callable to the layer owning its module.

        The engine's own trampolines (``_step_process`` resumptions,
        ``all_of`` joins) are handed back unwrapped: they run a few
        bytecodes before entering a traced generator, nearly always from
        inside ``SimEngine.run`` where a span would be elided anyway, and
        one object per event less matters to the collector.
        """
        code = getattr(fn, "__code__", None)
        run = self._by_code.get(code)
        if run is None:
            layer, cells = self._describe(fn)
            run = self._runner(layer, cells) if layer != ENGINE else False
            if code is not None:
                self._by_code[code] = run
        return functools.partial(run, fn) if run else fn

    def wrap_generator(self, gen):
        """Attribute a spawned generator's resumes to its module's layer."""
        if isinstance(gen, TracedGenerator):
            return gen
        code = getattr(gen, "gi_code", None)
        run = self._by_code.get(code)
        if run is None:
            run = self._by_code[code] = self._runner(*self._describe(gen))
        return TracedGenerator(gen, run)

    def _wrap_target(self, target: str, attr: str, fn: Callable, module: str):
        layer = layer_of_module(module)
        owner_name = target.partition(":")[2]
        name = f"{owner_name}.{attr}" if owner_name else attr
        adapt = None
        if (target, attr) in _CALLBACK_ARGS:
            index, keyword = _CALLBACK_ARGS[(target, attr)]
            wrap_callback = self.wrap_callback

            def adapt(args, kwargs):
                if len(args) > index:
                    return (
                        *args[:index],
                        wrap_callback(args[index]),
                        *args[index + 1 :],
                    )
                kwargs[keyword] = wrap_callback(kwargs[keyword])
                return args

            if (target, attr) in _UNTIMED:

                def untimed(*args, **kwargs):
                    return fn(*adapt(args, kwargs), **kwargs)

                return functools.update_wrapper(untimed, fn)
        elif (target, attr) == _SPAWN:
            wrap_generator = self.wrap_generator

            def adapt(args, kwargs):
                engine, gen = args
                return engine, wrap_generator(gen)

        elif (target, attr) in _OBSERVERS:
            observed_name, value_of = _OBSERVERS[(target, attr)]
            observed = self._observed
            original = fn

            def fn(*args, **kwargs):
                result = original(*args, **kwargs)
                observed[observed_name] = observed.get(
                    observed_name, 0.0
                ) + value_of(result)
                return result

        return functools.update_wrapper(
            self.wrap(fn, layer, name, adapt), vars(_resolve(target)[0])[attr]
        )

    # -- install / uninstall ---------------------------------------------------------

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        own = vars(owner)
        self._patches.append((owner, attr, attr in own, own.get(attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Put every wrapper in place (idempotent per pass: call once)."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for target, attrs in TARGETS.items():
            owner, module = _resolve(target)
            for attr in attrs:
                original = vars(owner)[attr]
                wrapper = self._wrap_target(target, attr, original, module)
                if inspect.ismodule(owner):
                    # ``from m import f`` copies the reference: patch every
                    # repro module that holds this very function object
                    for holder in list(sys.modules.values()):
                        if getattr(holder, "__dict__", {}).get(attr) is original:
                            self._patch(holder, attr, wrapper)
                else:
                    self._patch(owner, attr, wrapper)
        for target in TRACKED_CLASSES:
            cls, _module = _resolve(target)
            self._patch(cls, "__init__", self._tracking_init(cls))

    def _tracking_init(self, cls: type) -> Callable:
        original = cls.__init__
        instances = self._instances

        @functools.wraps(original)
        def tracking_init(obj, *args, **kwargs):
            instances.setdefault(cls.__name__, []).append(obj)
            return original(obj, *args, **kwargs)

        return tracking_init

    def uninstall(self) -> None:
        """Restore every patched attribute to the exact original object."""
        while self._patches:
            owner, attr, had_own, original = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._by_code.clear()

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    # -- sections -----------------------------------------------------------------

    @contextmanager
    def section(self, name: str, layer: str = "other") -> Iterator[Section]:
        """A coarse span; fine-grained cells recorded inside belong to it.

        Time spent directly in the section body, inside no wrapper, is
        the section's self time and is charged to ``layer``.  Sections do
        not nest: set-up, repetition and verification follow one another.
        """
        if self._section is not None:
            raise RuntimeError(f"section {self._section.name!r} is still open")
        self._harvest(None)  # drop whatever ran between sections
        index = LAYERS.index(layer)
        section = self._section = Section(name=name, layer=layer, start=0.0)
        # the section's root span, opened and closed by hand around the body
        state = self._state
        state[0], state[1] = index, 0.0
        section.start = self._clock()
        try:
            yield section
        finally:
            section.end = self._clock()
            root = self._cells(index, f"<{name}>")[OTHER]
            root[0] += 1
            root[1] += section.wall - state[1]
            root[2] += section.wall
            state[0], state[1] = OTHER, 0.0
            self._harvest(section)
            self.sections.append(section)
            self._section = None

    def _harvest(self, section: Section | None) -> None:
        """Move every non-empty cell into ``section`` (None: discard) and
        zero the table in place — live wrappers keep their cell lists."""
        for (layer, function), cells in self._table.items():
            for parent, cell in enumerate(cells):
                if cell[0]:
                    if section is not None:
                        key = (LAYERS[layer], function, LAYERS[parent])
                        section.cells[key] = list(cell)
                    cell[0], cell[1], cell[2] = 0, 0.0, 0.0
        if section is not None:
            section.observed = dict(self._observed)
            section.instances = {
                name: list(objects)
                for name, objects in self._instances.items()
            }
        self._observed.clear()
        self._instances.clear()
