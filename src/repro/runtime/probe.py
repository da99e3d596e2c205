"""The runtime's one instrumentation seam.

Every runtime transition worth observing is announced exactly once, where
it happens, through the :class:`Probe` of the runtime it belongs to::

    for notify in probe.task_start:
        notify(task, treeture, pid, now)

— one attribute read and an empty iteration when nobody listens; arguments
are only built inside the loop.  Observers (the invariant sentinel, the
happens-before monitor, the lifecycle tracer, the admission controller,
the service's job accounting) are subscribers and nothing else: pure listeners that may not schedule an
engine event, and whose exceptions propagate from the emitting transition.
Emitting sites and the §2 rule behind each event are tabulated in
``docs/runtime.md`` ("Instrumenting the runtime").
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Any, Callable, Generic, TypeVar

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.runtime import AllScaleRuntime
    from repro.sim.engine import SimEngine

ConfigT = TypeVar("ConfigT")
ObserverT = TypeVar("ObserverT")
Handlers = tuple[Callable[..., None], ...]


class Probe:
    """Per-runtime subscriber tuples, one per event of the catalogue below
    (the annotations *are* the catalogue: :data:`EVENTS` is read off them;
    the comments give each event's arguments)."""

    item_registered: Handlers  # (item)
    item_destroyed: Handlers  # (item), before the teardown
    process_failed: Handlers  # (pid)
    submit: Handlers  # (task) — root submissions only, not split children
    task_enqueued: Handlers  # (task, treeture, pid, variant, now), per re-placement
    task_start: Handlers  # (task, treeture, pid, now), as the next three
    task_data_ready: Handlers  # after each staging pass
    task_locks_held: Handlers  # locks granted, requirements re-verified
    task_finish: Handlers
    #: kind: ``allocate`` / ``invalidate`` (payload None), ``migrate-out`` /
    #: ``migrate-in`` / ``migrate-land`` / ``replica-in``
    frag_write: Handlers  # (pid, item, region, kind, payload)
    frag_read: Handlers  # (pid, item, region, kind); kind ``replica-read``
    coalesced_transfer: Handlers  # (src, dst, item, payload, pieces, sizes)
    plan_finished: Handlers  # (plan)
    ownership_update: Handlers  # (item, pid, new leaf region), once applied
    checkpoint: Handlers  # (snapshot), as the next two
    restore: Handlers
    recovery: Handlers
    barrier: Handlers  # () — ``runtime.wait`` / ``wait_process`` got there
    #: a guard read / a site changed a bookkeeping table; keys ``("locks",
    #: pid, item)``, ``("intent", item)``, ``("rep", item)``, ``("inflight",
    #: pid, item)``, ``("fetching", pid, item)``, ``("own", item)``
    table_read: Handlers  # (key, region or None)
    table_publish: Handlers  # (key, region or None)

    def __init__(self, engine: SimEngine | None = None) -> None:
        for event in EVENTS:
            setattr(self, event, ())
        self._observers: list[object] = []
        self._engine = engine
        if engine is not None:
            # the happens-before monitor rides the engine (``set_hb``) and
            # must reach every runtime on it, including ones born mid-run
            engine.follow_hb(self)

    def attach(self, observer: object) -> None:
        """Subscribe every ``on_<event>`` method ``observer`` defines."""
        if self._engine is None:
            raise RuntimeError("the shared inert probe takes no observers")
        if observer in self._observers:
            return
        self._observers.append(observer)
        for event in EVENTS:
            handler = getattr(observer, "on_" + event, None)
            if handler is not None:
                setattr(self, event, getattr(self, event) + (handler,))

    def detach(self, observer: object) -> None:
        """Drop ``observer``'s handlers from every event (no-op if absent)."""
        if observer not in self._observers:
            return
        self._observers.remove(observer)
        for event in EVENTS:
            handler = getattr(observer, "on_" + event, None)
            kept = tuple(h for h in getattr(self, event) if h != handler)
            setattr(self, event, kept)

    def observer(self, kind: type[ObserverT]) -> ObserverT | None:
        """The attached observer of type ``kind``, if any."""
        for observer in self._observers:
            if isinstance(observer, kind):
                return observer
        return None


#: every event a probe carries, in catalogue order
EVENTS: tuple[str, ...] = tuple(Probe.__annotations__)
#: lets ``LockTable(engine, pid)`` / ``HierarchicalIndex(...)`` stand alone
INERT = Probe()


class Enablement(Generic[ConfigT, ObserverT]):
    """Process-wide auto-attachment of one observer kind.

    ``parse`` turns the (stripped, lower-cased) value of ``env_var`` into a
    config; ``build`` creates and attaches the observer for one runtime.
    The environment variable is the fallback: :meth:`enable_globally` /
    :meth:`disable_globally` override it until :meth:`reset_global`.
    """

    #: explicit-off marker: distinguishes "never configured, fall back to
    #: the environment variable" (None) from "switched off programmatically"
    _DISABLED: Any = object()

    def __init__(
        self,
        env_var: str,
        parse: Callable[[str], ConfigT],
        build: Callable[[AllScaleRuntime, ConfigT], ObserverT],
    ) -> None:
        self.env_var = env_var
        self._parse = parse
        self._build = build
        self._config: Any = None
        #: observers created while enablement was active (drained by the
        #: test fixtures, the CLIs and the bench reporter)
        self._created: list[ObserverT] = []

    def enable_globally(self, config: ConfigT | None = None) -> None:
        """Attach to every :class:`AllScaleRuntime` created from now on."""
        self._config = config if config is not None else self._parse("1")
        self._created.clear()

    def disable_globally(self) -> None:
        """Switch auto-attachment off, overriding the env var too."""
        self._config = self._DISABLED

    def reset_global(self) -> None:
        """Back to the default: enabled iff the env var is set."""
        self._config = None

    def global_config(self) -> ConfigT | None:
        """Active process-wide config, if any (the env var counts)."""
        if self._config is self._DISABLED:
            return None
        if self._config is not None:
            return self._config
        value = os.environ.get(self.env_var, "0").strip().lower()
        return None if value in ("", "0") else self._parse(value)

    def drain_created(self) -> list[ObserverT]:
        """Return and forget the observers auto-attached since the last drain."""
        out, self._created[:] = list(self._created), []
        return out

    def attach_from_global(self, runtime: AllScaleRuntime) -> None:
        """Auto-attach to ``runtime`` if process-wide enablement is active."""
        config = self.global_config()
        if config is not None:
            self._created.append(self._build(runtime, config))
