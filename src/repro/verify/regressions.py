"""Mechanical fix-reverts and the bug-rediscovery harness.

The headline proof obligation of the model checker: with a historical
protocol fix surgically reverted, bounded exploration must *rediscover*
the bug — find a schedule that fails — and shrink it to a minimal,
replayable decision trace.  One revert is provided per
schedule-dependent protocol bug fixed in this repo's history:

* **write-intent reservations** — originally there were none: staging is
  lock-free, so a writer repeatedly invalidating the replicas a reader
  keeps re-fetching (or two writers stealing each other's staged
  ownership) could ping-pong until a staging loop gave up ("requirement
  thrashing" / "ownership thrashing").  The fix broke the symmetry with
  a total order over intents; the revert makes ``write_intent_blocked``
  answer ``False`` unconditionally, restoring the free-for-all.
* **read escalation** — originally, a replica fetch that lost every
  attempt against concurrent ownership migration raised instead of
  escalating to an (atomic) ownership pull, so balancer-style churn
  could starve a pinned reader outright.
* **migration dead-lettering** — a payload landing on a failed node was
  spliced onto the corpse.
* **the source guard's re-check** — a migration exported bytes a
  source task had locked during the export's overhead yield; a replica
  fetch cut bytes whose writer took its lock during that yield.  One
  predicate re-checks both rules, so one revert covers both scenarios.
* **replica registration at the cut** — a copy joined the replica
  registry only on landing, so a writer verifying its locks while the
  bytes travelled could not invalidate it.

Two more reverts have no explorer scenario; a churn panel gate is
their net instead (the uninitialized-read gate and the storm-landing
gate):

* **claim-first storm recovery** — recovery shipped checkpoint bytes to
  an adopter and only then took ownership of whatever was still lost, so
  a task touching a lost row meanwhile first-touched zeros.
* **the storm hold** — a storm's barrier (the departure barrier drains
  now share) waited for its victims' queues to drain while the victims
  kept starting the tasks that arrived, so under a steady stream of work
  the victims failed only after the program's last task, and the cell
  measured no storm.

Every revert is the smallest patch to the *fixed* code object, applied for
the duration of a ``with`` block; nothing but the historical behaviour
changes, so any failure the explorer finds under the revert is the
historical bug.  The guard re-check revert patches the one source guard
of every copy and live move (``data_manager._guard_holds``, re-checked in
``_at_source``), and the claim-first revert the executor of every move
from stable storage (``DataItemManager.claim_stored``), so they move with
them.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Generator, Iterator
from unittest.mock import patch

from repro.verify.explorer import (
    DEFAULT_BUDGET,
    ExploreResult,
    RunResult,
    explore,
    minimize_failure,
    run_schedule,
)
from repro.verify.oracle import DecisionTrace
from repro.verify.scenarios import get_scenario


@contextmanager
def revert_write_intents() -> Iterator[None]:
    """Revert the write-intent reservation fix (intents never block)."""
    from repro.runtime.runtime import AllScaleRuntime

    def reverted(
        self, item, region, owner, against_reads: bool = False
    ) -> bool:
        # keep the sync edge so the happens-before relation stays sound
        # while the guard itself is disabled
        for notify in self.probe.table_read:
            notify(("intent", item.name), None)
        return False

    with patch.object(AllScaleRuntime, "write_intent_blocked", reverted):
        yield


@contextmanager
def revert_read_escalation() -> Iterator[None]:
    """Revert the starved-fetch-to-migration escalation."""
    from repro.runtime.data_manager import DataItemManager

    def reverted(self, item, missing, task=None, plan=None) -> Generator:
        raise RuntimeError(
            f"process {self.pid} could not replicate "
            f"{missing.size()} read elements of {item.name!r} after "
            "repeated attempts (replica starvation?)"
        )
        yield  # pragma: no cover - keeps the replacement a generator

    with patch.object(DataItemManager, "_escalate_fetch", reverted):
        yield


@contextmanager
def revert_migration_dead_letter() -> Iterator[None]:
    """Revert the dead-lettering of payloads addressed to failed nodes.

    Originally ``_land_migration`` spliced every arrived payload
    unconditionally; a payload whose destination died mid-wire then
    resurrected bytes on the corpse — a fragment no process owns,
    invisible to the index — which the sentinel's coherence scan flags
    as a registry/fragment disagreement.
    """
    from repro.runtime.config import FRAGMENT_OP_OVERHEAD
    from repro.runtime.data_manager import DataItemManager

    def reverted(self, item, payload) -> Generator:
        yield self.process.node.interleave(FRAGMENT_OP_OVERHEAD)
        self._store_payload(item, payload)

    with patch.object(DataItemManager, "_land_migration", reverted):
        yield


@contextmanager
def revert_migrate_guard_recheck() -> Iterator[None]:
    """Revert the re-check of the source guard at its commit point.

    Originally a move or a copy checked the source's locks and in-flight
    bytes, yielded the fragment-op overhead and cut without looking
    again.  A source task that took its locks inside that yield ran on
    bytes that had just left (its gather raised ``KeyError: window ...
    not covered by fragment region``, or, in a balancer-driven stencil,
    silently read a stale halo), or wrote rows a copy of the old bytes
    outlived.
    """
    from repro.runtime import data_manager

    with patch.object(data_manager, "_guard_holds", lambda *_: True):
        yield


@contextmanager
def revert_replica_registration_at_cut() -> Iterator[None]:
    """Revert registering a replica at its cut: it registers on landing.

    A writer at the source that verified its locks while the copy's bytes
    travelled saw no replica to invalidate, and a read ordered after the
    write was served the old value from the landed copy.
    """
    from repro.runtime.data_manager import DataItemManager
    from repro.runtime.runtime import AllScaleRuntime

    register, insert = AllScaleRuntime.register_replica, DataItemManager.insert_replica

    def land_then_register(self, item, payload) -> None:
        copy = payload.region.difference(self.owned_region(item))
        register(self.process.runtime, item, self.pid, copy)
        insert(self, item, payload)

    with patch.object(AllScaleRuntime, "register_replica", lambda *_: None), \
            patch.object(DataItemManager, "insert_replica", land_then_register):
        yield


@contextmanager
def revert_claim_first_recovery() -> Iterator[None]:
    """Revert claim-first moves from stable storage: land, then own.

    Originally a lost part stayed owned by no process while its
    checkpoint bytes travelled; the adopter imported only what was still
    lost on arrival.  A survivor's task touching a lost row meanwhile
    found it present nowhere and first-touched zeros, counted under
    ``dm.uninitialized_reads``.
    """
    from repro.runtime.config import FRAGMENT_OP_OVERHEAD
    from repro.runtime.data_manager import DataItemManager, cut_payload
    from repro.runtime.resilience import lost_region

    # a generator function claims nothing when called: the move owns its
    # region only once the bytes have landed
    def land_then_own(self, item, region, payload) -> Generator:
        runtime = self.process.runtime
        nbytes = item.region_bytes(region)
        origin = (self.pid + 1) % runtime.num_processes
        yield runtime.network.send(origin, self.pid, max(1, nbytes))
        yield self.process.node.interleave(FRAGMENT_OP_OVERHEAD)
        still_lost = lost_region(runtime, item, region)
        if not still_lost.is_empty():
            self.import_owned(item, cut_payload(item, payload, still_lost))
        return nbytes

    with patch.object(DataItemManager, "claim_stored", land_then_own):
        yield


@contextmanager
def revert_storm_hold() -> Iterator[None]:
    """Revert the storm hold: victims keep starting queued tasks, and the
    departure barrier (the shared ``_busy`` predicate) waits for their
    queues to drain as well."""
    from repro.runtime import elastic
    from repro.runtime.process import RuntimeProcess

    busy = elastic._busy

    def queue_must_drain(process):
        return busy(process) or (process._slot_free if process.queue else None)

    # a class-level data descriptor shadows the per-instance flag: no
    # process is ever held
    never_held = property(lambda self: False, lambda self, value: None)
    with patch.object(elastic, "_busy", queue_must_drain), \
            patch.object(RuntimeProcess, "held", never_held, create=True):
        yield


@dataclass(frozen=True)
class KnownBug:
    """One historical bug: a revert, a scenario that can expose it, and
    the signatures distinguishing its failure from unrelated ones."""

    name: str
    scenario: str
    revert: Callable[[], Iterator[None]]
    #: error substrings, any of which identifies the bug's failure mode
    error_signatures: tuple[str, ...] = ()
    #: the smallest exploration that finds the bug; :func:`rediscover`
    #: never explores fewer branches
    budget: int = DEFAULT_BUDGET

    def matches_error(self, error: str | None) -> bool:
        return error is not None and any(
            signature in error for signature in self.error_signatures
        )

    def hits(self, run: RunResult) -> bool:
        """Does one re-executed run still exhibit this bug?"""
        return self.matches_error(run.error)


KNOWN_BUGS: dict[str, KnownBug] = {
    bug.name: bug
    for bug in (
        KnownBug(
            name="write_intent_livelock",
            scenario="writer_straddle",
            revert=revert_write_intents,
            error_signatures=(
                "requirement thrashing?",
                "ownership thrashing?",
            ),
        ),
        KnownBug(
            name="ownership_thrashing",
            scenario="counterphase_vs_pin",
            revert=revert_read_escalation,
            error_signatures=("replica starvation?",),
        ),
        KnownBug(
            name="migration_corpse_splice",
            scenario="node_failure_during_migration",
            revert=revert_migration_dead_letter,
            error_signatures=(
                "disagrees with its fragment",
                "owns data it neither holds nor awaits",
            ),
        ),
        KnownBug(
            name="migrate_guard_recheck",
            scenario="migration_vs_owner_read",
            revert=revert_migrate_guard_recheck,
            error_signatures=("not covered by fragment region",),
        ),
        KnownBug(
            name="replicate_guard_recheck",
            scenario="replica_vs_owner_write",
            revert=revert_migrate_guard_recheck,
            error_signatures=("read stale data",),
        ),
        KnownBug(
            name="replica_registration_at_landing",
            scenario="replica_vs_owner_write",
            revert=revert_replica_registration_at_cut,
            error_signatures=("read stale data",),
        ),
    )
}


@dataclass
class Rediscovery:
    """Outcome of hunting one known bug under its revert."""

    bug: str
    scenario: str
    found: bool
    explored: ExploreResult
    evidence: str | None = None
    trace: DecisionTrace | None = None


def rediscover(
    name: str, budget: int = DEFAULT_BUDGET, minimize: bool = True
) -> Rediscovery:
    """Revert ``name``'s fix, explore its scenario, minimize the repro.

    The returned trace replays the bug deterministically while the revert
    is active; against the fixed code it replays (tolerantly) to a clean
    run — which is exactly what the pinned regression tests assert.
    """
    bug = KNOWN_BUGS[name]
    scenario = get_scenario(bug.scenario)
    with bug.revert():
        explored = explore(scenario, budget=max(budget, bug.budget))
        evidence, decisions = None, None
        for error, failing_decisions in explored.failures:
            if bug.matches_error(error):
                evidence, decisions = error, failing_decisions
                break
        if decisions is None:
            return Rediscovery(
                bug=name,
                scenario=bug.scenario,
                found=False,
                explored=explored,
            )
        trace = DecisionTrace(
            scenario=bug.scenario, decisions=list(decisions), note=evidence
        )
        if minimize:
            trace = minimize_failure(scenario, decisions, bug.hits)
            trace.note = evidence
    return Rediscovery(
        bug=name,
        scenario=bug.scenario,
        found=True,
        explored=explored,
        evidence=evidence,
        trace=trace,
    )


def replay_trace(trace: DecisionTrace, strict: bool = False) -> RunResult:
    """Replay a pinned trace against the current code."""
    scenario = get_scenario(trace.scenario)
    run, _ = run_schedule(scenario, trace.forced(), strict=strict)
    return run
