"""Resilience manager: data item checkpoint and restart (paper §3.2/§6).

The paper lists runtime-based task checkpointing as a service the
application model enables (deliverable D5.7) and as ongoing work.  Because
the runtime owns the distribution of all data items, a checkpoint is simply
the set of every process's fragment payloads; restoring re-creates the
distribution on a (possibly different-sized) runtime — the data preservation
property guarantees nothing else is needed to resume between task barriers.

Checkpoint cost is charged to the simulation: each process serializes its
fragments (core time) and ships them to stable storage modelled as a peer
stream with the configured network bandwidth.  Every process streams at
once, and recovery and restore land all their parts at once, so each costs
its largest share's stream rather than the sum of all shares.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Generator

from repro.items.base import DataItem, FragmentPayload
from repro.regions.base import Region
from repro.runtime.config import FRAGMENT_OP_OVERHEAD

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.process import RuntimeProcess
    from repro.runtime.runtime import AllScaleRuntime


def lost_region(
    runtime: "AllScaleRuntime", item: DataItem, region: Region
) -> Region:
    """The part of ``region`` a node loss took: owned by no process.

    Failed processes own nothing, and bytes on the wire are already owned
    by their live destination, so the index root's cover is exactly what
    survived.  A survivor's *replica* of a lost row does not count: no one
    owns it, so nothing would keep it coherent."""
    index = runtime.index
    return region.difference(index.covered(item, index.levels, 0))


def _extract_sub_payload(
    item: DataItem, payload: FragmentPayload, region
) -> FragmentPayload:
    """Cut the sub-``region`` out of a checkpointed payload."""
    staging = item.new_fragment(
        item.empty_region(), functional=payload.data is not None
    )
    staging.insert(payload)
    return staging.extract(region)


@dataclass
class Checkpoint:
    """A consistent snapshot of all data items' contents and distribution."""

    sim_time: float
    #: item name -> list of (owning pid, payload)
    payloads: dict[str, list[tuple[int, FragmentPayload]]] = field(
        default_factory=dict
    )

    def total_bytes(self) -> int:
        return sum(
            payload.nbytes
            for entries in self.payloads.values()
            for _pid, payload in entries
        )


class ResilienceManager:
    """Checkpoint/restore of the runtime's data items."""

    def __init__(self, runtime: "AllScaleRuntime") -> None:
        self.runtime = runtime

    # -- checkpoint ---------------------------------------------------------------

    def checkpoint(self) -> Generator:
        """Simulation process producing a :class:`Checkpoint`.

        Must run at a task barrier (no tasks holding locks); the runtime's
        apps checkpoint between pfor steps, where that holds by
        construction.  Every process streams its own share at once, so a
        checkpoint costs its largest share's stream, not the sum of all.
        """
        runtime = self.runtime
        engine = runtime.engine
        snapshot = Checkpoint(sim_time=runtime.now)
        shares = yield engine.all_of([
            engine.spawn(self._stream(process))
            for process in runtime.processes
        ])
        for item in runtime.items:
            entries = [
                (process.pid, share[item.name])
                for process, share in zip(runtime.processes, shares)
                if item.name in share
            ]
            if entries:
                snapshot.payloads[item.name] = entries
        for notify in runtime.probe.checkpoint:
            notify(snapshot)
        runtime.metrics.incr("resilience.checkpoints")
        return snapshot

    def _stream(self, process: "RuntimeProcess") -> Generator:
        """One process's share of a checkpoint: item name -> payload.

        A process that dies mid-stream contributes only the payloads that
        fully reached stable storage before it died."""
        runtime = self.runtime
        manager = process.data_manager
        # stable storage is off-node: modelled as a full-bandwidth send to
        # the next process's NIC
        target = (process.pid + 1) % runtime.num_processes
        share: dict[str, FragmentPayload] = {}
        for item in runtime.items:
            owned = manager.owned_region(item)
            if owned.is_empty():
                continue
            yield process.node.interleave(FRAGMENT_OP_OVERHEAD)
            if process.failed:
                break
            payload = manager.fragment(item).extract(owned)
            yield runtime.network.send(
                process.pid, target, max(1, payload.nbytes)
            )
            if process.failed:
                break
            share[item.name] = payload
        return share

    # -- recovery from node loss --------------------------------------------------------

    def recover_lost_data(self, snapshot: Checkpoint) -> Generator:
        """Re-materialize data lost to a node failure from a checkpoint.

        For every item, whatever part of ``elems(d)`` is currently owned
        by no process (:func:`lost_region`) is restored from the checkpoint
        payloads onto the surviving processes.  All lost parts of one
        checkpointed owner, across every item, go to one adopting
        survivor, so rows that were co-located stay co-located; adopters
        are dealt round-robin over the survivors in the order the owners
        first appear.  All parts land concurrently.  Data still alive is
        left untouched — survivors keep their (possibly newer) state; only
        the lost region rolls back to checkpoint time, which is the
        standard partial-restart semantics the model's data preservation
        property makes safe between task barriers.
        """
        runtime = self.runtime
        engine = runtime.engine
        by_name = {item.name: item for item in runtime.items}
        survivors = [
            p.pid for p in runtime.processes if not p.failed
        ]
        if not survivors:
            raise RuntimeError("no surviving processes to recover onto")
        adopters: dict[int, int] = {}
        landings = []
        for item_name, entries in snapshot.payloads.items():
            item = by_name.get(item_name)
            if item is None:
                continue
            lost = lost_region(runtime, item, item.full_region)
            if lost.is_empty():
                continue
            for pid, payload in entries:
                part = payload.region.intersect(lost)
                if part.is_empty():
                    continue
                adopter = adopters.setdefault(
                    pid, survivors[len(adopters) % len(survivors)]
                )
                sub = _extract_sub_payload(item, payload, part)
                landings.append(engine.spawn(
                    self._land(item, sub, adopter, only_lost=True)
                ))
            runtime.metrics.incr("resilience.recovered_items")
        yield engine.all_of(landings)
        for notify in runtime.probe.recovery:
            notify(snapshot)
        runtime.metrics.incr("resilience.recoveries")

    def _land(
        self, item: DataItem, payload: FragmentPayload, pid: int, *,
        only_lost: bool,
    ) -> Generator:
        """Ship one checkpoint part from stable storage to ``pid`` and
        import it there as owned."""
        runtime = self.runtime
        target = runtime.process(pid)
        source = (pid + 1) % runtime.num_processes
        yield runtime.network.send(source, pid, max(1, payload.nbytes))
        yield target.node.interleave(FRAGMENT_OP_OVERHEAD)
        if only_lost:
            # re-check under the synchronous horizon: while the part was
            # on the wire, a running task may have first-touched some of
            # the lost region (the index reported it owned by no one —
            # that is what "lost" means).  The live allocation wins;
            # restoring over it would create two owners.  Only what is
            # *still* unowned lands.
            still_lost = lost_region(runtime, item, payload.region)
            if still_lost.is_empty():
                return
            if not still_lost.same_elements(payload.region):
                payload = _extract_sub_payload(item, payload, still_lost)
        target.data_manager.import_owned(item, payload)

    # -- restore ---------------------------------------------------------------------

    def restore(self, snapshot: Checkpoint) -> Generator:
        """Re-create the checkpointed distribution on this runtime.

        The target runtime may have a different process count: payloads for
        processes beyond the current count fold onto ``pid % P`` — data
        items make the re-decomposition safe, which is the point of the
        model's resilience story.  All payloads land concurrently.
        """
        runtime = self.runtime
        engine = runtime.engine
        by_name = {item.name: item for item in runtime.items}
        for item_name in snapshot.payloads:
            if item_name not in by_name:
                raise KeyError(
                    f"checkpoint contains unknown item {item_name!r}; "
                    "register it before restoring"
                )
        yield engine.all_of([
            engine.spawn(self._land(
                by_name[item_name], payload, pid % runtime.num_processes,
                only_lost=False,
            ))
            for item_name, entries in snapshot.payloads.items()
            for pid, payload in entries
        ])
        for notify in runtime.probe.restore:
            notify(snapshot)
        runtime.metrics.incr("resilience.restores")
