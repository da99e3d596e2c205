"""Runtime cost-model constants and behaviour configuration.

The time constants approximate an HPX-class task runtime: single-digit
microsecond task overheads and sub-microsecond bookkeeping.  They matter
most for the TPC benchmark, where per-task overheads and small control
messages dominate; for stencil/iPiC3D the compute and halo terms dominate
and these costs are second-order.  They are fixed properties of the
modelled prototype, so they are module constants; :class:`RuntimeConfig`
keeps only the knobs callers set.  The balancer's trigger ratio is
:class:`~repro.runtime.balancer.LoadBalancer`'s own
``imbalance_threshold`` default.
"""

from __future__ import annotations

from dataclasses import dataclass

# -- task machinery ----------------------------------------------------------
#: core time to create/enqueue a task locally (allocation, queue ops)
TASK_SPAWN_OVERHEAD = 1.5e-6
#: core time to begin executing a dequeued task (dequeue, requirement check)
TASK_START_OVERHEAD = 0.8e-6
#: wire size of a task closure shipped to another process
TASK_MESSAGE_BYTES = 512
#: CPU time per *remote* task transfer at each end (closure serialization,
#: parcel handling) — an HPX-prototype-class cost; it is what makes
#: fine-grained remote tasks expensive (the paper's TPC observation)
REMOTE_TASK_CPU_OVERHEAD = 25e-6
#: wire size of a task-completion notification
COMPLETION_MESSAGE_BYTES = 64
#: never split tasks below this many elements/iterations
MIN_TASK_SIZE = 1.0

# -- data item manager -------------------------------------------------------
#: wire size of a data request / index control message
CONTROL_MESSAGE_BYTES = 96
#: core time for fragment resize/import/export bookkeeping per operation
FRAGMENT_OP_OVERHEAD = 0.6e-6


@dataclass
class RuntimeConfig:
    """Knobs of the AllScale runtime prototype that callers set."""

    #: whether fragments materialize values (False = virtual, benchmark mode)
    functional: bool = True
    #: cache Algorithm-1 lookup results at their origin, invalidated by
    #: ownership version (an extension along §6's "closing the performance
    #: gap"; off by default to match the paper's prototype)
    index_caching: bool = False

    # -- communication layer (coalescing & prefetch; bench --comms) -------------
    #: coalesce per-peer transfers into bulk messages: all pieces a staging
    #: pass needs from one peer travel as one FragmentPayload; sibling
    #: tasks — the children of one split, or a phase's roots submitted at
    #: one process — share one index lookup per item and one parcel per
    #: destination (``Scheduler.assign_all``).  Off by default to match
    #: the paper's prototype — the same movement happens, message by
    #: message
    comm_coalescing: bool = False
    #: at assign time, fetch a task's remote read-only pieces concurrently
    #: (single fan-out, all_of join) so the transfers overlap dispatch;
    #: identical bytes move either way, earlier
    replica_prefetch: bool = False

    # -- load balancing (repro.runtime.balancer) ---------------------------------
    #: create a periodic data-migration load balancer at runtime
    #: construction (drivers start/stop it around their measured phase);
    #: off by default — most benchmarks measure the scheduler alone
    load_balancing: bool = False
    #: sampling interval of the configured balancer, simulated seconds
    balancer_interval: float = 0.01

    # -- scheduling policy -------------------------------------------------------
    #: target number of leaf tasks per core (oversubscription factor)
    oversubscription: int = 4
    #: enable idle-time work stealing between processes
    work_stealing: bool = False

    def __post_init__(self) -> None:
        if self.oversubscription < 1:
            raise ValueError("oversubscription must be >= 1")
        if self.balancer_interval <= 0:
            raise ValueError("balancer_interval must be positive")
