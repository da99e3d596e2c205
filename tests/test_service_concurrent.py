"""Property sweeps: interleaved multi-tenant submissions under hypothesis.

The ISSUE's pinned properties: quota accounting never goes negative,
rejected jobs consume zero cluster time, and fair-share weights are
respected within tolerance on synthetic arrival traces.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.service import (
    JobSpec,
    JobState,
    ServiceConfig,
    ServiceCore,
    TenantConfig,
)
from repro.service.trace import Trace, TraceEvent, contended_shares, replay

TENANTS = ("alpha", "beta", "gamma")

# one compute unit = 0.02 node-seconds on the default 2.4e9 flops/core
COMPUTE = {"flops": 4.8e7, "tasks": 4}

#: submissions drawn for the invariant sweep: a kind (racy and broken
#: ones included), a tenant (sometimes unknown), and a priority
submissions = st.lists(
    st.tuples(
        st.sampled_from(TENANTS + ("ghost",)),
        st.sampled_from(
            ("compute", "grid_sum", "bad_overlap", "nope", "queries")
        ),
        st.integers(-2, 2),
    ),
    min_size=1,
    max_size=20,
)


def build_core(budget: float | None) -> ServiceCore:
    return ServiceCore(
        ServiceConfig(
            nodes=2,
            cores_per_node=2,
            tenants=(
                TenantConfig("alpha", weight=3.0, max_concurrent_jobs=2),
                TenantConfig("beta", weight=2.0, max_concurrent_jobs=1),
                TenantConfig(
                    "gamma",
                    weight=1.0,
                    max_concurrent_jobs=2,
                    max_node_seconds=budget,
                ),
            ),
            max_running_jobs=2,
        )
    )


@settings(max_examples=25, deadline=None)
@given(
    subs=submissions,
    budget=st.one_of(st.none(), st.floats(0.0, 0.1)),
    arrivals=st.sampled_from(("burst", "spread")),
)
def test_invariants_hold_for_any_interleaving(subs, budget, arrivals):
    core = build_core(budget)
    records = []
    for index, (tenant, kind, priority) in enumerate(subs):
        params = COMPUTE if kind == "compute" else {}
        spec = JobSpec(
            tenant=tenant, kind=kind, params=params, priority=priority
        )
        if arrivals == "burst":
            records.append(core.submit(spec))
        else:
            core.schedule(spec, at=0.01 * index)
    core.run_until_drained()
    core.check_invariants()  # raises on any negative/oversubscribed count
    records = list(core.jobs.values())
    assert len(records) == len(subs)
    for record in records:
        # every submission reaches a terminal state with a verdict
        assert record.terminal
        assert record.verdict is not None
        if record.state == JobState.REJECTED:
            # rejected jobs consume no cluster time
            assert record.node_seconds == 0.0
            assert record.started_at is None
            assert record.verdict.reason != "ok"
        else:
            assert record.state == JobState.COMPLETED
            assert record.verdict.accepted
    for name, ledger in core.ledgers.items():
        assert ledger.running == 0 and ledger.reserved == 0.0
        assert ledger.used >= 0.0
        assert ledger.admitted + ledger.rejected == ledger.submitted
        assert ledger.completed == ledger.admitted
        cap = ledger.config.max_node_seconds
        if cap is not None:
            assert ledger.used <= cap + 1e-9
    # unknown tenants never acquire a ledger
    assert "ghost" not in core.ledgers


@settings(max_examples=15, deadline=None)
@example(weights=(1, 1, 3), jobs_per_tenant=17)  # the bound, met exactly
@given(
    weights=st.tuples(
        st.integers(1, 4), st.integers(1, 4), st.integers(1, 4)
    ),
    jobs_per_tenant=st.integers(12, 24),
)
def test_weights_respected_on_synthetic_traces(weights, jobs_per_tenant):
    """Committed shares at a contended horizon track any weight vector."""
    config = ServiceConfig(
        nodes=2,
        cores_per_node=2,
        tenants=tuple(
            TenantConfig(name, weight=float(weight), max_concurrent_jobs=2)
            for name, weight in zip(TENANTS, weights)
        ),
        max_running_jobs=2,
    )
    core = ServiceCore(config)
    for _ in range(jobs_per_tenant):
        for tenant in TENANTS:
            core.submit(
                JobSpec(tenant=tenant, kind="compute", params=COMPUTE)
            )
    # horizon: every tenant still backlogged afterwards
    total_weight = sum(weights)
    rounds = (jobs_per_tenant - 2) // max(weights)
    horizon = max(total_weight, rounds * total_weight // 2)
    while core.fairshare.dispatches < horizon:
        core.step()
    snapshot = contended_shares(core)
    dispatched = core.fairshare.dispatches
    for index, (name, weight) in enumerate(zip(TENANTS, weights)):
        share = snapshot["tenants"][name]
        # stride's guarantee is pairwise: two backlogged tenants' passes
        # never differ by more than one job's stride, so tenant i trails
        # or leads tenant j by at most max(w_i, w_j) / W jobs.  Summed
        # over its competitors that bounds a tenant's error at *any* cut,
        # and the bound is reached when the cut lands just after the
        # lighter tenants of a tied round: weights (1, 1, 3) cut at 12
        # dispatches run alpha, beta, 3 x gamma twice and then alpha,
        # beta — gamma holds 6 of 12 against 7.2, (3 + 3) / 5 jobs short
        # (so "within one job" is not a property of stride scheduling).
        bound_jobs = sum(
            max(weight, other)
            for k, other in enumerate(weights)
            if k != index
        ) / total_weight
        assert share["observed_share"] == pytest.approx(
            weight / total_weight, abs=bound_jobs / dispatched + 1e-9
        )
    core.run_until_drained()
    core.check_invariants()


@settings(max_examples=10, deadline=None)
@given(
    data=st.lists(
        st.tuples(
            st.floats(0.0, 0.2),
            st.sampled_from(TENANTS),
            st.sampled_from(("compute", "bad_overlap")),
        ),
        min_size=1,
        max_size=15,
    )
)
def test_trace_replay_is_deterministic(data):
    trace = Trace(
        config=ServiceConfig(
            nodes=2,
            cores_per_node=2,
            tenants=(
                TenantConfig("alpha", weight=3.0),
                TenantConfig("beta", weight=2.0),
                TenantConfig("gamma", weight=1.0),
            ),
        ),
        events=[
            TraceEvent(
                at,
                JobSpec(
                    tenant=tenant,
                    kind=kind,
                    params=COMPUTE if kind == "compute" else {},
                ),
            )
            for at, tenant, kind in sorted(data, key=lambda t: t[0])
        ],
    )
    first = replay(trace)
    second = replay(Trace.from_dict(trace.to_dict()))
    assert first == second
    assert first["false_accepts"] == 0
