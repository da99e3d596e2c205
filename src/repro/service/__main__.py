"""``python -m repro.service`` — serve, submit, inspect, replay, smoke.

Client/server commands speak the newline-delimited JSON protocol of
:mod:`repro.service.frontend` over a local TCP socket::

    python -m repro.service serve --port 7421
    python -m repro.service submit --tenant alpha --kind grid_sum \
        --params '{"n": 16}' --wait
    python -m repro.service status job-00001
    python -m repro.service stats
    python -m repro.service shutdown

Batch commands run in-process and deterministically::

    python -m repro.service replay traces/multi_tenant_smoke.json
    python -m repro.service demo
    python -m repro.service smoke   # what the CI service job runs

``smoke`` starts a real frontend on an ephemeral port, replays the
committed multi-tenant trace with one concurrent client per tenant, and
asserts the admission, quota, and fairness properties the CI job pins.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys

from repro.service.core import ServiceConfig, ServiceCore
from repro.service.frontend import (
    ServiceClient,
    ServiceError,
    ServiceFrontend,
    call,
)
from repro.service.jobs import JobSpec, JobState
from repro.service.trace import (
    DEMO_HORIZON_DISPATCHES,
    SHARE_TOLERANCE,
    Trace,
    demo_trace,
    replay,
    share_problems,
    smoke_trace,
)

#: fairness-index floor the smoke run enforces; the smoke trace's
#: demand-driven drain fairness is ~0.82 (gamma's quota cap skews its
#: weight-normalized share), so 0.75 catches a broken scheduler while
#: tolerating protocol-level arrival reordering
SMOKE_FAIRNESS_FLOOR = 0.75


def _load_config(path: str | None) -> ServiceConfig:
    if path is None:
        return ServiceConfig()
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    # accept either a bare config or a full trace document
    return ServiceConfig.from_dict(data.get("service", data))


def _print(data: dict) -> None:
    json.dump(data, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


# -- server ----------------------------------------------------------------------


def cmd_serve(args: argparse.Namespace) -> int:
    core = ServiceCore(_load_config(args.config))

    async def _serve() -> None:
        frontend = ServiceFrontend(core, host=args.host, port=args.port)
        host, port = await frontend.start()
        print(f"repro.service listening on {host}:{port}", flush=True)
        try:
            await frontend.serve()
        except asyncio.CancelledError:  # pragma: no cover - signal path
            await frontend.stop()
        print("repro.service: drained, bye", flush=True)

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:  # pragma: no cover - interactive path
        print("repro.service: interrupted", flush=True)
    return 0


# -- one-shot client commands ----------------------------------------------------


def cmd_submit(args: argparse.Namespace) -> int:
    spec = JobSpec(
        tenant=args.tenant,
        kind=args.kind,
        params=json.loads(args.params),
        priority=args.priority,
        name=args.name,
    )

    async def _run() -> dict:
        async with ServiceClient(args.host, args.port) as client:
            job = await client.submit(spec)
            if args.wait and job["state"] not in JobState.TERMINAL:
                job = await client.result(job["job_id"], wait=True)
            return job

    _print(asyncio.run(_run()))
    return 0


def cmd_status(args: argparse.Namespace) -> int:
    _print(call(args.host, args.port, "status", job_id=args.job_id)["job"])
    return 0


def cmd_result(args: argparse.Namespace) -> int:
    _print(
        call(
            args.host,
            args.port,
            "result",
            job_id=args.job_id,
            wait=args.wait,
        )["job"]
    )
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    _print(call(args.host, args.port, "stats")["stats"])
    return 0


def cmd_kinds(args: argparse.Namespace) -> int:
    _print(call(args.host, args.port, "kinds"))
    return 0


def cmd_drain(args: argparse.Namespace) -> int:
    _print(call(args.host, args.port, "drain"))
    return 0


def cmd_shutdown(args: argparse.Namespace) -> int:
    _print(call(args.host, args.port, "shutdown"))
    return 0


# -- in-process batch commands ---------------------------------------------------


def cmd_write_trace(args: argparse.Namespace) -> int:
    trace = demo_trace() if args.demo else smoke_trace()
    trace.save(args.path)
    print(f"wrote {len(trace.events)} events to {args.path}")
    return 0


def cmd_replay(args: argparse.Namespace) -> int:
    trace = Trace.load(args.trace)
    report = replay(trace, horizon_dispatches=args.horizon)
    _print(report)
    return 0


def cmd_demo(args: argparse.Namespace) -> int:
    trace = demo_trace()
    report = replay(trace, horizon_dispatches=DEMO_HORIZON_DISPATCHES)
    _print(report)
    failures: list[str] = []
    if report["false_accepts"]:
        failures.append(f"{report['false_accepts']} racy job(s) admitted")
    terminal = report["jobs"] - sum(
        t["completed"] + t["rejected"] for t in report["tenants"].values()
    )
    if terminal:
        failures.append(f"{terminal} job(s) neither completed nor rejected")
    failures += [
        f"tenant {name}: {problem}"
        for name, problem in share_problems(report, SHARE_TOLERANCE)
    ]
    if failures:
        for failure in failures:
            print(f"DEMO FAIL: {failure}", file=sys.stderr)
        return 1
    print(
        f"demo ok: {report['jobs']} jobs across "
        f"{len(report['tenants'])} tenants, shares within "
        f"{SHARE_TOLERANCE:.0%} of weights at the contended horizon "
        f"(fairness {report['contended']['fairness_index']:.4f})"
    )
    return 0


# -- the CI smoke ----------------------------------------------------------------


def cmd_smoke(args: argparse.Namespace) -> int:
    trace = Trace.load(args.trace) if args.trace else smoke_trace()
    core = ServiceCore(trace.config)
    results: list[dict] = []

    async def _client(host: str, port: int, events: list) -> None:
        async with ServiceClient(host, port) as client:
            submitted = []
            for event in events:
                submitted.append(await client.submit(event.spec))
                # yield between submissions so tenants interleave
                await asyncio.sleep(0)
            for job in submitted:
                results.append(await client.result(job["job_id"], wait=True))

    async def _run() -> dict:
        frontend = ServiceFrontend(core)
        host, port = await frontend.start()
        by_tenant: dict[str, list] = {}
        for event in trace.events:
            by_tenant.setdefault(event.spec.tenant, []).append(event)
        await asyncio.gather(
            *(
                _client(host, port, events)
                for events in by_tenant.values()
            )
        )
        async with ServiceClient(host, port) as client:
            stats = await client.stats()
            await client.shutdown()
        await frontend.serve()
        return stats

    stats = asyncio.run(_run())
    core.check_invariants()

    failures: list[str] = []
    if len(results) != len(trace.events):
        failures.append(
            f"{len(results)} results for {len(trace.events)} submissions"
        )
    for job in results:
        verdict = job["verdict"]
        if job["state"] not in JobState.TERMINAL:
            failures.append(f"{job['job_id']}: non-terminal {job['state']}")
        if verdict is None:
            failures.append(f"{job['job_id']}: missing verdict")
            continue
        if job["kind"] == "bad_overlap" and job["state"] != (
            JobState.REJECTED
        ):
            failures.append(
                f"{job['job_id']}: FALSE ACCEPT of racy job "
                f"(state {job['state']})"
            )
        if job["state"] == JobState.REJECTED:
            if verdict["reason"] in ("", "ok"):
                failures.append(
                    f"{job['job_id']}: rejected without a reason"
                )
            if job["node_seconds"] != 0.0:
                failures.append(
                    f"{job['job_id']}: rejected but consumed "
                    f"{job['node_seconds']} node-seconds"
                )
    quota_rejects = sum(
        1
        for job in results
        if job["state"] == JobState.REJECTED
        and job["verdict"]["reason"] == "quota"
    )
    for tenant in trace.config.tenants:
        ledger = core.ledgers[tenant.name]
        if tenant.max_node_seconds is not None:
            if ledger.used > tenant.max_node_seconds + 1e-9:
                failures.append(
                    f"tenant {tenant.name}: used {ledger.used:.6g} exceeds "
                    f"budget {tenant.max_node_seconds:.6g}"
                )
            if quota_rejects == 0:
                failures.append(
                    f"tenant {tenant.name}: budgeted burst produced no "
                    "quota rejections"
                )
    fairness = stats["fairness_index"]
    if fairness < SMOKE_FAIRNESS_FLOOR:
        failures.append(
            f"fairness index {fairness:.4f} below floor "
            f"{SMOKE_FAIRNESS_FLOOR}"
        )

    print(
        f"smoke: {len(results)} jobs, "
        f"{stats['states'].get('completed', 0)} completed, "
        f"{stats['states'].get('rejected', 0)} rejected "
        f"({quota_rejects} quota), fairness {fairness:.4f}"
    )
    if failures:
        for failure in failures:
            print(f"SMOKE FAIL: {failure}", file=sys.stderr)
        return 1
    print("smoke ok")
    return 0


# -- argument parsing ------------------------------------------------------------


def _add_endpoint(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7421)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="multi-tenant job service over the simulated runtime",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("serve", help="run the socket frontend")
    _add_endpoint(p)
    p.add_argument(
        "--config", help="JSON service config (or trace file)", default=None
    )
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser("submit", help="submit one job")
    _add_endpoint(p)
    p.add_argument("--tenant", required=True)
    p.add_argument("--kind", required=True)
    p.add_argument("--params", default="{}", help="JSON parameters")
    p.add_argument("--priority", type=int, default=0)
    p.add_argument("--name", default="")
    p.add_argument(
        "--wait", action="store_true", help="block until terminal"
    )
    p.set_defaults(fn=cmd_submit)

    p = sub.add_parser("status", help="job status")
    _add_endpoint(p)
    p.add_argument("job_id")
    p.set_defaults(fn=cmd_status)

    p = sub.add_parser("result", help="job result (waits by default)")
    _add_endpoint(p)
    p.add_argument("job_id")
    p.add_argument("--no-wait", dest="wait", action="store_false")
    p.set_defaults(fn=cmd_result, wait=True)

    p = sub.add_parser("stats", help="service-wide statistics")
    _add_endpoint(p)
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser("kinds", help="list job kinds")
    _add_endpoint(p)
    p.set_defaults(fn=cmd_kinds)

    p = sub.add_parser("drain", help="stop admitting new jobs")
    _add_endpoint(p)
    p.set_defaults(fn=cmd_drain)

    p = sub.add_parser("shutdown", help="drain, finish, and stop serving")
    _add_endpoint(p)
    p.set_defaults(fn=cmd_shutdown)

    p = sub.add_parser("write-trace", help="write a canned trace file")
    p.add_argument("path")
    p.add_argument(
        "--demo", action="store_true", help="demo trace (default: smoke)"
    )
    p.set_defaults(fn=cmd_write_trace)

    p = sub.add_parser("replay", help="deterministic in-process replay")
    p.add_argument("trace")
    p.add_argument("--horizon", type=int, default=None)
    p.set_defaults(fn=cmd_replay)

    p = sub.add_parser("demo", help="acceptance demo (3 tenants, 126 jobs)")
    p.set_defaults(fn=cmd_demo)

    p = sub.add_parser("smoke", help="frontend smoke over a real socket")
    p.add_argument(
        "--trace", default=None, help="trace file (default: built-in smoke)"
    )
    p.set_defaults(fn=cmd_smoke)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ConnectionRefusedError:
        print(
            f"error: no service at {args.host}:{args.port} "
            "(start one with: python -m repro.service serve)",
            file=sys.stderr,
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())
