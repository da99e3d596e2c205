"""Socket frontend: protocol, concurrent clients, drain and shutdown.

All tests drive a real TCP server on an ephemeral loopback port via
``asyncio.run`` (no asyncio test plugin needed).
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.service import (
    JobSpec,
    ServiceConfig,
    ServiceCore,
    TenantConfig,
)
from repro.service.frontend import (
    ServiceClient,
    ServiceError,
    ServiceFrontend,
)

COMPUTE = {"flops": 4.8e7, "tasks": 4}


def small_core() -> ServiceCore:
    return ServiceCore(
        ServiceConfig(
            nodes=2,
            cores_per_node=2,
            tenants=(
                TenantConfig("alpha", weight=2.0),
                TenantConfig("beta", weight=1.0, max_concurrent_jobs=1),
            ),
            max_running_jobs=2,
        )
    )


def run_with_frontend(scenario):
    """Start a frontend, run the async scenario against it, stop cleanly."""

    async def _main():
        core = small_core()
        frontend = ServiceFrontend(core)
        host, port = await frontend.start()
        try:
            return await scenario(core, host, port)
        finally:
            await frontend.stop()

    return asyncio.run(_main())


def test_submit_result_roundtrip():
    async def scenario(core, host, port):
        async with ServiceClient(host, port) as client:
            job = await client.submit(
                JobSpec(tenant="alpha", kind="grid_sum", params={"n": 8})
            )
            assert job["state"] == "queued"
            assert job["verdict"]["accepted"]
            result = await client.result(job["job_id"], wait=True)
            assert result["state"] == "completed"
            expected = float(
                sum((i + j) ** 2 for i in range(8) for j in range(8))
            )
            assert result["result"] == pytest.approx(expected)
            status = await client.status(job["job_id"])
            assert "result" not in status
        return core

    core = run_with_frontend(scenario)
    assert core.jobs["job-00001"].state == "completed"


def test_rejection_is_structured_response_not_error():
    async def scenario(core, host, port):
        async with ServiceClient(host, port) as client:
            job = await client.submit(
                JobSpec(tenant="alpha", kind="bad_overlap")
            )
            assert job["state"] == "rejected"
            assert job["verdict"]["reason"] == "analysis"
            assert job["verdict"]["counts"]["error"] > 0
            # result is immediately available for terminal jobs
            result = await client.result(job["job_id"], wait=True)
            assert result["node_seconds"] == 0.0

    run_with_frontend(scenario)


def test_concurrent_clients_share_one_cluster():
    async def scenario(core, host, port):
        results = []

        async def tenant_client(tenant, count):
            async with ServiceClient(host, port) as client:
                jobs = []
                for _ in range(count):
                    jobs.append(
                        await client.submit(
                            JobSpec(
                                tenant=tenant,
                                kind="compute",
                                params=COMPUTE,
                            )
                        )
                    )
                    await asyncio.sleep(0)
                for job in jobs:
                    results.append(
                        await client.result(job["job_id"], wait=True)
                    )

        await asyncio.gather(
            tenant_client("alpha", 5), tenant_client("beta", 5)
        )
        return results

    results = run_with_frontend(scenario)
    assert len(results) == 10
    assert all(job["state"] == "completed" for job in results)
    # both tenants' jobs interleaved on the same simulated clock
    finish_times = sorted(job["finished_at"] for job in results)
    assert finish_times[0] < finish_times[-1]


def test_stats_kinds_ping_ops():
    async def scenario(core, host, port):
        async with ServiceClient(host, port) as client:
            assert "compute" in await client.kinds()
            assert await client.ping() == 0.0
            await client.submit(
                JobSpec(tenant="alpha", kind="compute", params=COMPUTE)
            )
            stats = await client.stats()
            assert stats["jobs"] == 1

    run_with_frontend(scenario)


def test_unknown_job_and_bad_requests():
    async def scenario(core, host, port):
        async with ServiceClient(host, port) as client:
            with pytest.raises(ServiceError, match="unknown job"):
                await client.status("job-99999")
            with pytest.raises(ServiceError, match="unknown op"):
                await client.request("frobnicate")
        # raw garbage, and well-formed JSON that is not a request object,
        # get a structured error on one connection that stays open
        reader, writer = await asyncio.open_connection(host, port)
        for line in (
            b"this is not json",
            b"[1, 2]",
            b"42",
            b'"ping"',
            b'{"op": "submit", "spec": 7}',
        ):
            writer.write(line + b"\n")
            await writer.drain()
            response = json.loads(await reader.readline())
            assert response["ok"] is False, line
            assert "bad request" in response["error"], line
        writer.write(b'{"op": "ping"}\n')
        await writer.drain()
        assert json.loads(await reader.readline())["ok"] is True
        writer.close()
        await writer.wait_closed()

    run_with_frontend(scenario)


def test_drain_refuses_but_finishes_queued():
    async def scenario(core, host, port):
        async with ServiceClient(host, port) as client:
            first = await client.submit(
                JobSpec(tenant="alpha", kind="compute", params=COMPUTE)
            )
            await client.drain()
            second = await client.submit(
                JobSpec(tenant="alpha", kind="compute", params=COMPUTE)
            )
            assert second["state"] == "rejected"
            assert second["verdict"]["reason"] == "draining"
            result = await client.result(first["job_id"], wait=True)
            assert result["state"] == "completed"

    run_with_frontend(scenario)


def test_shutdown_stops_server_after_drain():
    async def _main():
        core = small_core()
        frontend = ServiceFrontend(core)
        host, port = await frontend.start()
        async with ServiceClient(host, port) as client:
            job = await client.submit(
                JobSpec(tenant="alpha", kind="compute", params=COMPUTE)
            )
            response = await client.shutdown()
            assert response["bye"]
        # serve() returns once the already-queued job has finished
        await asyncio.wait_for(frontend.serve(), timeout=30)
        assert core.jobs[job["job_id"]].terminal
        assert core.idle

    asyncio.run(_main())
