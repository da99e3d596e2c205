"""The asyncio socket frontend: many concurrent clients, one core.

The protocol is newline-delimited JSON over a local TCP socket: each
request is one JSON object with an ``op`` field, each response one JSON
object with ``ok`` plus op-specific payload.  Handlers run on a single
asyncio loop, so every :meth:`ServiceCore.submit` is atomic with respect
to other clients — concurrency quota checks cannot race.

The simulated cluster advances on a *pump* task that interleaves bounded
:meth:`ServiceCore.step` slices with the socket I/O: submissions land
between slices, and clients blocked in ``result(wait=True)`` are woken
the moment their job turns terminal.  A ``shutdown`` request drains the
core (no new admissions, queued jobs still finish) and stops the server
once the last job is terminal.

Ops::

    {"op": "ping"}
    {"op": "kinds"}
    {"op": "submit", "spec": {"tenant": ..., "kind": ..., "params": {...}}}
    {"op": "status", "job_id": "job-00001"}
    {"op": "result", "job_id": "job-00001", "wait": true}
    {"op": "stats"}
    {"op": "drain"}
    {"op": "shutdown"}
"""

from __future__ import annotations

import asyncio
import json
from typing import Any

from repro.service.catalog import job_kinds
from repro.service.core import ServiceCore
from repro.service.jobs import JobSpec

#: pump sleep while the core is idle (wall-clock seconds); short enough
#: that a fresh submission is picked up promptly, long enough that an
#: idle service does not spin a CPU
IDLE_POLL_SECONDS = 0.002


class ServiceError(RuntimeError):
    """A request the service answered with ``ok: false``."""


class ServiceFrontend:
    """Socket server wrapping one :class:`ServiceCore`."""

    def __init__(
        self, core: ServiceCore, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self.core = core
        self.host = host
        self.port = port
        self._server: asyncio.AbstractServer | None = None
        self._pump_task: asyncio.Task | None = None
        self._waiters: dict[str, asyncio.Event] = {}
        self._shutdown_requested = False

    async def start(self) -> tuple[str, int]:
        """Bind (port 0 = ephemeral) and start the pump; returns address."""
        self._server = await asyncio.start_server(
            self._handle_client, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._pump_task = asyncio.create_task(self._pump())
        return self.host, self.port

    async def serve(self) -> None:
        """Run until a ``shutdown`` request has drained the core."""
        assert self._pump_task is not None, "call start() first"
        await self._pump_task
        await self.stop()

    async def stop(self) -> None:
        """Stop serving immediately (queued work is abandoned in place)."""
        if self._pump_task is not None and not self._pump_task.done():
            self._shutdown_requested = True
            self.core.draining = True
            self._pump_task.cancel()
            try:
                await self._pump_task
            except asyncio.CancelledError:
                pass
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # -- the pump ----------------------------------------------------------------

    async def _pump(self) -> None:
        while True:
            if self.core.idle:
                if self._shutdown_requested:
                    return
                await asyncio.sleep(IDLE_POLL_SECONDS)
                continue
            self.core.step()
            self._wake_finished()
            # yield so submissions and result reads interleave with slices
            await asyncio.sleep(0)

    def _wake_finished(self) -> None:
        if not self._waiters:
            return
        done = [
            job_id
            for job_id in self._waiters
            if self.core.jobs[job_id].terminal
        ]
        for job_id in done:
            self._waiters.pop(job_id).set()

    # -- request handling --------------------------------------------------------

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                try:
                    request = json.loads(line)
                    if not isinstance(request, dict):
                        raise TypeError("a request must be a JSON object")
                    response = await self._dispatch(request)
                except ServiceError as exc:
                    response = {"ok": False, "error": str(exc)}
                except (
                    json.JSONDecodeError,
                    KeyError,
                    TypeError,
                    ValueError,
                ) as exc:
                    response = {
                        "ok": False,
                        "error": f"bad request: {exc}",
                    }
                writer.write(json.dumps(response).encode() + b"\n")
                await writer.drain()
                if response.get("bye"):
                    break
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    async def _dispatch(self, request: dict) -> dict:
        op = request.get("op")
        if op == "ping":
            return {"ok": True, "time": self.core.engine.now}
        if op == "kinds":
            return {"ok": True, "kinds": list(job_kinds())}
        if op == "submit":
            if not isinstance(request["spec"], dict):
                raise TypeError("a submit's spec must be a JSON object")
            spec = JobSpec.from_dict(request["spec"])
            record = self.core.submit(spec)
            return {"ok": True, "job": record.to_status()}
        if op == "status":
            status = self.core.status(str(request["job_id"]))
            if status is None:
                raise ServiceError(f"unknown job {request['job_id']!r}")
            return {"ok": True, "job": status}
        if op == "result":
            job_id = str(request["job_id"])
            record = self.core.jobs.get(job_id)
            if record is None:
                raise ServiceError(f"unknown job {job_id!r}")
            if request.get("wait", True) and not record.terminal:
                event = self._waiters.setdefault(job_id, asyncio.Event())
                await event.wait()
            return {"ok": True, "job": record.to_result()}
        if op == "stats":
            return {"ok": True, "stats": self.core.stats()}
        if op == "drain":
            self.core.drain()
            return {"ok": True, "draining": True}
        if op == "shutdown":
            self.core.drain()
            self._shutdown_requested = True
            return {"ok": True, "bye": True}
        raise ServiceError(f"unknown op {op!r}")


class ServiceClient:
    """Async client for one frontend connection.

    Usable as an async context manager; every method returns the
    response payload or raises :class:`ServiceError` on ``ok: false``.
    """

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None

    async def __aenter__(self) -> "ServiceClient":
        await self.connect()
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.close()

    async def connect(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass
            self._reader = self._writer = None

    async def request(self, op: str, **fields: Any) -> dict:
        assert self._reader is not None and self._writer is not None
        payload = {"op": op, **fields}
        self._writer.write(json.dumps(payload).encode() + b"\n")
        await self._writer.drain()
        line = await self._reader.readline()
        if not line:
            raise ServiceError("connection closed by service")
        response = json.loads(line)
        if not response.get("ok"):
            raise ServiceError(response.get("error", "request failed"))
        return response

    async def ping(self) -> float:
        return float((await self.request("ping"))["time"])

    async def kinds(self) -> list[str]:
        return list((await self.request("kinds"))["kinds"])

    async def submit(self, spec: JobSpec | dict) -> dict:
        data = spec.to_dict() if isinstance(spec, JobSpec) else dict(spec)
        return (await self.request("submit", spec=data))["job"]

    async def status(self, job_id: str) -> dict:
        return (await self.request("status", job_id=job_id))["job"]

    async def result(self, job_id: str, wait: bool = True) -> dict:
        return (await self.request("result", job_id=job_id, wait=wait))[
            "job"
        ]

    async def stats(self) -> dict:
        return (await self.request("stats"))["stats"]

    async def drain(self) -> dict:
        return await self.request("drain")

    async def shutdown(self) -> dict:
        return await self.request("shutdown")


def call(host: str, port: int, op: str, **fields: Any) -> dict:
    """One-shot synchronous request (the CLI's client path)."""

    async def _run() -> dict:
        async with ServiceClient(host, port) as client:
            return await client.request(op, **fields)

    return asyncio.run(_run())
