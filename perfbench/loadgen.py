"""An open-loop HTTP load generator: one process, a few keep-alive sockets.

Requests fall due on a fixed schedule whether or not earlier ones have
finished (independent users, not callers waiting on replies), so a
stalled server builds a queue.  A dispatcher coroutine wakes at each due
time and queues the request; each connection sends the oldest queued
request as soon as it is free.  Every latency is measured from the
request's *due* time, so waiting behind a busy connection counts.

How late the dispatcher itself woke is recorded separately: that is the
generator falling behind, not the server, and a phase in which it did
is invalid.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field


@dataclass
class Request:
    due_s: float               #: offset from the phase start
    kind: str                  #: "price" or "sweep"
    body: bytes
    key: object = None         #: what the checks group responses by


@dataclass
class Outcome:
    request: Request
    status: int | None         #: None: refused or the connection failed
    body: bytes
    latency_s: float           #: completion minus due time


@dataclass
class PhaseResult:
    outcomes: list[Outcome] = field(default_factory=list)
    dispatch_late_s: list[float] = field(default_factory=list)
    unsent: int = 0            #: still queued when the phase was cut


class Connection:
    """One HTTP/1.1 keep-alive connection (reconnects after a failure)."""

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port
        self.reader: asyncio.StreamReader | None = None
        self.writer: asyncio.StreamWriter | None = None

    async def request(self, method: str, path: str,
                      body: bytes = b"") -> tuple[int, bytes]:
        if self.writer is None:
            self.reader, self.writer = await asyncio.open_connection(
                self.host, self.port)
        head = (f"{method} {path} HTTP/1.1\r\n"
                f"Host: {self.host}:{self.port}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n\r\n")
        self.writer.write(head.encode("latin-1") + body)
        await self.writer.drain()
        status_line = await self.reader.readline()
        if not status_line:
            raise ConnectionResetError("server closed the connection")
        status = int(status_line.split()[1])
        length = 0
        closing = False
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            name = name.strip().lower()
            if name == "content-length":
                length = int(value.strip())
            elif name == "connection" and value.strip().lower() == "close":
                closing = True
        data = await self.reader.readexactly(length)
        if closing:
            await self.close()
        return status, data

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
        self.reader = self.writer = None


PATHS = {"price": "/v1/price", "sweep": "/v1/sweep"}


async def run_phase(conns: list[Connection], schedule: list[Request],
                    duration_s: float) -> PhaseResult:
    """Offer ``schedule`` open-loop; stop sending at ``duration_s``.

    Requests still queued when the phase ends are not sent (``unsent``);
    requests in flight are awaited, so every sent request has an outcome.
    """
    loop = asyncio.get_running_loop()
    queue: asyncio.Queue = asyncio.Queue()
    result = PhaseResult()
    start = loop.time() + 0.02
    stop_at = start + duration_s

    async def dispatcher() -> None:
        for request in schedule:
            due = start + request.due_s
            if due >= stop_at:
                break
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            result.dispatch_late_s.append(max(0.0, loop.time() - due))
            queue.put_nowait((due, request))
        for _ in conns:
            queue.put_nowait(None)

    async def worker(conn: Connection) -> None:
        while True:
            item = await queue.get()
            if item is None:
                return
            due, request = item
            if loop.time() >= stop_at:
                result.unsent += 1
                continue
            try:
                status, body = await conn.request("POST", PATHS[request.kind],
                                                  request.body)
            except (OSError, asyncio.IncompleteReadError, ValueError,
                    IndexError):
                await conn.close()
                status, body = None, b""
            result.outcomes.append(Outcome(
                request=request, status=status, body=body,
                latency_s=loop.time() - due))

    tasks = [asyncio.create_task(dispatcher())]
    tasks += [asyncio.create_task(worker(conn)) for conn in conns]
    try:
        await asyncio.gather(*tasks)
    finally:
        for task in tasks:
            task.cancel()
    return result
