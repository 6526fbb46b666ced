"""Closed- and open-loop load generation, in-process and over HTTP/1.1.

Each loop calls ``call(index)`` — a coroutine that serves request ``index``
and returns its prediction or raises — and records one dict per request:
``index``, ``due`` (open loop only), ``sent``, ``done``, ``status`` and
``prediction``.  All times are ``time.perf_counter()`` seconds.

* :func:`closed_loop` keeps one request per caller in flight: each caller
  sends its next request when the previous one completes, until the phase
  ends or the request pool runs out.
* :func:`open_loop` sends each request at its due time whether or not earlier
  ones completed.  Latency is taken from the due time, so a stall also
  charges the requests queued behind it; how late the generator itself sent
  each request is recorded as ``sent - due``.

:class:`HttpConnection` is a minimal keep-alive HTTP/1.1 client that pipelines:
a request is written at once and its response future resolves in FIFO order,
so an open-loop phase over two connections still sends on schedule.
"""

from __future__ import annotations

import asyncio
import collections
import json
import time
from typing import Awaitable, Callable, Deque, Dict, List, Sequence, Tuple

Call = Callable[[int], Awaitable[object]]


def _status_of(error: BaseException) -> str:
    code = getattr(error, "code", None)
    return str(code) if code else type(error).__name__


async def timed(call: Call, index: int, record: dict) -> dict:
    """Serve request ``index`` through ``call`` and fill in ``record``."""
    record["sent"] = time.perf_counter()
    try:
        record["prediction"] = await call(index)
        record["status"] = "ok"
    except Exception as error:  # every failure is data: it counts against the run
        record["status"] = _status_of(error)
    record["done"] = time.perf_counter()
    return record


async def closed_loop(calls: Sequence[Call], indices: Sequence[int],
                      duration: float) -> Tuple[List[dict], float, float]:
    """Run one caller per entry of ``calls`` over ``indices`` for ``duration`` seconds.

    Returns ``(records, start, end)``; ``end`` is the last completion, so the
    in-flight tail of the phase is part of the measured interval.
    """
    records: List[dict] = []
    pending = iter(indices)
    start = time.perf_counter()
    deadline = start + duration

    async def caller(call: Call) -> None:
        while time.perf_counter() < deadline:
            index = next(pending, None)
            if index is None:
                return
            records.append(await timed(call, index, {"index": index}))

    await asyncio.gather(*(caller(call) for call in calls))
    end = max((record["done"] for record in records), default=time.perf_counter())
    return records, start, end


async def open_loop(call: Call, indices: Sequence[int], due_offsets: Sequence[float]
                    ) -> Tuple[List[dict], float]:
    """Send request ``indices[k]`` at ``start + due_offsets[k]``; returns ``(records, start)``."""
    tasks: List[asyncio.Task] = []
    start = time.perf_counter() + 0.01
    for index, offset in zip(indices, due_offsets):
        due = start + float(offset)
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.ensure_future(timed(call, index, {"index": index, "due": due})))
    records = list(await asyncio.gather(*tasks))
    return records, start


class HttpError(Exception):
    """A non-200 reply; ``code`` is the HTTP status."""

    def __init__(self, status: int, body: bytes) -> None:
        super().__init__(f"HTTP {status}: {body[:200]!r}")
        self.code = status


class HttpConnection:
    """One pipelining keep-alive HTTP/1.1 connection to the benchmark server."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter,
                 host: str) -> None:
        self._reader = reader
        self._writer = writer
        self._host = host
        self._waiting: Deque[asyncio.Future] = collections.deque()
        self._pump = asyncio.ensure_future(self._read_responses())

    @classmethod
    async def open(cls, host: str, port: int) -> "HttpConnection":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer, host)

    def post(self, path: str, payload: dict) -> "asyncio.Future[dict]":
        """Write one JSON POST now; the future resolves to the decoded reply."""
        body = json.dumps(payload).encode()
        head = (f"POST {path} HTTP/1.1\r\nHost: {self._host}\r\n"
                f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n")
        future: "asyncio.Future[dict]" = asyncio.get_running_loop().create_future()
        self._waiting.append(future)
        self._writer.write(head.encode("latin-1") + body)
        return future

    async def _read_responses(self) -> None:
        try:
            while True:
                status_line = await self._reader.readline()
                if not status_line:
                    raise ConnectionError("server closed the connection")
                status = int(status_line.split()[1])
                length = 0
                while True:
                    line = await self._reader.readline()
                    if line in (b"\r\n", b"\n", b""):
                        break
                    name, _, value = line.decode("latin-1").partition(":")
                    if name.strip().lower() == "content-length":
                        length = int(value)
                body = await self._reader.readexactly(length)
                future = self._waiting.popleft()
                if future.done():
                    continue
                if status == 200:
                    future.set_result(json.loads(body))
                else:
                    future.set_exception(HttpError(status, body))
        except (ConnectionError, asyncio.IncompleteReadError) as error:
            while self._waiting:
                future = self._waiting.popleft()
                if not future.done():
                    future.set_exception(ConnectionError(str(error)))

    async def close(self) -> None:
        self._pump.cancel()
        try:
            await self._pump
        except asyncio.CancelledError:
            pass
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except ConnectionError:
            pass


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (linear interpolation), or 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def lateness_ms(records: Sequence[dict]) -> List[float]:
    """How late the generator sent each open-loop request (ms)."""
    return [(record["sent"] - record["due"]) * 1e3 for record in records]


def phase_summary(records: Sequence[dict], limit_ms: float, scale: float = 1.0) -> Dict[str, float]:
    """Counts, latency percentiles and generator lateness of open-loop requests.

    Latency runs from each request's due time, covers served requests and is
    multiplied by ``scale``; ``within`` counts those within ``limit_ms``.
    Lateness is as measured.
    """
    latency = [(record["done"] - record["due"]) * 1e3 * scale
               for record in records if record["status"] == "ok"]
    return {
        "attempted": len(records),
        "within": sum(1 for value in latency if value <= limit_ms),
        "latency_p50_ms": percentile(latency, 50),
        "latency_p95_ms": percentile(latency, 95),
        "late_ms_p99": percentile(lateness_ms(records), 99),
        "scale": scale,
    }
