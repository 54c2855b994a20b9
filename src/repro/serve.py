"""``repro serve``: campaign-as-a-service on a newline-JSON protocol.

One long-lived process answers many concurrent campaign/adapt requests,
so request N never pays pool startup again: worker pools stay warm
across requests (one :class:`~repro.ptest.pool.WorkerPool` per worker
count per server process).

**Protocol.**  Stdlib ``asyncio.start_server``; each line is one JSON
object of at most :data:`MAX_LINE_BYTES`.  Client → server operations:

``{"op": "run", "id": ..., "spec": {...}, "stream_cells": bool}``
    Execute a :class:`~repro.ptest.spec.CampaignSpec`.  The server
    answers with an ``accepted`` frame (admission telemetry), then —
    incrementally, as execution proceeds — optional ``cell`` frames
    (every completed cell, submission order, when ``stream_cells`` is
    on), one ``round`` frame per completed round, and finally ``done``
    or ``error``.
``{"op": "ping"}`` / ``{"op": "status"}`` / ``{"op": "shutdown"}``
    Liveness, pool/queue telemetry, and graceful drain: ``shutdown``
    stops admitting new runs, lets every in-flight request finish, and
    then closes the listener.

Requests multiplex onto the shared pools under admission control — a
bounded semaphore of ``max_concurrent`` concurrently-executing
requests; excess requests *queue* (their ``accepted`` frame says so,
with the queue depth) rather than being rejected.  Each request's
rows/detections stream back through a socket-backed
:class:`~repro.ptest.executor.ResultSink` bridged from the executor
thread into the connection's writer task, and error handling reuses
the CLI's exit-3 machinery: ``error`` frames carry the same one-line
:func:`~repro.ptest.executor.executor_diagnosis` and quarantine hint,
and a hung request is bounded by the spec's own watchdog
(``cell_timeout``), never by killing the server.

**Determinism.**  ``round`` frames are
:func:`~repro.ptest.spec.round_to_dict` payloads of JSON-exact
scalars, so what a client rebuilds is bit-identical to a direct
:func:`~repro.ptest.spec.execute_spec` of the same spec — at any
(concurrent clients, workers, batch_size).
"""

from __future__ import annotations

import asyncio
import json
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable

from repro.errors import ConfigError, ReproError
from repro.ptest.executor import (
    EXECUTOR_FAILURES,
    QUARANTINE_HINT,
    WorkCell,
    executor_diagnosis,
)
from repro.ptest.harness import TestRunResult
from repro.ptest.pool import pool_telemetry
from repro.ptest.spec import CampaignSpec, execute_spec, round_to_dict

PROTOCOL_VERSION = 1

#: Longest request line the server reads, newline included.  asyncio's
#: default 64 KiB stream limit would refuse a campaign spec of ~10,000
#: seeds; a longer line gets a ``protocol`` error frame, then the
#: connection closes (its framing is lost).
MAX_LINE_BYTES = 1 << 20


@dataclass
class _CallbackSink:
    """ResultSink adapter: forwards each completed cell to a callable
    (the server's thread-to-loop bridge)."""

    callback: Callable[[WorkCell, TestRunResult], None]

    def accept(self, cell: WorkCell, result: TestRunResult) -> None:
        self.callback(cell, result)


class CampaignServer:
    """The asyncio front-end.  See the module docstring for protocol.

    ``max_concurrent`` bounds simultaneously *executing* requests;
    arrivals beyond it queue on the admission semaphore in FIFO order.
    Spec execution itself is synchronous (it drives worker pools), so
    each admitted request runs on a thread of ``_work`` while the event
    loop keeps serving other connections.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_concurrent: int = 4,
    ):
        if max_concurrent < 1:
            raise ConfigError(
                f"max_concurrent must be >= 1, got {max_concurrent}"
            )
        self.host = host
        self.port = port
        self.max_concurrent = max_concurrent
        self._server: asyncio.base_events.Server | None = None
        self._semaphore = asyncio.Semaphore(max_concurrent)
        self._work = ThreadPoolExecutor(
            max_workers=max_concurrent, thread_name_prefix="repro-serve"
        )
        self._running = 0
        self._queued = 0
        self._served = 0
        self._request_seq = 0
        self._draining = False
        self._run_tasks: set[asyncio.Task] = set()
        self._handlers: set[asyncio.Task] = set()
        self._writers: set[asyncio.StreamWriter] = set()
        self._closed = asyncio.Event()

    # -- lifecycle ---------------------------------------------------

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._on_connection, self.host, self.port, limit=MAX_LINE_BYTES
        )
        self.port = self._server.sockets[0].getsockname()[1]

    @property
    def address(self) -> tuple[str, int]:
        return (self.host, self.port)

    async def wait_closed(self) -> None:
        """Blocks until a ``shutdown`` request has fully drained."""
        await self._closed.wait()

    def request_shutdown(self) -> None:
        """Begin a graceful drain (idempotent; also the ``shutdown``
        op's implementation): stop admitting runs, finish in-flight
        ones, then close the listener and release :meth:`wait_closed`."""
        if self._draining:
            return
        self._draining = True
        asyncio.get_running_loop().create_task(self._drain_and_close())

    async def _drain_and_close(self) -> None:
        while self._run_tasks:
            await asyncio.gather(
                *tuple(self._run_tasks), return_exceptions=True
            )
        if self._server is not None:
            self._server.close()
        # Deterministic teardown of the surviving connections: closing
        # each writer EOFs its reader loop, so every handler exits on
        # its normal path before the loop itself shuts down (no
        # cancelled-task noise at interpreter exit).
        for writer in tuple(self._writers):
            writer.close()
        if self._handlers:
            await asyncio.gather(
                *tuple(self._handlers), return_exceptions=True
            )
        self._work.shutdown(wait=True)
        self._closed.set()

    # -- connection handling -----------------------------------------

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        handler = asyncio.current_task()
        if handler is not None:
            self._handlers.add(handler)
        self._writers.add(writer)
        frames: asyncio.Queue = asyncio.Queue()
        writer_task = asyncio.get_running_loop().create_task(
            self._write_frames(frames, writer)
        )
        conn_tasks: list[asyncio.Task] = []
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    frames.put_nowait(
                        _error_frame(
                            None,
                            "protocol",
                            None,
                            f"request line exceeds {MAX_LINE_BYTES} bytes; "
                            "closing the connection",
                        )
                    )
                    # Read the rest of the line before closing, so the
                    # client finishes sending and gets the error frame
                    # instead of a reset.
                    while True:
                        chunk = await reader.read(1 << 16)
                        if not chunk or b"\n" in chunk:
                            break
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                try:
                    message = json.loads(line)
                    if not isinstance(message, dict):
                        raise ValueError("expected a JSON object")
                except (json.JSONDecodeError, ValueError, RecursionError) as error:
                    # Malformed input (RecursionError: nesting too deep
                    # for the decoder) is recoverable on a line-framed
                    # protocol: report it and keep the connection.
                    frames.put_nowait(
                        _error_frame(
                            None, "protocol", None, f"malformed request: {error}"
                        )
                    )
                    continue
                task = self._dispatch(message, frames)
                if task is not None:
                    conn_tasks.append(task)
        finally:
            # Client closed (or errored): let this connection's
            # in-flight runs finish — their frames are dropped by the
            # writer if the socket is gone, but shared-pool state and
            # admission accounting always settle.
            if conn_tasks:
                await asyncio.gather(*conn_tasks, return_exceptions=True)
            frames.put_nowait(None)
            await writer_task
            self._writers.discard(writer)
            if handler is not None:
                self._handlers.discard(handler)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    def _dispatch(
        self, message: dict[str, Any], frames: asyncio.Queue
    ) -> asyncio.Task | None:
        op = message.get("op")
        request_id = message.get("id")
        if op == "ping":
            frames.put_nowait(
                {"type": "pong", "id": request_id, "version": PROTOCOL_VERSION}
            )
            return None
        if op == "status":
            frames.put_nowait(self._status_frame(request_id))
            return None
        if op == "shutdown":
            frames.put_nowait(
                {
                    "type": "shutdown",
                    "id": request_id,
                    "draining": self._running + self._queued,
                }
            )
            self.request_shutdown()
            return None
        if op == "run":
            task = asyncio.get_running_loop().create_task(
                self._run_request(message, frames)
            )
            self._run_tasks.add(task)
            task.add_done_callback(self._run_tasks.discard)
            return task
        frames.put_nowait(
            _error_frame(
                request_id,
                "protocol",
                None,
                f"unknown op {op!r}; expected run, ping, status or shutdown",
            )
        )
        return None

    def _status_frame(self, request_id: Any) -> dict[str, Any]:
        return {
            "type": "status",
            "id": request_id,
            "version": PROTOCOL_VERSION,
            "active": self._running,
            "queue_depth": self._queued,
            "served": self._served,
            "max_concurrent": self.max_concurrent,
            "draining": self._draining,
            "pools": pool_telemetry(),
        }

    async def _write_frames(
        self, frames: asyncio.Queue, writer: asyncio.StreamWriter
    ) -> None:
        """Single writer per connection: serialises frames from every
        producer (reader loop, run tasks, executor threads via
        ``call_soon_threadsafe``) onto the socket in queue order."""
        gone = False
        while True:
            frame = await frames.get()
            if frame is None:
                return
            if gone:
                continue  # drain producers of a dead connection
            try:
                writer.write(json.dumps(frame).encode() + b"\n")
                await writer.drain()
            except (ConnectionError, RuntimeError, OSError):
                gone = True

    # -- request execution -------------------------------------------

    async def _run_request(
        self, message: dict[str, Any], frames: asyncio.Queue
    ) -> None:
        self._request_seq += 1
        request_id = message.get("id")
        if request_id is None:
            request_id = f"r{self._request_seq}"
        try:
            spec = CampaignSpec.from_dict(message.get("spec"))
        except ConfigError as error:
            frames.put_nowait(_error_frame(request_id, "config", 2, str(error)))
            return
        if self._draining:
            frames.put_nowait(
                _error_frame(
                    request_id,
                    "shutdown",
                    None,
                    "server is draining; resubmit to a live server",
                )
            )
            return
        queued = self._running >= self.max_concurrent
        self._queued += 1
        frames.put_nowait(
            {
                "type": "accepted",
                "id": request_id,
                "queued": queued,
                "queue_depth": self._queued,
                "active": self._running,
            }
        )
        loop = asyncio.get_running_loop()
        stream_cells = bool(message.get("stream_cells"))
        async with self._semaphore:
            self._queued -= 1
            self._running += 1
            try:
                sink = None
                if stream_cells:
                    sink = _CallbackSink(
                        partial(_post_cell, loop, frames, request_id)
                    )
                outcome, error = await loop.run_in_executor(
                    self._work,
                    partial(
                        _execute_guarded,
                        spec,
                        sink,
                        partial(_post_round, loop, frames, request_id),
                    ),
                )
            finally:
                self._running -= 1
                self._served += 1
        if error is not None:
            frames.put_nowait(_classify_error(request_id, spec, error))
            return
        quarantine = outcome.rounds[-1].quarantine
        frames.put_nowait(
            {
                "type": "done",
                "id": request_id,
                "rounds": len(outcome.rounds),
                "stopped_early": outcome.stopped_early,
                "pool_ids": list(outcome.pool_ids),
                "resumed_rounds": outcome.resumed_rounds,
                "rounds_budget": outcome.rounds_budget,
                "total_detections": sum(
                    round_.total_detections for round_ in outcome.rounds
                ),
                "schedule": outcome.schedule,
                "quarantine": (
                    quarantine.describe() if quarantine is not None else None
                ),
            }
        )


def _execute_guarded(spec, sink, on_round):
    """Run ``execute_spec`` on an executor thread, returning the error
    instead of raising — a raised ``CancelledError`` would otherwise
    read as a cancelled future on the loop side and lose its identity.
    """
    try:
        return execute_spec(spec, sink, on_round=on_round), None
    except BaseException as error:  # noqa: BLE001 - classified by caller
        return None, error


def _post_cell(loop, frames, request_id, cell, result) -> None:
    frame = {
        "type": "cell",
        "id": request_id,
        "variant": cell.variant,
        "seed": cell.seed,
        "found_bug": result.found_bug,
        "kind": (
            result.report.primary.kind.value if result.found_bug else None
        ),
    }
    loop.call_soon_threadsafe(frames.put_nowait, frame)


def _post_round(loop, frames, request_id, round_result) -> None:
    frame = {
        "type": "round",
        "id": request_id,
        "round": round_to_dict(round_result),
    }
    loop.call_soon_threadsafe(frames.put_nowait, frame)


def _error_frame(
    request_id: Any,
    kind: str,
    exit_code: int | None,
    message: str,
    hint: str | None = None,
    quarantine: str | None = None,
) -> dict[str, Any]:
    frame: dict[str, Any] = {
        "type": "error",
        "id": request_id,
        "kind": kind,
        "exit_code": exit_code,
        "message": message,
    }
    if hint is not None:
        frame["hint"] = hint
    if quarantine is not None:
        frame["quarantine"] = quarantine
    return frame


def _classify_error(
    request_id: Any, spec: CampaignSpec, error: BaseException
) -> dict[str, Any]:
    """The CLI's exit-code mapping, as a structured frame: executor
    failures (exit 3) keep the one-line diagnosis and quarantine hint;
    config mistakes (exit 2) carry the message verbatim."""
    if isinstance(error, EXECUTOR_FAILURES):
        return _error_frame(
            request_id,
            "executor",
            3,
            executor_diagnosis(error),
            hint=None if spec.quarantine else QUARANTINE_HINT,
        )
    if isinstance(error, (ReproError, ValueError)):
        return _error_frame(request_id, "config", 2, str(error))
    return _error_frame(
        request_id,
        "internal",
        None,
        f"{type(error).__name__}: {error}",
    )


# -- embedding helpers ---------------------------------------------------------


async def serve(
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    max_concurrent: int = 4,
    ready: Callable[[tuple[str, int]], None] | None = None,
) -> None:
    """Start a :class:`CampaignServer` and run until a client sends
    ``shutdown`` (the ``repro serve`` entry point).  ``ready`` is
    called with the bound ``(host, port)`` once listening."""
    server = CampaignServer(host, port, max_concurrent=max_concurrent)
    await server.start()
    if ready is not None:
        ready(server.address)
    await server.wait_closed()


@dataclass
class ServerHandle:
    """A server running on a background thread (tests, examples,
    benches).  ``close()`` drains gracefully and joins the thread."""

    host: str
    port: int
    _thread: threading.Thread
    _loop: asyncio.AbstractEventLoop
    _server: CampaignServer

    @property
    def address(self) -> tuple[str, int]:
        return (self.host, self.port)

    def close(self) -> None:
        if self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._server.request_shutdown)
        self._thread.join(timeout=60)

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def start_server_thread(
    host: str = "127.0.0.1", port: int = 0, *, max_concurrent: int = 4
) -> ServerHandle:
    """Run a :class:`CampaignServer` on a daemon thread; returns once
    it is accepting connections."""
    started = threading.Event()
    box: dict[str, Any] = {}

    def main() -> None:
        async def body() -> None:
            server = CampaignServer(host, port, max_concurrent=max_concurrent)
            await server.start()
            box["server"] = server
            box["loop"] = asyncio.get_running_loop()
            box["port"] = server.port
            started.set()
            await server.wait_closed()

        asyncio.run(body())

    thread = threading.Thread(
        target=main, name="repro-serve-main", daemon=True
    )
    thread.start()
    if not started.wait(timeout=30):
        raise RuntimeError("campaign server failed to start within 30s")
    return ServerHandle(
        host=host,
        port=box["port"],
        _thread=thread,
        _loop=box["loop"],
        _server=box["server"],
    )
