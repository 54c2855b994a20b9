"""``repro.client``: blocking stdlib-socket client for ``repro serve``.

The thin side of the campaign-as-a-service split: a
:class:`~repro.ptest.spec.CampaignSpec` goes out as one JSON line, the
server's frames come back line by line, and :meth:`Client.run` rebuilds
them into a :class:`RemoteOutcome` whose ``rounds`` compare *equal* to
a direct :func:`~repro.ptest.spec.execute_spec` of the same spec — the
serve bit-identity contract, exercised end to end by
``tests/test_serve_client.py`` and ``examples/serve_client.py``.

Server-reported failures surface as :class:`ServerError` carrying the
structured frame's kind (``config`` / ``executor`` / ``protocol``),
the CLI-equivalent exit code, and any hint — so embedders branch on
the same taxonomy whether the campaign ran locally or remotely.  A
broken transport raises it too, never a raw socket exception: kind
``connect`` for a refused, reset or closed connection, ``timeout`` for
a read that outlived ``timeout``.
"""

from __future__ import annotations

import json
import math
import socket
import time
from dataclasses import dataclass
from typing import Any, Iterator, NoReturn

from repro.errors import ConfigError, ReproError
from repro.ptest.spec import (
    CampaignSpec,
    RoundResult,
    SpecOutcome,
    round_from_dict,
)

DEFAULT_PORT = 7341


class ServerError(ReproError):
    """A structured ``error`` frame, raised client-side.

    ``exit_code`` mirrors the CLI mapping (2 config, 3 executor
    failure); ``hint`` carries the server's remediation line (e.g. the
    quarantine hint) when one was attached.
    """

    def __init__(
        self,
        message: str,
        *,
        kind: str = "error",
        exit_code: int | None = None,
        hint: str | None = None,
    ):
        super().__init__(message)
        self.kind = kind
        self.exit_code = exit_code
        self.hint = hint


@dataclass(frozen=True)
class CellEvent:
    """One streamed ``cell`` frame (``stream_cells=True`` requests):
    per-cell progress in submission order."""

    variant: str
    seed: int
    found_bug: bool
    kind: str | None


@dataclass
class RemoteOutcome(SpecOutcome):
    """A :class:`~repro.ptest.spec.SpecOutcome` rebuilt from the wire,
    plus the admission and cell frames.

    ``rounds`` compare *equal* to a direct run's (the bit-identity
    payload); ``pool_ids`` are process-local to the *server*, so never
    part of equality.  ``queued`` and ``queue_depth`` come from the
    ``accepted`` frame, ``cells`` from the streamed ``cell`` frames.
    """

    queued: bool = False
    queue_depth: int = 0
    cells: tuple[CellEvent, ...] = ()


class Client:
    """Blocking NDJSON client for a :mod:`repro.serve` server.

    Pure stdlib sockets — usable from scripts, tests and the ``repro
    submit`` subcommand without touching asyncio.  Connects lazily on
    first use; ``connect_timeout`` bounds how long to keep retrying the
    initial connection (covers the start-the-server-then-connect race
    in scripts; ``0`` makes one attempt), ``timeout`` bounds each
    subsequent read.  ``timeout`` must be a positive, finite number of
    seconds and ``connect_timeout`` a non-negative, finite one (else
    :class:`~repro.errors.ConfigError`).  Context manager; one
    in-flight request per client instance.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        *,
        timeout: float = 300.0,
        connect_timeout: float = 10.0,
    ):
        if not 0 < timeout < math.inf:  # NaN compares false too
            raise ConfigError(
                f"timeout must be a positive, finite number of seconds, "
                f"got {timeout}"
            )
        if not 0 <= connect_timeout < math.inf:  # NaN compares false too
            raise ConfigError(
                f"connect_timeout must be a non-negative, finite number of "
                f"seconds, got {connect_timeout}"
            )
        self.host = host
        self.port = port
        self.timeout = timeout
        self.connect_timeout = connect_timeout
        self._sock: socket.socket | None = None
        self._file = None
        self._request_seq = 0

    # -- plumbing ----------------------------------------------------

    def connect(self) -> None:
        if self._sock is not None:
            return
        deadline = time.monotonic() + self.connect_timeout
        while True:
            try:
                self._sock = socket.create_connection(
                    (self.host, self.port), timeout=self.timeout
                )
                break
            except OSError:
                if time.monotonic() >= deadline:
                    raise ServerError(
                        f"cannot connect to repro server at "
                        f"{self.host}:{self.port} within "
                        f"{self.connect_timeout}s; is `repro serve` running?",
                        kind="connect",
                    ) from None
                time.sleep(0.05)
        self._file = self._sock.makefile("rb")

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None
        if self._sock is not None:
            self._sock.close()
            self._sock = None

    def __enter__(self) -> "Client":
        self.connect()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _send(self, payload: dict[str, Any]) -> None:
        self.connect()
        try:
            self._sock.sendall(json.dumps(payload).encode() + b"\n")
        except OSError as error:
            self._lost("sending a request", error)

    def _recv(self) -> dict[str, Any]:
        try:
            line = self._file.readline()
        except OSError as error:  # socket timeouts included
            self._lost("waiting for a reply", error)
        if not line:
            raise ServerError(
                "server closed the connection mid-request", kind="connect"
            )
        return json.loads(line)

    def _lost(self, action: str, error: OSError) -> NoReturn:
        """Close the broken connection and raise its classified error.

        A read that timed out leaves the stream mid-frame, so the
        connection cannot be reused either way.
        """
        self.close()
        if isinstance(error, TimeoutError):
            raise ServerError(
                f"no reply from repro server at {self.host}:{self.port} "
                f"within the {self.timeout}s read timeout",
                kind="timeout",
            ) from None
        raise ServerError(
            f"lost the connection to repro server at {self.host}:"
            f"{self.port} while {action} ({type(error).__name__}: {error})",
            kind="connect",
        ) from None

    def _next_id(self) -> str:
        self._request_seq += 1
        return f"c{self._request_seq}"

    # -- operations --------------------------------------------------

    def ping(self) -> bool:
        self._send({"op": "ping", "id": self._next_id()})
        return self._recv().get("type") == "pong"

    def status(self) -> dict[str, Any]:
        """Server telemetry: active/queued/served counts and the
        per-width shared-pool snapshot."""
        self._send({"op": "status", "id": self._next_id()})
        return self._recv()

    def shutdown_server(self) -> dict[str, Any]:
        """Ask the server to drain in-flight requests and exit."""
        self._send({"op": "shutdown", "id": self._next_id()})
        return self._recv()

    def stream(
        self, spec: CampaignSpec, *, stream_cells: bool = False
    ) -> Iterator[dict[str, Any]]:
        """Submit ``spec``; yield raw frames through ``done``/``error``.

        The low-level hook for progress displays; most callers want
        :meth:`run`, which consumes this and rebuilds the outcome.
        """
        request_id = self._next_id()
        self._send(
            {
                "op": "run",
                "id": request_id,
                "spec": spec.to_dict(),
                "stream_cells": stream_cells,
            }
        )
        while True:
            frame = self._recv()
            yield frame
            if frame.get("type") in ("done", "error"):
                return

    def run(
        self, spec: CampaignSpec, *, stream_cells: bool = False
    ) -> RemoteOutcome:
        """Execute ``spec`` on the server; block until done.

        Raises :class:`ServerError` on an ``error`` frame (config
        mistakes, executor failures — same taxonomy as CLI exit codes).
        """
        rounds: list[RoundResult] = []
        cells: list[CellEvent] = []
        queued = False
        queue_depth = 0
        for frame in self.stream(spec, stream_cells=stream_cells):
            kind = frame.get("type")
            if kind == "accepted":
                queued = frame.get("queued", False)
                queue_depth = frame.get("queue_depth", 0)
            elif kind == "cell":
                cells.append(
                    CellEvent(
                        variant=frame["variant"],
                        seed=frame["seed"],
                        found_bug=frame["found_bug"],
                        kind=frame.get("kind"),
                    )
                )
            elif kind == "round":
                rounds.append(round_from_dict(frame["round"]))
            elif kind == "error":
                raise ServerError(
                    frame.get("message", "unknown server error"),
                    kind=frame.get("kind", "error"),
                    exit_code=frame.get("exit_code"),
                    hint=frame.get("hint"),
                )
            elif kind == "done":
                return RemoteOutcome(
                    spec=spec,
                    rounds=tuple(rounds),
                    stopped_early=frame.get("stopped_early", False),
                    pool_ids=tuple(frame.get("pool_ids", ())),
                    resumed_rounds=frame.get("resumed_rounds", 0),
                    rounds_budget=frame.get("rounds_budget", len(rounds)),
                    schedule=frame.get("schedule", ""),
                    queued=queued,
                    queue_depth=queue_depth,
                    cells=tuple(cells),
                )
        raise ServerError(
            "stream ended without a done frame", kind="protocol"
        )  # pragma: no cover - stream() always ends on done/error
