"""Batched, streaming work-queue execution of campaign cells.

A campaign is a grid of independent *(variant, seed)* cells, each of
which builds and runs one :class:`~repro.ptest.harness.AdaptiveTest`.
Cells share no state — every run seeds its own RNG streams from the
cell's seed — so they parallelise embarrassingly.

:class:`CellExecutor` dispatches cells either in-process (``workers=1``)
or across a persistent :class:`~repro.ptest.pool.WorkerPool`.  Four
properties define the execution model:

* **One cell path.**  A variant is a
  :class:`~repro.workloads.registry.ScenarioRef` — a picklable
  ``(name, params)`` value naming a default-registry scenario — or a
  merged-pattern replay cell over one
  (:class:`~repro.ptest.replay.ReplayRef`, what adaptive campaigns'
  ``ReplayFocus`` rounds are made of).  :meth:`CellExecutor.run_cells`
  rejects anything else with a :class:`~repro.errors.ConfigError`
  before any cell runs, at any worker count.  Every cell, in a pool
  worker or in-process, is built and run by
  :func:`~repro.ptest.pool.run_cell`, which keeps nothing between
  cells.
* **Warm pools.**  Parallel runs submit to a
  :class:`~repro.ptest.pool.WorkerPool` — either one passed explicitly
  (``pool=``) or the process-wide shared pool for the requested worker
  count (:func:`~repro.ptest.pool.get_pool`) — so back-to-back
  ``run_cells`` calls, and every round of an
  :class:`~repro.ptest.adaptive.AdaptiveCampaign`, reuse warm worker
  processes instead of paying pool startup every time.
  A pool broken by a dying worker is respawned and the affected
  batches resubmitted; only a batch that keeps killing its worker
  propagates the failure.
* **Batching.**  Cells are grouped into per-worker batches
  (``batch_size``; ``None`` picks a heuristic from the cell count and
  worker count), amortising pickle/submission overhead that dominates
  sub-10ms cells.  On the wire a batch is a deduped *ref table* — each
  distinct ref pickled once plus compact ``(table_index, seed)`` rows
  (see :mod:`repro.ptest.pool`).  Batching never changes results —
  only how cells are packed into pool submissions.
* **Streaming sinks.**  :meth:`CellExecutor.run_cells` returns
  nothing: each ``(cell, result)`` pair goes to the caller's
  :class:`ResultSink` as soon as it is available — in *submission
  order*, never completion order, so downstream aggregation is
  identical whichever path (or batch packing) ran, and nothing
  requires materialising every
  :class:`~repro.ptest.harness.TestRunResult` at once
  (:class:`CollectSink` keeps them all when a caller wants a list).

On top of the execution model sits the fault-tolerance layer (this is
the machinery a future multi-host tier will reuse for host loss):

* **Watchdog timeouts.**  ``cell_timeout`` arms a per-batch deadline
  (``cell_timeout × batch cells``) on every pool drain: a batch whose
  future never completes is declared hung, its executor's worker
  processes are *killed* (a hung worker never honours a graceful
  shutdown) and the batch re-enters the same respawn/resubmit path
  that worker crashes take.  Hangs stop being campaign-enders and
  become retryable faults.
* **Poison-cell quarantine.**  With ``quarantine=True`` a batch that
  keeps failing — killing its worker, blowing its deadline, or raising
  — is *bisected* in isolation down to the offending ``(variant,
  seed)`` cells.  Innocent cells from the batch are delivered normally
  (still in submission order); the guilty ones are never delivered,
  but recorded in a :class:`QuarantineReport` (kind ``crash`` /
  ``timeout`` / ``lethal``), and the run completes with explicit
  partial-result accounting instead of raising away every row already
  computed.
* **Chaos injection.**  ``chaos=`` swaps the worker entry point for
  :func:`~repro.ptest.chaos.run_chaos_batch`, which injects seeded
  worker kills, forced hangs and batch delays at the pool boundary —
  the recovery invariants above are proven by asserting chaos-on
  output equals chaos-off output bit for bit.

The serial path (``workers=1``) runs cells in-process, so there is no
worker to kill, no deadline that can pre-empt a hung cell, and no pool
boundary for chaos: ``cell_timeout`` and ``chaos`` are inert there,
while ``quarantine`` still isolates *raising* cells (kind ``lethal``)
identically to the parallel path.  At ``workers > 1`` every run goes
through the pool, a one-cell run included.

The fabric settings are range-checked once, when a
:class:`CellExecutor` is built (:func:`check_fabric`, which
:class:`~repro.ptest.spec.CampaignSpec` validation calls too).
"""

from __future__ import annotations

import math
from collections import deque
from concurrent.futures import CancelledError, Future
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from threading import TIMEOUT_MAX
from typing import (
    TYPE_CHECKING,
    Callable,
    Mapping,
    Protocol,
    Sequence,
    runtime_checkable,
)

from repro.errors import ConfigError, WatchdogTimeout
from repro.ptest.chaos import ChaosSpec, run_chaos_batch
from repro.ptest.pool import (
    Variant,
    WorkerPool,
    check_workers,
    get_pool,
    make_batch_table,
    run_cell,
    run_table_batch,
)
from repro.ptest.replay import ReplayRef
from repro.workloads.registry import ScenarioRef

if TYPE_CHECKING:
    from repro.ptest.harness import TestRunResult

#: Upper bound the batch-size heuristic will pick on its own; explicit
#: ``batch_size`` values may exceed it.
MAX_AUTO_BATCH = 32


@dataclass(frozen=True)
class WorkCell:
    """One (variant, seed) grid point of a campaign."""

    variant: str
    seed: int


@runtime_checkable
class ResultSink(Protocol):
    """Receives each cell's result as soon as it is available.

    Delivery order is the cells' submission order regardless of worker
    count or batch packing, so an accumulating sink produces identical
    aggregates on every execution path.
    """

    def accept(self, cell: WorkCell, result: "TestRunResult") -> None:
        """Consume one completed cell."""


@dataclass
class CollectSink:
    """The trivial sink: keeps every result, aligned with its cell."""

    cells: list[WorkCell] = field(default_factory=list)
    results: list["TestRunResult"] = field(default_factory=list)

    def accept(self, cell: WorkCell, result: "TestRunResult") -> None:
        self.cells.append(cell)
        self.results.append(result)


@dataclass(frozen=True)
class QuarantinedCell:
    """One (variant, seed) cell isolated by the quarantine machinery.

    ``kind`` names the failure family — ``"crash"`` (the cell killed
    its worker process), ``"timeout"`` (the cell blew the watchdog
    deadline even when run alone), ``"lethal"`` (the cell raised; the
    exception type and message are in ``detail``).  ``detail`` strings
    are configuration-independent — no worker counts, batch sizes or
    timings — so quarantine reports compare equal across every
    ``(workers, batch_size, chaos)`` configuration that isolates the
    same cells.
    """

    variant: str
    seed: int
    kind: str
    detail: str

    def describe(self) -> str:
        return f"{self.variant} seed={self.seed}: {self.kind} ({self.detail})"


def _detail(error: BaseException) -> str:
    """The ``detail`` of a ``lethal`` cell: its exception, rendered."""
    return f"{type(error).__name__}: {error}"


@dataclass(frozen=True)
class QuarantineReport:
    """Partial-result accounting for a quarantined run.

    ``attempted`` counts every cell the run was asked to execute,
    ``completed`` the ones that delivered a result; the difference is
    exactly ``len(cells)``.  Attached to
    :class:`CellExecutor.last_quarantine` (and surfaced on each
    ``AdaptiveCampaign`` round's observation) after every run with
    ``quarantine=True`` — including fully clean ones, where ``cells``
    is empty, so "nothing was quarantined" is an explicit statement
    rather than a missing attribute.
    """

    cells: tuple[QuarantinedCell, ...]
    attempted: int
    completed: int

    @property
    def quarantined(self) -> int:
        return len(self.cells)

    def by_kind(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for cell in self.cells:
            counts[cell.kind] = counts.get(cell.kind, 0) + 1
        return counts

    def for_variant(self, variant: str) -> tuple[QuarantinedCell, ...]:
        return tuple(c for c in self.cells if c.variant == variant)

    def describe(self) -> str:
        if not self.cells:
            return f"quarantine: 0 of {self.attempted} cells"
        kinds = ", ".join(
            f"{kind}={count}" for kind, count in sorted(self.by_kind().items())
        )
        return (
            f"quarantine: {self.quarantined} of {self.attempted} cells "
            f"({kinds}); {self.completed} completed"
        )


#: Exception types that mean "the execution fabric died or hung", as
#: opposed to a configuration mistake or a found bug — the CLI maps
#: them to exit 3 and ``repro serve`` to ``kind="executor"`` error
#: frames, both via :func:`executor_diagnosis`.
EXECUTOR_FAILURES: tuple[type[BaseException], ...] = (
    WatchdogTimeout,
    BrokenProcessPool,
    CancelledError,
)


def executor_diagnosis(error: BaseException) -> str:
    """One-line, traceback-free diagnosis of a fabric failure.

    The shared spelling between the CLI's exit-3 message and the
    server's structured error frames, so scripts can match on one
    format wherever the campaign ran.
    """
    return f"executor failure: {type(error).__name__}: {error}"


#: The hint both front-ends attach when a fabric failure aborts a run
#: that had quarantine off.
QUARANTINE_HINT = (
    "hint: rerun with --quarantine to bisect out the failing "
    "cell(s) and complete with partial results"
)


def check_fabric(
    workers: int | None = None,
    batch_size: int | None = None,
    cell_timeout: float | None = None,
) -> None:
    """Raise :class:`~repro.errors.ConfigError` unless the fabric
    settings are in range: ``workers`` from 1 to
    :data:`~repro.ptest.pool.MAX_WORKERS`, ``batch_size >= 1`` and a
    finite ``cell_timeout > 0``.  ``None`` passes every check."""
    if workers is not None:
        check_workers(workers)
    if batch_size is not None and batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    if cell_timeout is not None:
        if cell_timeout <= 0:
            raise ConfigError(
                f"cell_timeout must be > 0 seconds, got {cell_timeout}"
            )
        if not cell_timeout < math.inf:  # NaN compares false too
            raise ConfigError(
                f"cell_timeout must be a finite number of seconds, "
                f"got {cell_timeout}"
            )


@dataclass
class CellExecutor:
    """Runs campaign cells, serially or across worker processes.

    Parameters
    ----------
    workers:
        Degree of parallelism.  ``None`` (the default) derives it from
        ``pool`` when one is given (handing over a multi-worker pool
        *is* the parallelism request) and otherwise runs serially;
        ``1`` forces every cell in-process even when a pool is
        configured (debuggers, monkeypatched builders); ``n > 1`` fans
        batches of cells out over up to ``n`` processes (at most
        :data:`~repro.ptest.pool.MAX_WORKERS`).  Whatever the value,
        results are delivered in submission order, so output is
        deterministic given the seeds.
    batch_size:
        Cells per pool submission.  ``None`` (the default) picks
        ``ceil(len(cells) / (4 * workers))`` capped at
        :data:`MAX_AUTO_BATCH` — roughly four waves per worker, enough
        to amortise pickle/startup cost for sub-10ms cells while still
        load-balancing.  Ignored on the serial path.
    pool:
        The :class:`~repro.ptest.pool.WorkerPool` to submit to.
        ``None`` (the default) acquires the process-wide shared pool
        for ``workers`` via :func:`~repro.ptest.pool.get_pool`, so
        consecutive runs reuse warm workers; pass an explicit pool for
        deterministic lifetime control (its width governs the actual
        process count).
    cell_timeout:
        Watchdog deadline in seconds *per cell*: a pool batch gets
        ``cell_timeout × len(batch)`` of wall clock before its workers
        are declared hung, killed, and the batch resubmitted (then
        bisected under ``quarantine``, or raised as
        :class:`~repro.errors.WatchdogTimeout` once the respawn budget
        is spent without it).  ``None`` (the default) waits forever —
        the pre-watchdog behaviour.  Inert on the serial path, where a
        hung cell cannot be pre-empted in-process.
    quarantine:
        When true, batches that repeatedly kill workers, blow the
        watchdog deadline, or raise are bisected down to the poison
        ``(variant, seed)`` cells; those are recorded on
        ``last_quarantine`` and the run *completes* with the innocent
        cells' results instead of raising.  When false (the default)
        such failures propagate exactly as before.
    chaos:
        A :class:`~repro.ptest.chaos.ChaosSpec` injecting seeded
        worker kills / hangs / delays at the pool boundary (testing
        and benchmarking only).  Never applied on the serial path.

    Out-of-range ``workers``, ``batch_size`` or ``cell_timeout`` raise
    :class:`~repro.errors.ConfigError` at construction
    (:func:`check_fabric`).

    After :meth:`run_cells` returns, ``last_batch_size`` /
    ``batches_submitted`` / ``last_pool_id`` record how the cells were
    packed and which pool ran them (a serial run leaves them ``None``,
    ``0`` and ``None``).  With
    ``quarantine=True``, ``last_quarantine`` carries the
    :class:`QuarantineReport`; ``timeouts_detected`` counts watchdog
    expiries observed (either mode).
    """

    workers: int | None = None
    batch_size: int | None = None
    pool: "WorkerPool | None" = None
    cell_timeout: float | None = None
    quarantine: bool = False
    chaos: "ChaosSpec | None" = None
    #: Effective batch size of the last parallel run (None = serial).
    last_batch_size: int | None = None
    #: Pool submissions made by the last parallel run.
    batches_submitted: int = 0
    #: ``WorkerPool.pool_id`` the last parallel run dispatched through
    #: (None = serial); equal across runs means the warm pool was
    #: reused, a change means cold start or dead-worker respawn.
    last_pool_id: int | None = None
    #: :class:`QuarantineReport` of the last run when ``quarantine``
    #: was on (None before any run or with quarantine off).
    last_quarantine: QuarantineReport | None = None
    #: Watchdog deadline expiries observed across the last run.
    timeouts_detected: int = 0

    def __post_init__(self) -> None:
        check_fabric(self.workers, self.batch_size, self.cell_timeout)

    def run_cells(
        self,
        variants: Mapping[str, Variant],
        cells: Sequence[WorkCell],
        sink: ResultSink,
    ) -> None:
        """Execute ``cells``, streaming each ``(cell, result)`` pair to
        ``sink`` in submission order as execution proceeds.

        Every variant must be a
        :class:`~repro.workloads.registry.ScenarioRef` or a
        :class:`~repro.ptest.replay.ReplayRef`; anything else raises
        :class:`~repro.errors.ConfigError` naming it before any cell
        runs.  No result list is materialised, so an aggregating sink
        runs arbitrarily large campaigns in memory bounded by the
        in-flight batches, not the cell count.

        With ``quarantine=True``, isolated cells are never delivered to
        ``sink``; the full accounting lands on ``last_quarantine``.
        """
        for cell in cells:
            if cell.variant not in variants:
                raise KeyError(f"no builder for variant {cell.variant!r}")
        for name, ref in variants.items():
            if not isinstance(ref, (ScenarioRef, ReplayRef)):
                raise ConfigError(
                    f"variant {name!r} is a {type(ref).__name__}, not a "
                    "ScenarioRef or ReplayRef; register its builder with "
                    "@scenario and add it by name"
                )
        self.last_batch_size = None
        self.batches_submitted = 0
        self.last_pool_id = None
        self.last_quarantine = None
        self.timeouts_detected = 0
        quarantined: list[QuarantinedCell] = []
        completed = 0

        def deliver(cell: WorkCell, result: "TestRunResult") -> None:
            nonlocal completed
            sink.accept(cell, result)
            completed += 1

        # workers=None defers to the pool: handing over a multi-worker
        # pool is itself the parallelism request.  An explicit 1 always
        # wins — in-process execution stays reachable for debugging.
        effective_workers = self.workers
        if effective_workers is None:
            effective_workers = (
                self.pool.workers if self.pool is not None else 1
            )
        if effective_workers > 1:
            self._run_parallel(
                variants, cells, effective_workers, deliver, quarantined
            )
        else:
            for cell in cells:
                try:
                    result = run_cell(variants[cell.variant], cell.seed)
                except Exception as error:
                    if not self.quarantine:
                        raise
                    # The serial analogue of lethal-batch bisection: a
                    # raising cell is already perfectly isolated.  Hangs
                    # and worker kills have no serial counterpart
                    # (nothing to pre-empt or respawn).
                    quarantined.append(
                        QuarantinedCell(
                            cell.variant, cell.seed, "lethal", _detail(error)
                        )
                    )
                    continue
                deliver(cell, result)
        if self.quarantine:
            self.last_quarantine = QuarantineReport(
                cells=tuple(quarantined),
                attempted=len(cells),
                completed=completed,
            )

    def _resolve_batch_size(self, cell_count: int, workers: int) -> int:
        effective = self.batch_size
        if effective is None:
            # ~4 waves per worker: amortisation vs. load balance.
            effective = min(-(-cell_count // (4 * workers)), MAX_AUTO_BATCH)
        # Construction already rejected explicit values < 1.
        return max(1, min(effective, cell_count))

    #: Pool respawns tolerated without delivering a single batch in
    #: between before the break is re-raised.  The parent cannot tell
    #: *which* in-flight batch killed a worker (the first-drained
    #: future reports every break), so the budget is per run and resets
    #: on progress: a few transient deaths are absorbed wherever they
    #: came from, while a deterministically lethal batch — which breaks
    #: every fresh pool before anything is delivered — still surfaces
    #: after this many respawns.
    MAX_POOL_RESPAWNS = 3

    def _run_parallel(
        self,
        variants: Mapping[str, Variant],
        cells: Sequence[WorkCell],
        workers: int,
        deliver: Callable[[WorkCell, "TestRunResult"], None],
        quarantined: list[QuarantinedCell],
    ) -> None:
        pool = self.pool if self.pool is not None else get_pool(workers)
        # An explicit pool's width governs the actual process count, so
        # batch packing and the in-flight window follow it, not the
        # executor's own `workers` (they agree for shared pools).
        width = pool.workers
        size = self._resolve_batch_size(len(cells), width)
        self.last_batch_size = size
        batches = [
            list(cells[start : start + size])
            for start in range(0, len(cells), size)
        ]
        self.batches_submitted = len(batches)

        def submit(
            batch: list[WorkCell], attempt: int = 0
        ) -> tuple["Future", int | None]:
            # The wire format: each distinct ref once, then compact
            # (table_index, seed) rows — N same-variant cells pickle
            # their ref a single time.  The pool id tagged at
            # submission names the future's executor generation, so a
            # later break notification cannot tear down a fresh pool.
            table, jobs = make_batch_table(
                [variants[cell.variant] for cell in batch],
                [cell.seed for cell in batch],
            )
            if self.chaos is not None:
                # Same wire format, chaos-wrapped entry point; the
                # attempt number lets transient faults re-draw on each
                # resubmission (a kill-once, recover-on-retry shape).
                future, pool_id = pool.submit_tagged(
                    run_chaos_batch, self.chaos, attempt, table, jobs
                )
            else:
                future, pool_id = pool.submit_tagged(
                    run_table_batch, table, jobs
                )
            # Refresh on every submission: submit_tagged respawns a
            # broken pool silently, and telemetry must name the pool
            # that actually took the work.
            self.last_pool_id = pool_id
            return future, pool_id

        def wait(
            batch: list[WorkCell], future: "Future", pool_id: int | None
        ) -> tuple[str, object]:
            """Wait for one batch and classify it: ``("ok", results)``,
            or ``(kind, error)`` with kind ``"lethal"`` (a cell raised),
            ``"timeout"`` (the watchdog deadline expired) or ``"crash"``
            (the pool died or was retired under us).

            A hung worker never honours a graceful shutdown, so a
            timeout kills the executor's processes outright; a crash
            discards the broken executor.  Either way every other
            future on that pool is doomed, which the caller handles.
            """
            deadline = None
            if self.cell_timeout is not None:
                # Huge finite budgets would overflow the lock wait
                # inside Future.result; past TIMEOUT_MAX they all mean
                # "forever".
                deadline = min(
                    self.cell_timeout * max(1, len(batch)), TIMEOUT_MAX
                )
            try:
                return "ok", future.result(timeout=deadline)
            except TimeoutError as error:
                if future.done():
                    # The *cell* raised TimeoutError; the deadline never
                    # fired.  Lethal, like any other cell exception.
                    return "lethal", error
                self.timeouts_detected += 1
                pool.terminate(pool_id)
                return "timeout", error
            except (BrokenProcessPool, CancelledError) as error:
                pool.notify_broken(pool_id)
                return "crash", error
            except Exception as error:
                return "lethal", error

        def screen(group: list[WorkCell]) -> None:
            """Bisect ``group`` in isolation down to its poison cells.

            Runs sub-batches *synchronously* (one in flight at a time),
            so deliveries stay in submission order relative to the
            group.  A failing single cell is retried once — transient
            chaos or a real one-off crash deserves a second chance —
            and quarantined only when it fails twice in a row.
            """
            for attempt in (0, 1):
                outcome, payload = wait(group, *submit(group, attempt))
                if outcome == "ok":
                    for cell, result in zip(group, payload):
                        deliver(cell, result)
                    return
                if len(group) > 1:
                    mid = len(group) // 2
                    screen(group[:mid])
                    screen(group[mid:])
                    return
            if outcome == "timeout":
                detail = f"exceeded {self.cell_timeout}s/cell watchdog deadline"
            elif outcome == "crash":
                detail = "worker process died"
            else:
                detail = _detail(payload)
            quarantined.append(
                QuarantinedCell(group[0].variant, group[0].seed, outcome, detail)
            )

        # Keep at most ~2 batches per worker in flight: enough queued
        # work that no worker idles between batches, while undrained
        # result payloads stay bounded by the window, not the campaign
        # size (the constant-memory contract of sink streaming).
        window = 2 * min(width, len(batches))
        pending: deque[
            tuple[list[WorkCell], int, "Future", int | None]
        ] = deque()
        cursor = 0

        def top_up() -> None:
            nonlocal cursor
            while cursor < len(batches) and len(pending) < window:
                batch = batches[cursor]
                cursor += 1
                pending.append((batch, 0, *submit(batch, 0)))

        def resubmit_pending(
            first: list[WorkCell] | None, first_attempt: int
        ) -> deque:
            """Cancel every pending future and resubmit the batches.

            Called after a pool break or a terminate: the surviving
            futures are doomed (or riding a torn-down executor), so
            cancel them and put fresh submissions — each with a bumped
            attempt counter for chaos re-draws — back in order.
            """
            stale = [] if first is None else [(first, first_attempt + 1)]
            for other, other_attempt, other_future, _id in pending:
                other_future.cancel()
                stale.append((other, other_attempt + 1))
            return deque(
                (other, attempt, *submit(other, attempt))
                for other, attempt in stale
            )

        # Drain in submission order: later batches may finish first,
        # but delivery (and therefore aggregation) never reorders.
        top_up()
        respawns_without_progress = 0
        try:
            while pending:
                batch, attempt, future, submitted_to = pending.popleft()
                outcome, payload = wait(batch, future, submitted_to)
                spent = respawns_without_progress >= self.MAX_POOL_RESPAWNS
                if outcome == "ok":
                    respawns_without_progress = 0
                    for cell, result in zip(batch, payload):
                        deliver(cell, result)
                elif self.quarantine and (outcome != "crash" or spent):
                    # Bisect the batch in isolation.  A crash gets the
                    # respawn budget first: the parent cannot tell which
                    # in-flight batch killed the worker, so the poison
                    # may ride another pending batch, which then spends
                    # its own budget at the head of the queue.  A hang
                    # or a spent crash also doomed every pending future.
                    screen(batch)
                    if outcome != "lethal":
                        pending = resubmit_pending(None, 0)
                    respawns_without_progress = 0
                elif outcome == "lethal":
                    raise payload
                elif spent:
                    if outcome == "timeout":
                        raise WatchdogTimeout(
                            f"batch of {len(batch)} cells "
                            f"({batch[0].variant} seed={batch[0].seed}, "
                            f"...) still exceeded the "
                            f"{self.cell_timeout}s/cell watchdog "
                            f"deadline after "
                            f"{self.MAX_POOL_RESPAWNS} worker respawns; "
                            "pass quarantine=True to bisect out the "
                            "hung cell instead"
                        ) from payload
                    raise payload
                else:
                    # A hung or dead pool: respawn and resubmit every
                    # pending batch (deterministic cells re-run
                    # identically).  Pending futures that survived on a
                    # younger pool are cancelled first — their batches
                    # are resubmitted, so letting the originals run
                    # would only burn the shared workers twice.
                    respawns_without_progress += 1
                    pending = resubmit_pending(batch, attempt)
                top_up()
        except BaseException:
            # Aborting (a cell raised, retries exhausted, KeyboardInt):
            # the pool outlives this run, so stop queued batches from
            # burning the shared workers on work nobody will read.
            # Already-running batches finish on their own.
            for _batch, _attempt, future, _id in pending:
                future.cancel()
            raise
