"""Batched, streaming work-queue execution of campaign cells.

A campaign is a grid of independent *(variant, seed)* cells, each of
which builds and runs one :class:`~repro.ptest.harness.AdaptiveTest`.
Cells share no state — every run seeds its own RNG streams from the
cell's seed — so they parallelise embarrassingly.

:class:`CellExecutor` dispatches cells either in-process (``workers=1``,
the deterministic serial fallback) or across a persistent
:class:`~repro.ptest.pool.WorkerPool`.  Four properties define the
execution model:

* **Portable variants.**  The preferred variant payload is a
  :class:`~repro.workloads.registry.ScenarioRef` — a picklable
  ``(name, params)`` value that resolves its builder through the
  scenario registry *inside the worker process*, so any scenario
  (lambda-built, closure-built, whatever) parallelises.  Merged-pattern
  replay cells (:class:`~repro.ptest.replay.ReplayRef`: a base ref plus
  a rendered interleaving, what adaptive campaigns' ``ReplayFocus``
  rounds are made of) are equally portable and dispatch identically.
  Raw callables are still accepted; ones that cannot be pickled degrade
  to the serial path with a :class:`RuntimeWarning` (detected up front
  with a pickle probe, never mid-campaign).
* **Warm pools.**  Parallel runs submit to a
  :class:`~repro.ptest.pool.WorkerPool` — either one passed explicitly
  (``pool=``) or the process-wide shared pool for the requested worker
  count (:func:`~repro.ptest.pool.get_pool`) — so back-to-back
  ``run_cells`` / ``Campaign.run`` calls reuse warm worker processes
  (and their scenario caches) instead of paying pool startup every
  time.  A pool broken by a dying worker is respawned and the affected
  batches resubmitted; only a batch that keeps killing its worker
  propagates the failure.
* **Batching.**  Cells are grouped into per-worker batches
  (``batch_size``; ``None`` picks a heuristic from the cell count and
  worker count), amortising pickle/submission overhead that dominates
  sub-10ms cells.  On the wire a batch is a deduped *ScenarioRef
  table* — each distinct builder pickled once plus compact
  ``(table_index, seed)`` rows (see :mod:`repro.ptest.pool`).
  Batching never changes results — only how cells are packed into pool
  submissions.
* **Streaming sinks.**  Pass a :class:`ResultSink` and each
  ``(cell, result)`` pair is delivered as soon as it is available — in
  *submission order*, never completion order, so downstream
  aggregation is identical whichever path (or batch packing) ran, and
  nothing requires materialising every
  :class:`~repro.ptest.harness.TestRunResult` at once.

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
  (still in submission order); the guilty ones are recorded in a
  :class:`QuarantineReport` (kind ``crash`` / ``timeout`` / ``lethal``)
  and the run completes with explicit partial-result accounting
  instead of raising away every row already computed.
* **Chaos injection.**  ``chaos=`` swaps the worker entry point for
  :func:`~repro.ptest.chaos.run_chaos_batch`, which injects seeded
  worker kills, forced hangs and batch delays at the pool boundary —
  the recovery invariants above are proven by asserting chaos-on
  output equals chaos-off output bit for bit.

The serial path (``workers=1``) runs cells in-process, so there is no
worker to kill, no deadline that can pre-empt a hung cell, and no pool
boundary for chaos: ``cell_timeout`` and ``chaos`` are inert there,
while ``quarantine`` still isolates *raising* cells (kind ``lethal``)
identically to the parallel path.
"""

from __future__ import annotations

import pickle
import warnings
from collections import deque
from concurrent.futures import CancelledError, Future
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Mapping,
    Protocol,
    Sequence,
    runtime_checkable,
)

from repro.errors import WatchdogTimeout
from repro.ptest.chaos import ChaosSpec, run_chaos_batch
from repro.ptest.pool import WorkerPool, get_pool, make_batch_table, run_table_batch

if TYPE_CHECKING:  # circular at runtime: harness -> detector -> ...
    from repro.ptest.harness import AdaptiveTest, TestRunResult

#: Anything callable as ``builder(seed)`` yielding an object with a
#: ``.run() -> TestRunResult`` method.  ScenarioRef satisfies this.
ScenarioBuilder = Callable[[int], "AdaptiveTest"]

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


def run_cell(builder: ScenarioBuilder, seed: int) -> "TestRunResult":
    """Build and run one cell (module-level so it pickles to workers)."""
    return builder(seed).run()


def run_cell_batch(
    jobs: Sequence[tuple[ScenarioBuilder, int]],
) -> list["TestRunResult"]:
    """Run a batch of (builder, seed) jobs; one pool submission's work.

    The *legacy, uncached* batch form, kept for external callers: the
    executor itself now ships batches via
    :func:`~repro.ptest.pool.make_batch_table` /
    :func:`~repro.ptest.pool.run_table_batch` (deduped builders,
    worker-side scenario/PFA caches).  This plain loop stays free of
    side effects — it never touches the process-global worker cache,
    so calling it in a parent process leaves nothing to invalidate.
    """
    return [builder(seed).run() for builder, seed in jobs]


def _picklable(value: object) -> bool:
    try:
        pickle.dumps(value)
    except Exception:
        return False
    return True


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


@dataclass(frozen=True)
class QuarantineReport:
    """Partial-result accounting for a quarantined run.

    ``attempted`` counts every cell the run was asked to execute,
    ``completed`` the ones that delivered a result; the difference is
    exactly ``len(cells)``.  Attached to
    :class:`CellExecutor.last_quarantine` (and surfaced up through
    ``Campaign`` / ``AdaptiveCampaign``) after every run with
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
        batches of cells out over up to ``n`` processes.  Whatever the
        value, results are delivered in submission order, so output is
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

    After :meth:`run_cells` returns, ``ran_parallel`` records which
    path executed — ``False`` plus a :class:`RuntimeWarning` when
    parallelism was requested but a builder could not be pickled — and
    ``last_batch_size`` / ``batches_submitted`` / ``last_pool_id``
    record how the cells were packed and which pool ran them.  With
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
    #: Which path the last :meth:`run_cells` took (None before any run).
    ran_parallel: bool | None = None
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

    def run_cells(
        self,
        builders: Mapping[str, ScenarioBuilder],
        cells: Sequence[WorkCell],
        *,
        batch_size: int | None = None,
        sink: ResultSink | None = None,
    ) -> list["TestRunResult"] | None:
        """Execute ``cells``; results align with ``cells`` by position.

        With ``sink`` given, every ``(cell, result)`` pair is instead
        *streamed* to it in submission order as execution proceeds and
        the method returns ``None`` — no result list is materialised,
        so an aggregating sink runs arbitrarily large campaigns in
        memory bounded by the in-flight batches, not the cell count.

        With ``quarantine=True``, isolated cells occupy their position
        in the returned list as ``None`` (so alignment with ``cells``
        is preserved) and are never delivered to ``sink``; the full
        accounting lands on ``last_quarantine``.
        """
        for cell in cells:
            if cell.variant not in builders:
                raise KeyError(f"no builder for variant {cell.variant!r}")
        requested = batch_size if batch_size is not None else self.batch_size
        if requested is not None and requested < 1:
            # Reject on every path, not just when the pool would run.
            raise ValueError(f"batch_size must be >= 1, got {requested}")
        if self.cell_timeout is not None and self.cell_timeout <= 0:
            raise ValueError(
                f"cell_timeout must be > 0, got {self.cell_timeout}"
            )
        self.last_batch_size = None
        self.batches_submitted = 0
        self.last_pool_id = None
        self.last_quarantine = None
        self.timeouts_detected = 0
        # workers=None defers to the pool: handing over a multi-worker
        # pool is itself the parallelism request.  An explicit 1 always
        # wins — in-process execution stays reachable for debugging.
        effective_workers = self.workers
        if effective_workers is None:
            effective_workers = (
                self.pool.workers if self.pool is not None else 1
            )
        if effective_workers > 1 and len(cells) > 1:
            if self._portable(builders):
                self.ran_parallel = True
                return self._run_parallel(
                    builders,
                    cells,
                    workers=effective_workers,
                    batch_size=batch_size,
                    sink=sink,
                )
            warnings.warn(
                f"parallel dispatch over {effective_workers} workers "
                "requested but a scenario builder cannot be pickled "
                "(lambda/closure?); register it and pass a ScenarioRef "
                "to parallelise — running cells serially",
                RuntimeWarning,
                stacklevel=2,
            )
        self.ran_parallel = False
        results = None if sink is not None else []
        quarantined: list[QuarantinedCell] = []
        for cell in cells:
            if self.quarantine:
                # The serial analogue of lethal-batch bisection: a
                # raising cell is already perfectly isolated, so record
                # it and keep going.  Hangs and worker kills have no
                # serial counterpart (nothing to pre-empt or respawn).
                try:
                    result = run_cell(builders[cell.variant], cell.seed)
                except Exception as error:
                    quarantined.append(
                        QuarantinedCell(
                            cell.variant,
                            cell.seed,
                            kind="lethal",
                            detail=f"{type(error).__name__}: {error}",
                        )
                    )
                    if results is not None:
                        results.append(None)
                    continue
            else:
                result = run_cell(builders[cell.variant], cell.seed)
            if sink is not None:
                sink.accept(cell, result)
            else:
                results.append(result)
        if self.quarantine:
            self.last_quarantine = QuarantineReport(
                cells=tuple(quarantined),
                attempted=len(cells),
                completed=len(cells) - len(quarantined),
            )
        return results

    def prewarm(
        self,
        builders: Mapping[str, ScenarioBuilder] | Sequence[ScenarioBuilder],
        wait: bool = False,
    ) -> int:
        """Warm the worker caches for an upcoming :meth:`run_cells`.

        Resolves the same pool the next parallel run would use (the
        explicit ``pool=`` or the shared pool for ``workers``) and
        ships the distinct portable refs among ``builders`` to it via
        :meth:`~repro.ptest.pool.WorkerPool.prewarm`, so workers
        resolve scenarios and compile pattern automata *now* — while
        the caller is still assembling cells — instead of inside the
        run's first batches.  Adaptive campaigns call this between
        rounds; embedders that know their next sweep can do the same.

        Best-effort and result-neutral (see the pool method); a no-op
        returning 0 on the serial path (``workers``/pool resolve to 1),
        where no worker caches exist to warm.
        """
        effective_workers = self.workers
        if effective_workers is None:
            effective_workers = (
                self.pool.workers if self.pool is not None else 1
            )
        if effective_workers <= 1:
            return 0
        pool = (
            self.pool
            if self.pool is not None
            else get_pool(effective_workers)
        )
        values = (
            builders.values()
            if isinstance(builders, Mapping)
            else builders
        )
        return pool.prewarm(values, wait=wait)

    def _portable(self, builders: Mapping[str, ScenarioBuilder]) -> bool:
        """Whether every builder can be shipped to a worker process."""
        return all(_picklable(builder) for builder in builders.values())

    def _resolve_batch_size(
        self, cell_count: int, batch_size: int | None, workers: int | None = None
    ) -> int:
        effective = (
            batch_size if batch_size is not None else self.batch_size
        )
        if effective is None:
            # ~4 waves per worker: amortisation vs. load balance.
            width = workers if workers is not None else (self.workers or 1)
            effective = -(-cell_count // (4 * width))
            effective = min(effective, MAX_AUTO_BATCH)
        # run_cells already rejected explicit values < 1.
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
        builders: Mapping[str, ScenarioBuilder],
        cells: Sequence[WorkCell],
        *,
        workers: int,
        batch_size: int | None,
        sink: ResultSink | None,
    ) -> list["TestRunResult"] | None:
        pool = self.pool if self.pool is not None else get_pool(workers)
        # An explicit pool's width governs the actual process count, so
        # batch packing and the in-flight window follow it, not the
        # executor's own `workers` (they agree for shared pools).
        width = pool.workers
        size = self._resolve_batch_size(len(cells), batch_size, width)
        self.last_batch_size = size
        batches = [
            list(cells[start : start + size])
            for start in range(0, len(cells), size)
        ]
        self.batches_submitted = len(batches)
        results: list["TestRunResult"] | None = (
            None if sink is not None else []
        )

        # With quarantine on, positional results need a slot per cell
        # even when some never complete; record each cell's index once
        # so delivery (from the main drain or from bisection screening)
        # can land results in place.
        position = {id(cell): index for index, cell in enumerate(cells)}
        if results is not None and self.quarantine:
            results.extend([None] * len(cells))
        delivered = [False] * len(cells)
        quarantined: list[QuarantinedCell] = []

        def deliver(cell: WorkCell, result: "TestRunResult") -> None:
            if sink is not None:
                sink.accept(cell, result)
            elif self.quarantine:
                results[position[id(cell)]] = result
            else:
                results.append(result)
            delivered[position[id(cell)]] = True

        def submit(
            batch: list[WorkCell], attempt: int = 0
        ) -> tuple["Future", int | None]:
            # The wire format: each distinct builder once, then compact
            # (table_index, seed) rows — N same-variant cells pickle
            # their ScenarioRef a single time.  The pool id tagged at
            # submission names the future's executor generation, so a
            # later break notification cannot tear down a fresh pool.
            table, jobs = make_batch_table(
                [builders[cell.variant] for cell in batch],
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

        def deadline_for(batch: list[WorkCell]) -> float | None:
            if self.cell_timeout is None:
                return None
            return self.cell_timeout * max(1, len(batch))

        def screen(group: list[WorkCell]) -> None:
            """Bisect ``group`` in isolation down to its poison cells.

            Runs sub-batches *synchronously* (one in flight at a time),
            so deliveries stay in submission order relative to the
            group.  A failing single cell is retried once — transient
            chaos or a real one-off crash deserves a second chance —
            and quarantined only when it fails twice in a row.
            """

            def attempt_once(
                part: list[WorkCell], attempt: int
            ) -> tuple[str, object]:
                future, pool_id = submit(part, attempt)
                try:
                    return "ok", future.result(timeout=deadline_for(part))
                except TimeoutError as error:
                    if future.done():
                        # The *cell* raised TimeoutError; the deadline
                        # never fired.  Classify as lethal, like any
                        # other cell-raised exception.
                        return (
                            "lethal",
                            f"{type(error).__name__}: {error}",
                        )
                    self.timeouts_detected += 1
                    pool.terminate(pool_id)
                    return (
                        "timeout",
                        f"exceeded {self.cell_timeout}s/cell watchdog "
                        "deadline",
                    )
                except (BrokenProcessPool, CancelledError):
                    pool.notify_broken(pool_id)
                    return "crash", "worker process died"
                except Exception as error:
                    return "lethal", f"{type(error).__name__}: {error}"

            outcome, payload = attempt_once(group, 0)
            if outcome == "ok":
                for cell, result in zip(group, payload):
                    deliver(cell, result)
                return
            if len(group) == 1:
                outcome, payload = attempt_once(group, 1)
                if outcome == "ok":
                    for cell, result in zip(group, payload):
                        deliver(cell, result)
                    return
                quarantined.append(
                    QuarantinedCell(
                        group[0].variant,
                        group[0].seed,
                        kind=outcome,
                        detail=str(payload),
                    )
                )
                return
            mid = len(group) // 2
            screen(group[:mid])
            screen(group[mid:])

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
                try:
                    batch_results = future.result(
                        timeout=deadline_for(batch)
                    )
                except TimeoutError as error:
                    if future.done():
                        # Not the watchdog: the cell itself raised
                        # TimeoutError.  Same handling as any other
                        # cell-raised exception below.
                        if not self.quarantine:
                            raise
                        screen(batch)
                        respawns_without_progress = 0
                        top_up()
                        continue
                    # Watchdog expiry: the batch is hung.  A hung
                    # worker never honours a graceful shutdown, so
                    # kill the executor's processes outright, then
                    # either bisect the batch (quarantine) or resubmit
                    # it within the respawn budget.
                    self.timeouts_detected += 1
                    pool.terminate(submitted_to)
                    if self.quarantine:
                        screen(batch)
                        pending = resubmit_pending(None, 0)
                        respawns_without_progress = 0
                        top_up()
                        continue
                    if respawns_without_progress >= self.MAX_POOL_RESPAWNS:
                        raise WatchdogTimeout(
                            f"batch of {len(batch)} cells "
                            f"({batch[0].variant} seed={batch[0].seed}, "
                            f"...) still exceeded the "
                            f"{self.cell_timeout}s/cell watchdog "
                            f"deadline after "
                            f"{self.MAX_POOL_RESPAWNS} worker respawns; "
                            "pass quarantine=True to bisect out the "
                            "hung cell instead"
                        ) from error
                    respawns_without_progress += 1
                    pending = resubmit_pending(batch, attempt)
                    continue
                except (BrokenProcessPool, CancelledError):
                    # A worker died, killing its pool and every future
                    # still on it — or the executor was retired under
                    # us (a mid-run registry version bump), cancelling
                    # queued futures.  Either way: respawn and resubmit
                    # all pending batches (deterministic cells re-run
                    # identically), within the
                    # MAX_POOL_RESPAWNS-without-progress budget.
                    # Pending futures that survived on a younger pool
                    # are cancelled first — their batches are
                    # resubmitted, so letting the originals run would
                    # only burn the shared workers twice.
                    if respawns_without_progress >= self.MAX_POOL_RESPAWNS:
                        if not self.quarantine:
                            raise
                        # The head batch keeps breaking fresh pools:
                        # bisect it in isolation.  If the poison rides
                        # a *different* pending batch, this screening
                        # delivers the head cleanly (progress) and the
                        # guilty batch exhausts its own budget when it
                        # reaches the head of the queue.
                        pool.notify_broken(submitted_to)
                        screen(batch)
                        pending = resubmit_pending(None, 0)
                        respawns_without_progress = 0
                        top_up()
                        continue
                    respawns_without_progress += 1
                    pool.notify_broken(submitted_to)
                    pending = resubmit_pending(batch, attempt)
                    continue
                except Exception:
                    # A cell raised inside the batch (delivered intact
                    # over the pool): lethal, not a worker death.
                    if not self.quarantine:
                        raise
                    screen(batch)
                    respawns_without_progress = 0
                    top_up()
                    continue
                respawns_without_progress = 0
                for cell, result in zip(batch, batch_results):
                    deliver(cell, result)
                top_up()
        except BaseException:
            # Aborting (a cell raised, retries exhausted, KeyboardInt):
            # the pool outlives this run, so stop queued batches from
            # burning the shared workers on work nobody will read.
            # Already-running batches finish on their own.
            for _batch, _attempt, future, _id in pending:
                future.cancel()
            raise
        if self.quarantine:
            self.last_quarantine = QuarantineReport(
                cells=tuple(quarantined),
                attempted=len(cells),
                completed=sum(delivered),
            )
        return results
