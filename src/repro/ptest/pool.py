"""Persistent worker pools, the ref-table batch format, and the one
function that turns a ref and a seed into a run.

Before this subsystem existed every :meth:`CellExecutor.run_cells` call
constructed (and tore down) its own ``ProcessPoolExecutor`` and shipped
each cell as a fresh ``(builder, seed)`` pickle.  For campaign cells in
the low-millisecond range that overhead dominates the actual work.  Two
amortisation layers fix it:

* **Warm pools.**  :class:`WorkerPool` wraps a lazily-created
  ``ProcessPoolExecutor`` that survives across ``run_cells`` calls
  and campaign rounds.  :func:`get_pool` hands out
  one shared pool per worker count; pools are health-checked on use
  (a dead worker breaks a process pool — the wrapper discards the
  broken executor and respawns a fresh one) and are explicitly
  closable, via context manager for deterministic test shutdown or the
  module-level :func:`shutdown_pools` which also runs at interpreter
  exit.

* **Ref batch tables.**  A batch crosses the process boundary as
  ``(table, jobs)`` where ``table`` lists each *distinct* ref once and
  ``jobs`` is a compact ``(table_index, seed)`` table — N seeds of one
  variant pickle its :class:`~repro.workloads.registry.ScenarioRef`
  once, not N times.  :func:`run_table_batch` is the worker-side entry
  point.

:func:`run_cell` is the only code that turns a ref and a seed into a
run, in a pool worker and at ``workers=1`` alike.  A cell keeps
nothing between cells: each one resolves and validates its scenario
through the default registry, builds it for its seed and runs it, so
no process holds per-ref state.  A
:class:`~repro.ptest.replay.ReplayRef` cell parses its merged pattern
through the ref's own memo, so a batch table's one copy of the ref
parses once for all of its seeds.

Every layer preserves the executor's correctness bar: campaign output
is row-for-row identical at any ``(workers, batch_size, warm/cold)``
configuration.
"""

from __future__ import annotations

import atexit
import pickle
import threading
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.errors import ConfigError
from repro.ptest.harness import AdaptiveTest
from repro.ptest.replay import ReplayRef
from repro.workloads.registry import REGISTRY, ScenarioRef

if TYPE_CHECKING:
    from repro.ptest.harness import TestRunResult

#: A campaign variant: a registry scenario, or a recorded interleaving
#: replayed over one.
Variant = ScenarioRef | ReplayRef

#: Largest worker count a pool accepts.  Under ``fork`` a
#: ``ProcessPoolExecutor`` starts all its workers at the first submit,
#: so a count from a flag, a spec file or a served request must be
#: bounded before any pool exists.
MAX_WORKERS = 64


def check_workers(workers: int) -> None:
    """Raise :class:`ConfigError` unless ``workers`` is from 1 to
    :data:`MAX_WORKERS`."""
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    if workers > MAX_WORKERS:
        raise ConfigError(
            f"workers must be <= {MAX_WORKERS} (MAX_WORKERS), got {workers}"
        )


#: Monotonic id source for pool spawns (process-local); lets callers
#: observe "same warm pool" vs "respawned" without poking internals.
_POOL_SEQ = 0
_POOL_SEQ_LOCK = threading.Lock()


def _next_pool_id() -> int:
    global _POOL_SEQ
    with _POOL_SEQ_LOCK:
        _POOL_SEQ += 1
        return _POOL_SEQ


class WorkerPool:
    """A persistent, health-checked process pool.

    Parameters
    ----------
    workers:
        Worker-process count of the underlying pool, 1 to
        :data:`MAX_WORKERS`.

    The wrapped ``ProcessPoolExecutor`` is created lazily on first
    :meth:`submit` and reused by every later submission — including
    across separate ``run_cells`` calls and campaign rounds — until
    :meth:`close`.  A pool whose worker died (``BrokenProcessPool``) is
    discarded and respawned transparently on the next submission;
    callers draining in-flight futures report the break via
    :meth:`notify_broken` and resubmit.

    Observability: :attr:`pool_id` identifies the live executor (stable
    across reuse, changes on respawn), :attr:`spawns` counts executor
    creations.  Use as a context manager for deterministic shutdown::

        with WorkerPool(workers=4) as pool:
            CellExecutor(workers=4, pool=pool).run_cells(...)
    """

    def __init__(self, workers: int):
        check_workers(workers)
        self.workers = workers
        self._executor: ProcessPoolExecutor | None = None
        self._pool_id: int | None = None
        self._spawns = 0
        self._closed = False
        self._lock = threading.Lock()
        self._registry_version: int | None = None

    @property
    def pool_id(self) -> int | None:
        """Id of the live executor (``None`` before first use)."""
        return self._pool_id

    @property
    def spawns(self) -> int:
        """How many executors this pool has created (respawns included)."""
        return self._spawns

    @property
    def closed(self) -> bool:
        return self._closed

    def _ensure(self) -> ProcessPoolExecutor:
        if self._closed:
            raise RuntimeError("worker pool is closed")
        # Workers snapshot the scenario registry when they are spawned;
        # a registration made after that would be unresolvable inside
        # warm workers, so a version bump transparently retires them
        # (the freshly-spawned replacements see the new scenario).
        # Note this — like dynamic (non-module-level) registrations
        # resolving in workers at all, on every pool this repo has ever
        # used — relies on the ``fork`` start method copying the parent
        # registry; under ``spawn``/``forkserver`` only module-level
        # ``@scenario`` registrations reach workers, fresh or not.
        if (
            self._executor is not None
            and self._registry_version != REGISTRY.version
        ):
            self._discard()
        if self._executor is None:
            # Load the built-in scenarios *before* forking: workers
            # inherit the populated registry, and the version recorded
            # here already includes the load's registrations.
            REGISTRY.names()
            self._registry_version = REGISTRY.version
            self._executor = ProcessPoolExecutor(max_workers=self.workers)
            self._pool_id = _next_pool_id()
            self._spawns += 1
        return self._executor

    def _discard(self) -> None:
        if self._executor is not None:
            # Broken (worker died) or retired (stale registry): don't
            # wait either way.  Queued futures get cancelled; dispatch
            # loops treat that CancelledError like a break and resubmit
            # the affected batches on the replacement executor.
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None

    def submit(self, fn: Callable[..., Any], /, *args: Any) -> Future:
        """Submit work, respawning the pool first if it is broken."""
        return self.submit_tagged(fn, *args)[0]

    def submit_tagged(
        self, fn: Callable[..., Any], /, *args: Any
    ) -> tuple[Future, int | None]:
        """:meth:`submit` plus the id of the executor that took the work.

        Future and id are read under one lock acquisition, so the tag
        is exact even when another thread respawns the pool around this
        call — the executor's break-retry logic feeds it back to
        :meth:`notify_broken` to avoid tearing down a fresh pool on a
        stale report.
        """
        with self._lock:
            try:
                future = self._ensure().submit(fn, *args)
            except BrokenProcessPool:
                self._discard()
                future = self._ensure().submit(fn, *args)
            return future, self._pool_id

    def notify_broken(self, pool_id: int | None = None) -> None:
        """Tell the pool a drained future raised ``BrokenProcessPool``.

        Discards the dead executor so the next :meth:`submit` respawns;
        the caller owns resubmission of any work it had in flight.
        ``pool_id`` (when given) names the executor the caller actually
        observed breaking — a stale notification about an executor that
        was already replaced is then a no-op, so one thread's respawn
        is never torn down by another thread reporting the same death.
        """
        with self._lock:
            if pool_id is not None and pool_id != self._pool_id:
                return  # that executor is already gone
            self._discard()

    def terminate(self, pool_id: int | None = None) -> int:
        """Kill the live executor's worker processes and discard it.

        The watchdog's hammer: a *hung* worker never exits on
        ``shutdown(wait=False)`` — the process sits in its stuck
        syscall/loop holding a core and (under ``fork``) whatever
        memory it mapped, so respawning around it is not enough; it
        must be killed.  ``SIGTERM`` is sent to every worker of the
        current executor (the parent cannot tell which one holds the
        stuck batch, and sibling workers' in-flight batches are
        resubmitted by the caller anyway, exactly like after a real
        worker death).  ``pool_id`` scopes the kill the same way
        :meth:`notify_broken` scopes a break report: a stale request
        naming an executor that was already replaced is a no-op.

        Returns how many worker processes were signalled.  The next
        :meth:`submit` respawns a fresh executor; results of re-run
        cells are bit-identical by the determinism contract.
        """
        with self._lock:
            if pool_id is not None and pool_id != self._pool_id:
                return 0  # that executor is already gone
            executor = self._executor
            if executor is None:
                return 0
            # _processes is internal to ProcessPoolExecutor but stable
            # across supported CPythons; an empty mapping (workers not
            # yet forked) just means nothing needs killing.
            processes = list(getattr(executor, "_processes", {}).values())
            for process in processes:
                try:
                    process.terminate()
                except Exception:
                    pass  # already dead: exactly the state we want
            self._discard()
            return len(processes)

    def ping(self) -> bool:
        """Round-trip a no-op through a worker (health probe).

        Respawns a broken pool as a side effect; returns ``True`` once
        a worker answered.
        """
        return self.submit(_pong).result() is True

    def close(self, wait: bool = True) -> None:
        """Shut the pool down; further submissions raise.

        Idempotent by contract: pools are closed from several owners
        with different lifetimes — an explicit ``close()``, a context
        manager ``__exit__``, :func:`close_pool` /
        :func:`shutdown_pools`, and the interpreter-exit hook — and any
        of them may fire after another already won.  A second close is
        a strict no-op (it must not re-enter executor shutdown, whose
        behaviour during interpreter teardown is exactly the fragility
        this guard exists to remove).
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            executor, self._executor = self._executor, None
        if executor is not None:
            try:
                executor.shutdown(wait=wait, cancel_futures=True)
            except Exception:
                # Interpreter teardown can have reaped the executor's
                # queues/threads already; the pool is closed either way.
                pass

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else (
            f"id={self._pool_id}" if self._executor else "cold"
        )
        return f"WorkerPool(workers={self.workers}, {state})"


def _pong() -> bool:
    """Worker-side no-op for :meth:`WorkerPool.ping`."""
    return True


# -- shared pools --------------------------------------------------------------

_SHARED: dict[int, WorkerPool] = {}
_SHARED_LOCK = threading.Lock()


def get_pool(workers: int) -> WorkerPool:
    """The process-wide shared pool for ``workers`` worker processes.

    Executors and campaigns that were not handed an explicit pool
    acquire theirs here, which is what makes back-to-back
    ``run_cells`` calls and campaign runs reuse one warm pool.  A
    shared pool that was closed (directly or via
    :func:`shutdown_pools`) is replaced with a fresh one on the next
    acquisition.
    """
    with _SHARED_LOCK:
        pool = _SHARED.get(workers)
        if pool is None or pool.closed:
            pool = WorkerPool(workers)
            _SHARED[workers] = pool
        return pool


def active_pools() -> list[WorkerPool]:
    """Snapshot of the currently-registered shared pools (open or not) —
    lets callers (CLI teardown, tests) observe what :func:`get_pool`
    has handed out without creating anything."""
    with _SHARED_LOCK:
        return list(_SHARED.values())


def pool_telemetry() -> list[dict[str, Any]]:
    """Observability snapshot of every registered shared pool.

    One JSON-safe mapping per pool — worker width, live ``pool_id``
    (``None`` while cold) and ``spawns`` count — for status endpoints
    (``repro serve``) and dashboards.  ``spawns`` staying at 1 per
    width is how a server process certifies the one-pool-per-worker-
    count invariant.
    """
    with _SHARED_LOCK:
        pools = sorted(_SHARED.items())
    return [
        {
            "workers": workers,
            "pool_id": pool.pool_id,
            "spawns": pool.spawns,
            "closed": pool.closed,
        }
        for workers, pool in pools
    ]


def close_pool(workers: int, wait: bool = True) -> None:
    """Close and deregister the shared pool for ``workers``, if any.

    The targeted form of :func:`shutdown_pools` — a caller that only
    used one width (the CLI, say) tears its own pool down without
    destroying warm pools other parts of the process still hold.
    """
    with _SHARED_LOCK:
        pool = _SHARED.pop(workers, None)
    if pool is not None:
        pool.close(wait=wait)


def shutdown_pools(wait: bool = True) -> None:
    """Close every shared pool (idempotent; also runs at exit).

    Long-lived embedders (test suites, services) can call this between
    phases for deterministic worker teardown; the next :func:`get_pool`
    starts cold again.
    """
    with _SHARED_LOCK:
        pools = list(_SHARED.values())
        _SHARED.clear()
    for pool in pools:
        pool.close(wait=wait)


atexit.register(shutdown_pools)


# -- the ref-table batch format -----------------------------------------------


def make_batch_table(
    refs: Sequence[Variant], seeds: Sequence[int]
) -> tuple[tuple[Variant, ...], tuple[tuple[int, int], ...]]:
    """Pack parallel ``refs``/``seeds`` into a deduped batch table.

    Returns ``(table, jobs)`` where ``table`` holds each distinct ref
    once (equal refs collapse) and ``jobs`` is the ``(table_index,
    seed)`` row per cell, in cell order.

    Each table entry is probed for picklability as it enters the
    table: a ref carrying an unpicklable payload — a hashable but
    unpicklable parameter value, say — raises
    :class:`~repro.errors.ConfigError` naming the offender here,
    instead of an opaque pickle crash deep inside the pool submission
    machinery.
    """
    if len(refs) != len(seeds):
        raise ValueError(
            f"refs and seeds must align cell-for-cell: "
            f"got {len(refs)} refs, {len(seeds)} seeds"
        )
    table: list[Variant] = []
    index: dict[Variant, int] = {}
    jobs: list[tuple[int, int]] = []
    for ref, seed in zip(refs, seeds):
        position = index.get(ref)
        if position is None:
            position = index[ref] = len(table)
            _check_ref_payload(ref)
            table.append(ref)
        jobs.append((position, seed))
    return tuple(table), tuple(jobs)


def _check_ref_payload(ref: Variant) -> None:
    """Reject a table entry whose payload cannot be pickled.

    Ref construction validates hashability only — a value can be
    hashable yet unpicklable (a closure-held object, say).  Anyone
    driving :func:`make_batch_table`/:func:`run_table_batch` (the
    executor, benches, embedders) would otherwise get a raw
    ``PicklingError`` from inside ``ProcessPoolExecutor.submit``; the
    table is the one place every batch passes through, so the explicit
    error lives here.  Probed once per *distinct* table entry — deduped
    refs are tiny, so the probe is noise next to the submission pickle
    it predicts.
    """
    try:
        pickle.dumps(ref)
    except Exception as error:
        raise ConfigError(
            f"batch-table entry {ref.describe()} cannot be pickled to "
            f"worker processes ({type(error).__name__}: {error}); "
            "ScenarioRef/ReplayRef payloads must be picklable to ride "
            "the batch wire format — run with workers=1 to keep it "
            "in-process"
        ) from error


def run_table_batch(
    table: Sequence[Variant],
    jobs: Sequence[tuple[int, int]],
    # Ignored; perfbench/traced.py passes them (drop at re-cut).
    batch_sampling: bool | None = None,
    merge_batch: bool | None = None,
) -> list["TestRunResult"]:
    """Worker-side entry point: run one batch table's jobs, in order,
    each through :func:`run_cell`.  Module-level so it pickles to
    workers."""
    return [run_cell(table[position], seed) for position, seed in jobs]


def run_cell(ref: Variant, seed: int) -> "TestRunResult":
    """Build and run one cell: ``ref`` at ``seed``.

    A :class:`~repro.ptest.replay.ReplayRef` first parses its merged
    pattern (memoized on the ref), then builds its base scenario and
    replays the pattern over it; a base that builds no
    :class:`AdaptiveTest` is a :class:`ConfigError`.  Either kind
    resolves, validates and builds through :meth:`REGISTRY.build
    <repro.workloads.registry.ScenarioRegistry.build>`.
    """
    if not isinstance(ref, ReplayRef):
        return REGISTRY.build(ref.name, seed, dict(ref.params)).run()
    merged = ref.merged()
    base = ref.scenario
    test = REGISTRY.build(base.name, seed, dict(base.params))
    if not isinstance(test, AdaptiveTest):
        raise ConfigError(
            f"replay cell {ref.describe()} built "
            f"{type(test).__name__}, not an AdaptiveTest; merged-"
            "pattern replay needs the adaptive harness"
        )
    test.merged_override = merged
    return test.run()


def clear_worker_cache() -> int:
    """No-op that returns 0; perfbench/traced.py calls it (drop at
    re-cut)."""
    return 0
