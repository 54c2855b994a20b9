"""Persistent worker pools and the ScenarioRef-table batch format.

Before this subsystem existed every :meth:`CellExecutor.run_cells` call
constructed (and tore down) its own ``ProcessPoolExecutor`` and shipped
each cell as a fresh ``(builder, seed)`` pickle, and every worker
re-resolved its scenario and recompiled its sampling automaton from
scratch on every cell.  For campaign cells in the low-millisecond range
that overhead dominates the actual work.  Three amortisation layers fix
it:

* **Warm pools.**  :class:`WorkerPool` wraps a lazily-created
  ``ProcessPoolExecutor`` that survives across ``run_cells`` /
  ``Campaign.run`` / ``compare_ops`` calls.  :func:`get_pool` hands out
  one shared pool per worker count; pools are health-checked on use
  (a dead worker breaks a process pool — the wrapper discards the
  broken executor and respawns a fresh one) and are explicitly
  closable, via context manager for deterministic test shutdown or the
  module-level :func:`shutdown_pools` which also runs at interpreter
  exit.

* **ScenarioRef batch tables.**  A batch crosses the process boundary
  as ``(builders, jobs)`` where ``builders`` lists each *distinct*
  builder once and ``jobs`` is a compact ``(builder_index, seed)``
  table — N seeds of one variant pickle its
  :class:`~repro.workloads.registry.ScenarioRef` once, not N times.
  :func:`run_table_batch` is the worker-side entry point.

* **Worker-side caches.**  Inside each worker process,
  :func:`run_table_batch` memoizes per
  :attr:`~repro.workloads.registry.ScenarioRef.cache_key` — i.e. per
  ``(scenario_name, sorted_params)`` — the resolved registry builder
  with its validated parameters, and the
  :class:`~repro.automata.compiled.CompiledPFA` of the scenario's
  pattern automaton.  N seeds of the same variant therefore pay
  registry resolution, parameter validation and PFA compilation once
  per worker instead of N times.  The cache never changes results: the
  compiled automaton is only substituted after an equality check
  against the PFA the fresh test actually built (a builder whose PFA
  varied — by seed, say — would simply recompile), and compiled
  sampling is bit-identical to the uncompiled walk by construction.

  Merged-pattern replay cells (:class:`~repro.ptest.replay.ReplayRef`,
  what the adaptive campaign's ``ReplayFocus`` policy emits) ride the
  same path: the ref's base :class:`ScenarioRef` resolves through the
  identical machinery and the parsed
  :class:`~repro.ptest.patterns.MergedPattern` is memoized per
  ``ReplayRef.cache_key``, so N replay seeds of one recorded
  interleaving parse its description once per worker.  The parsed
  pattern is read-only to the harness (the committer keeps its own
  cursor), so sharing one instance across runs cannot change results.

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
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

from repro.automata.compiled import CompiledPFA
from repro.errors import ConfigError
from repro.ptest.harness import AdaptiveTest

if TYPE_CHECKING:
    from repro.ptest.executor import ScenarioBuilder
    from repro.ptest.harness import TestRunResult
    from repro.workloads.registry import ScenarioRef

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
        Worker-process count of the underlying pool.

    The wrapped ``ProcessPoolExecutor`` is created lazily on first
    :meth:`submit` and reused by every later submission — including
    across separate ``run_cells`` / ``Campaign.run`` calls — until
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
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self._executor: ProcessPoolExecutor | None = None
        self._pool_id: int | None = None
        self._spawns = 0
        self._prewarmed_refs = 0
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
    def prewarmed_refs(self) -> int:
        """Distinct cache keys shipped by :meth:`prewarm` so far."""
        return self._prewarmed_refs

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
        from repro.workloads.registry import REGISTRY

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
            # clear_worker_cache as initializer: forked workers would
            # otherwise inherit whatever cache the *parent* built by
            # calling run_table_batch in-process, which the registry
            # version bump cannot invalidate.  Workers always start
            # cold and build their own entries.
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers, initializer=clear_worker_cache
            )
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

    def prewarm(
        self, builders: Iterable[Any], wait: bool = False
    ) -> int:
        """Ship upcoming builders' cache keys to the workers, ahead of
        the batches that will need them.

        The cross-round warming lever: an adaptive campaign knows the
        *next* round's variants as soon as its policy refines, so it
        ships the distinct portable refs here (one deduped table, the
        batch wire format minus the seeds) and every worker resolves,
        validates and compiles them — via :func:`prewarm_table`, into
        the same per-process cache real batches read — while the parent
        is still building the next round's campaign.  Round N+1's first
        cells then start against hot caches instead of paying
        resolution/compilation inside the round.

        Strictly best-effort and advisory: entries without a
        ``cache_key``, refs bound to a custom registry, and unpicklable
        payloads are skipped (the real dispatch raises its usual
        explicit errors for those), worker-side resolution failures are
        swallowed (ditto), and nothing here can change any cell's
        result — the worker cache is equality-checked before reuse.
        One prewarm task is submitted per worker process, but the
        executor's shared call queue does not pin tasks to processes,
        so coverage is best-effort too: an eager worker may drain
        several tasks while a slow-forking sibling gets none, and a
        worker left cold simply pays resolution inside its first real
        batch, exactly as it would have without pre-warming.  With
        ``wait=False`` (the default) the tasks run concurrently with
        whatever the caller does next.  Returns how many distinct cache
        keys were shipped (0 = nothing warmable, nothing submitted).
        """
        table: list[Any] = []
        seen: set[tuple] = set()
        for builder in builders:
            key = getattr(builder, "cache_key", None)
            if key is None or key in seen:
                continue
            try:
                pickle.dumps(builder)
            except Exception:
                continue  # real dispatch raises the explicit ConfigError
            seen.add(key)
            table.append(builder)
        if not table:
            return 0
        futures = [
            self.submit(prewarm_table, tuple(table))
            for _ in range(self.workers)
        ]
        self._prewarmed_refs += len(table)
        for future in futures:
            if wait:
                try:
                    future.result()
                except Exception:
                    pass  # advisory: the round's own dispatch reports
            else:
                future.add_done_callback(_consume_prewarm_outcome)
        return len(table)

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


def _consume_prewarm_outcome(future: Future) -> None:
    """Drain a fire-and-forget prewarm future's outcome.

    Prewarming is advisory, so its failures (a worker death, a stale
    registry) are not errors here — the round's real submissions hit
    the same condition and report it through the executor's existing
    respawn/resubmit machinery.  Consuming the exception just keeps the
    interpreter from logging "exception was never retrieved" noise.
    """
    try:
        future.result()
    except Exception:
        pass


# -- shared pools --------------------------------------------------------------

_SHARED: dict[int, WorkerPool] = {}
_SHARED_LOCK = threading.Lock()


def get_pool(workers: int) -> WorkerPool:
    """The process-wide shared pool for ``workers`` worker processes.

    Executors and campaigns that were not handed an explicit pool
    acquire theirs here, which is what makes back-to-back
    ``Campaign.run`` calls reuse one warm pool.  A shared pool that was
    closed (directly or via :func:`shutdown_pools`) is replaced with a
    fresh one on the next acquisition.
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
    (``None`` while cold), ``spawns`` count and prewarmed-ref total —
    for status endpoints (``repro serve``) and dashboards.  ``spawns``
    staying at 1 per width is how a server process certifies the
    one-pool-per-worker-count invariant.
    """
    with _SHARED_LOCK:
        pools = sorted(_SHARED.items())
    return [
        {
            "workers": workers,
            "pool_id": pool.pool_id,
            "spawns": pool.spawns,
            "prewarmed_refs": pool.prewarmed_refs,
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


# -- the ScenarioRef-table batch format ---------------------------------------


def make_batch_table(
    builders: Sequence["ScenarioBuilder"], seeds: Sequence[int]
) -> tuple[tuple["ScenarioBuilder", ...], tuple[tuple[int, int], ...]]:
    """Pack parallel ``builders``/``seeds`` into a deduped batch table.

    Returns ``(table, jobs)`` where ``table`` holds each distinct
    builder once (value-deduped when hashable — equal ``ScenarioRef``\\ s
    collapse — with an identity fallback for unhashable callables) and
    ``jobs`` is the ``(table_index, seed)`` row per cell, in cell order.

    Refs compare equal by ``(name, sorted(params))`` alone, but a ref
    *bound* to a custom registry resolves through that registry, not
    the default one — so the dedupe key also carries the bound
    registry's identity, and a bound ref never collapses into an
    equal-looking ref that would build a different scenario.

    Table entries that present a ``cache_key`` (scenario refs, replay
    refs) are probed for picklability as they enter the table: a ref
    carrying an unpicklable payload — a hashable-but-unpicklable
    parameter value, say — raises :class:`~repro.errors.ConfigError`
    naming the offender here, instead of an opaque pickle crash deep
    inside the pool submission machinery.  (Raw callables keep their
    existing contract: the executor's up-front portability probe routes
    unpicklable ones to the serial path before any table is built.)
    """
    if len(builders) != len(seeds):
        raise ValueError(
            f"builders and seeds must align cell-for-cell: "
            f"got {len(builders)} builders, {len(seeds)} seeds"
        )
    table: list["ScenarioBuilder"] = []
    index: dict[Any, int] = {}
    jobs: list[tuple[int, int]] = []
    for builder, seed in zip(builders, seeds):
        bound = getattr(builder, "registry", None)
        key = builder if bound is None else (id(bound), builder)
        try:
            position = index.get(key)
        except TypeError:  # unhashable builder: ship it undeduped
            position = None
        if position is None:
            position = len(table)
            if hasattr(builder, "cache_key"):
                _check_ref_payload(builder)
            table.append(builder)
            try:
                index[key] = position
            except TypeError:
                pass
        jobs.append((position, seed))
    return tuple(table), tuple(jobs)


def _check_ref_payload(builder: Any) -> None:
    """Reject a ref-like table entry whose payload cannot be pickled.

    Ref construction validates hashability only — a value can be
    hashable yet unpicklable (a closure-held object, a binding to a
    registry of lambdas).  The executor's up-front portability probe
    shields its own dispatch path by degrading to serial, but anyone
    driving :func:`make_batch_table`/:func:`run_table_batch` directly
    (benches, embedders, future dispatchers) used to get a raw
    ``PicklingError`` from inside ``ProcessPoolExecutor.submit``; the
    table is the one place every batch passes through, so the explicit
    error lives here.  Probed once per *distinct* table entry — deduped
    refs are tiny, so the probe is noise next to the submission pickle
    it predicts.
    """
    try:
        pickle.dumps(builder)
    except Exception as error:
        describe = getattr(builder, "describe", None)
        label = describe() if callable(describe) else repr(builder)
        raise ConfigError(
            f"batch-table entry {label} cannot be pickled to worker "
            f"processes ({type(error).__name__}: {error}); ScenarioRef/"
            "ReplayRef payloads must be picklable to ride the batch "
            "wire format — run with workers=1 to keep it in-process"
        ) from error


def run_table_batch(
    table: Sequence["ScenarioBuilder"],
    jobs: Sequence[tuple[int, int]],
    # Ignored; perfbench/traced.py passes them (drop at re-cut).
    batch_sampling: bool | None = None,
    merge_batch: bool | None = None,
) -> list["TestRunResult"]:
    """Worker-side entry point: run one batch table's jobs, in order.

    Module-level so it pickles to workers.  Builders that are portable
    (default-registry) ``ScenarioRef``\\ s run through the worker cache —
    resolution, parameter validation and PFA compilation are memoized
    per :attr:`~repro.workloads.registry.ScenarioRef.cache_key` for the
    life of the worker process.  Portable
    :class:`~repro.ptest.replay.ReplayRef` replay cells likewise: their
    base scenario resolves through the same cache and the parsed merged
    pattern is memoized per replay key.  Everything else (raw
    callables, refs bound to a custom registry) runs uncached exactly
    as before.
    """
    from repro.ptest.replay import ReplayRef
    from repro.workloads.registry import ScenarioRef

    results = []
    for position, seed in jobs:
        builder = table[position]
        if isinstance(builder, ScenarioRef) and builder.registry is None:
            results.append(_run_cached_ref(builder, seed))
        elif isinstance(builder, ReplayRef) and builder.portable:
            results.append(_run_cached_replay(builder, seed))
        else:
            results.append(builder(seed).run())
    return results


#: Seed used to build the throwaway test instance a prewarm compiles
#: its PFA from.  Any value works: the cached compilation is reused
#: only after a source-PFA equality check, so a seed-dependent
#: automaton simply recompiles on first real use.
PREWARM_SEED = 0


def prewarm_table(table: Sequence["ScenarioBuilder"]) -> int:
    """Worker-side entry point: populate this process's cache for a
    table of upcoming builders, running nothing.

    The cache-building half of :func:`run_table_batch` on its own: for
    each portable :class:`~repro.workloads.registry.ScenarioRef` /
    :class:`~repro.ptest.replay.ReplayRef` in ``table``, resolve the
    registry builder, validate its parameters, parse any merged
    pattern, and compile the scenario's pattern automaton — so the
    first real batch that needs the entry finds it hot.  Advisory by
    design: unresolvable entries are skipped (real dispatch raises the
    informative error), and nothing here can change a later result —
    the entries built are exactly the ones :func:`run_table_batch`
    would have built on first contact.  Returns how many entries are
    warm (pre-existing ones included).
    """
    from repro.ptest.replay import ReplayRef
    from repro.workloads.registry import ScenarioRef

    warmed = 0
    for builder in table:
        try:
            if isinstance(builder, ScenarioRef) and builder.registry is None:
                entry = _cache_entry(
                    builder.cache_key,
                    lambda ref=builder: _resolved_entry(ref),
                )
            elif isinstance(builder, ReplayRef) and builder.portable:
                entry = _cache_entry(
                    builder.cache_key,
                    lambda ref=builder: _resolved_entry(
                        ref.scenario, merged=ref.merged()
                    ),
                )
            else:
                continue
            _prime_compiled_pfa(
                entry.builder(PREWARM_SEED, **entry.params), entry
            )
            warmed += 1
        except Exception:
            continue  # the round's own dispatch surfaces the error
    return warmed


@dataclass
class _CacheEntry:
    """One worker-cache slot: the resolved builder and its artifacts."""

    builder: Callable[..., Any]
    params: dict[str, Any]
    compiled: CompiledPFA | None = None
    #: Parsed merged pattern of a replay cell (``None`` for plain
    #: scenario entries) — read-only to the harness, safely shared.
    merged: Any = None
    hits: int = 0
    compilations: int = 0


#: Per-process memoization of resolved scenarios, keyed by
#: ``ScenarioRef.cache_key``.  Its lifetime is the process's; pool
#: workers run :func:`clear_worker_cache` as their initializer, so
#: they always start cold even when forked from a parent that called
#: :func:`run_table_batch` in-process.
_WORKER_CACHE: dict[tuple, _CacheEntry] = {}

#: Entry cap: warm workers live for the embedding process's lifetime,
#: so an unbounded cache would grow with every distinct grid point ever
#: dispatched.  Eviction is oldest-inserted (batches access their
#: variants locally, so FIFO loses almost nothing over LRU here).
MAX_WORKER_CACHE_ENTRIES = 512


def _cache_entry(cache_key: tuple, factory: Callable[[], _CacheEntry]) -> _CacheEntry:
    """Fetch-or-build one worker-cache slot (FIFO-capped)."""
    entry = _WORKER_CACHE.get(cache_key)
    if entry is None:
        entry = factory()
        while len(_WORKER_CACHE) >= MAX_WORKER_CACHE_ENTRIES:
            _WORKER_CACHE.pop(next(iter(_WORKER_CACHE)))
        _WORKER_CACHE[cache_key] = entry
    else:
        entry.hits += 1
    return entry


def _resolved_entry(ref: "ScenarioRef", merged: Any = None) -> _CacheEntry:
    from repro.workloads.registry import REGISTRY

    spec = REGISTRY.get(ref.name)
    return _CacheEntry(
        builder=spec.builder,
        params=spec.validate(dict(ref.params)),
        merged=merged,
    )


def _run_cached_ref(ref: "ScenarioRef", seed: int) -> "TestRunResult":
    entry = _cache_entry(ref.cache_key, lambda: _resolved_entry(ref))
    test = entry.builder(seed, **entry.params)
    _prime_compiled_pfa(test, entry)
    return test.run()


def _run_cached_replay(ref: Any, seed: int) -> "TestRunResult":
    """Run one replay cell through the worker cache.

    The cache slot holds the base scenario's resolved builder/params
    *and* the parsed merged pattern, keyed by the replay ref's own
    ``cache_key`` — distinct from (and coexisting with) the plain
    scenario entry for the same base ref.
    """
    entry = _cache_entry(
        ref.cache_key,
        lambda: _resolved_entry(ref.scenario, merged=ref.merged()),
    )
    test = entry.builder(seed, **entry.params)
    if not isinstance(test, AdaptiveTest):
        raise ConfigError(
            f"replay cell {ref.describe()} built "
            f"{type(test).__name__}, not an AdaptiveTest"
        )
    _prime_compiled_pfa(test, entry)
    test.merged_override = entry.merged
    return test.run()


def _prime_compiled_pfa(test: Any, entry: _CacheEntry) -> None:
    """Substitute the cached :class:`CompiledPFA` into a fresh test.

    Only applies to :class:`AdaptiveTest` instances whose pattern
    automaton is an explicit (or default Fig. 5) PFA.  The cached
    compilation is reused only when its source PFA *equals* the one
    this test just built — a builder producing seed-dependent automata
    falls back to a fresh compilation, trading the speedup for
    unconditional correctness.
    """
    if not isinstance(test, AdaptiveTest):
        return
    source = test.pattern_pfa()
    if source is None or isinstance(source, CompiledPFA):
        return
    compiled = entry.compiled
    if compiled is None or compiled.source != source:
        compiled = CompiledPFA.from_pfa(source)
        entry.compiled = compiled
        entry.compilations += 1
    test.pfa = compiled


def worker_cache_info() -> dict[str, Any]:
    """Introspection snapshot of *this process's* worker cache.

    Submit through a pool (``pool.submit(worker_cache_info)``) to
    observe a worker's cache; used by the lifecycle tests to verify
    per-variant keying and fork-safety.
    """
    return {
        "entries": len(_WORKER_CACHE),
        "keys": sorted(_WORKER_CACHE, key=repr),
        "hits": {key: entry.hits for key, entry in _WORKER_CACHE.items()},
        "compilations": {
            key: entry.compilations
            for key, entry in _WORKER_CACHE.items()
        },
    }


def clear_worker_cache() -> int:
    """Drop every worker-cache entry (returns how many were held)."""
    count = len(_WORKER_CACHE)
    _WORKER_CACHE.clear()
    return count
