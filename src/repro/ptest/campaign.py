"""Test campaigns: sweeps of adaptive-test runs with aggregation.

A campaign runs scenario variants across seeds, aggregates every run's
outcome *incrementally* as results stream off the executor, and
produces summary rows — the machinery behind the comparison benches,
exposed as a public API so downstream users can script their own
studies.

Variants are either raw builders (``builder(seed) -> AdaptiveTest``)
or, preferably, :class:`~repro.workloads.registry.ScenarioRef` values
added via :meth:`Campaign.add_scenario` /
:meth:`Campaign.add_grid` — refs are picklable by construction, so a
ref-only campaign always qualifies for process-pool dispatch.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.errors import ConfigError
from repro.ptest.chaos import ChaosSpec
from repro.ptest.detector import AnomalyKind
from repro.ptest.executor import (
    CellExecutor,
    QuarantineReport,
    ResultSink,
    ScenarioBuilder,
    WorkCell,
)
from repro.ptest.harness import AdaptiveTest, TestRunResult
from repro.ptest.pool import WorkerPool
from repro.workloads.registry import ScenarioRef, scenario_ref


def grid_variants(
    name: str,
    scenario: str,
    param_grid: Mapping[str, Sequence[Any]],
    **fixed: Any,
) -> dict[str, ScenarioRef]:
    """Expand a parameter grid into named :class:`ScenarioRef` variants.

    ``param_grid`` maps parameter names to the values to sweep; the
    cartesian product (in the mapping's key order) becomes variants
    named ``{name}[k1=v1,k2=v2,...]``, each mapped to a validated ref
    with ``fixed`` parameters applied.  This is the shared expansion
    behind :meth:`Campaign.add_grid` and the adaptive campaign's
    round-refinement policies (``GridZoom`` re-invokes it every round
    on a narrowed grid), so variant naming stays identical wherever a
    grid is built.
    """
    overlap = sorted(set(param_grid) & set(fixed))
    if overlap:
        raise ConfigError(
            f"parameters {overlap} appear both fixed and in the grid"
        )
    keys = list(param_grid)
    variants: dict[str, ScenarioRef] = {}
    for combo in itertools.product(*(param_grid[key] for key in keys)):
        point = dict(zip(keys, combo))
        label = ",".join(f"{key}={point[key]}" for key in keys)
        variant = f"{name}[{label}]" if label else name
        if variant in variants:
            raise ValueError(f"variant {variant!r} already registered")
        variants[variant] = scenario_ref(scenario, **fixed, **point)
    return variants


@dataclass(frozen=True)
class DetectionSample:
    """One detecting run's reproduction-relevant fields, as captured by
    :class:`DetectionCapture` — everything a refinement policy needs to
    steer the next round (or mint a replay cell) without retaining the
    full :class:`~repro.ptest.harness.TestRunResult`."""

    variant: str
    seed: int
    kind: str
    merged_op: str
    #: The interleaving at detection, rendered (``TC[p0#1] ...``) — the
    #: picklable currency of :mod:`repro.ptest.replay`.
    merged_description: str


@dataclass
class DetectionCapture:
    """Streaming sink retaining a bounded sample of detections.

    Feeds round-aware consumers (the adaptive campaign hands one to
    every round's :meth:`Campaign.run`): per variant, the first
    ``limit_per_variant`` detecting cells — submission order, so the
    sample is identical at any ``(workers, batch_size, warm/cold)`` —
    are kept as compact :class:`DetectionSample` values.  Compatible
    with ``keep_results=False`` campaigns: only strings and counters
    survive the stream.
    """

    limit_per_variant: int = 4
    samples: dict[str, list[DetectionSample]] = field(default_factory=dict)

    def accept(self, cell: WorkCell, result: TestRunResult) -> None:
        if not result.found_bug:
            return
        kept = self.samples.setdefault(cell.variant, [])
        if len(kept) >= self.limit_per_variant:
            return
        report = result.report
        kept.append(
            DetectionSample(
                variant=cell.variant,
                seed=cell.seed,
                kind=report.primary.kind.value,
                merged_op=report.merged_op,
                merged_description=report.merged_description,
            )
        )

    def for_variant(self, variant: str) -> tuple[DetectionSample, ...]:
        return tuple(self.samples.get(variant, ()))


@dataclass(frozen=True)
class CampaignRow:
    """Summary of one variant across its seeds."""

    variant: str
    runs: int
    detections: int
    kinds: tuple[str, ...]
    mean_ticks_to_detection: float
    mean_commands: float

    @property
    def rate(self) -> float:
        return self.detections / self.runs if self.runs else 0.0


@dataclass
class _RowAccumulator:
    """Streams one variant's results into a :class:`CampaignRow`.

    Keeps only counters and sums, never the results themselves, so a
    ``keep_results=False`` campaign aggregates arbitrarily many cells
    in O(variants) memory.
    """

    variant: str
    runs: int = 0
    detections: int = 0
    kind_counts: dict[str, int] = field(default_factory=dict)
    ticks_sum: int = 0
    commands_sum: int = 0

    def add(self, result: TestRunResult) -> None:
        self.runs += 1
        self.commands_sum += result.commands_issued
        if result.found_bug:
            self.detections += 1
            kind = result.report.primary.kind.value
            self.kind_counts[kind] = self.kind_counts.get(kind, 0) + 1
            self.ticks_sum += result.report.primary.detected_at

    def row(self) -> CampaignRow:
        return CampaignRow(
            variant=self.variant,
            runs=self.runs,
            detections=self.detections,
            kinds=tuple(sorted(self.kind_counts)),
            mean_ticks_to_detection=(
                self.ticks_sum / self.detections if self.detections else 0.0
            ),
            mean_commands=(
                self.commands_sum / self.runs if self.runs else 0.0
            ),
        )


@dataclass
class _CampaignSink:
    """Executor sink feeding the per-variant accumulators (and,
    optionally, the campaign's retained per-run results)."""

    accumulators: dict[str, _RowAccumulator]
    retained: dict[str, list[TestRunResult]] | None = None

    def accept(self, cell: WorkCell, result: TestRunResult) -> None:
        self.accumulators[cell.variant].add(result)
        if self.retained is not None:
            self.retained.setdefault(cell.variant, []).append(result)


@dataclass
class Campaign:
    """A named set of scenario variants, each swept over seeds.

    ``workers`` sets the default parallelism of :meth:`run`: ``None``
    (the default) derives it from ``pool`` when one is given and
    otherwise runs serially, ``1`` forces every (variant, seed) cell
    serially in this process even when a pool is configured, ``n > 1``
    fans the cells out over a persistent worker pool in batches of
    ``batch_size`` cells per submission (see
    :class:`~repro.ptest.executor.CellExecutor`).  By default that is
    the process-wide shared :class:`~repro.ptest.pool.WorkerPool` for
    ``workers``, so consecutive :meth:`run` calls reuse warm worker
    processes (and their per-variant scenario caches); pass ``pool=``
    for explicit lifetime control.  Cells are independent — each run
    derives all its randomness from its own seed — and results are
    aggregated in submission order, so the summary rows are identical
    at any ``(workers, batch_size)``, warm or cold.

    Prefer :meth:`add_scenario` / :meth:`add_grid` (registry-backed
    :class:`~repro.workloads.registry.ScenarioRef` variants, always
    parallelisable) over :meth:`add_variant` with a raw callable —
    callables that cannot be pickled force the serial path with a
    :class:`RuntimeWarning`.

    ``keep_results=False`` drops per-run :class:`TestRunResult` objects
    after they are folded into the row accumulators, so huge sweeps run
    in constant memory (``results`` then stays empty).
    """

    seeds: Iterable[int] = (0, 1, 2, 3, 4)
    variants: dict[str, ScenarioBuilder] = field(default_factory=dict)
    results: dict[str, list[TestRunResult]] = field(default_factory=dict)
    workers: int | None = None
    batch_size: int | None = None
    pool: "WorkerPool | None" = None
    keep_results: bool = True
    #: Per-cell watchdog deadline in seconds — forwarded to
    #: :class:`~repro.ptest.executor.CellExecutor`; hung pool batches
    #: are killed and retried instead of wedging the campaign.
    cell_timeout: float | None = None
    #: Bisect repeatedly-failing batches down to the poison cells and
    #: finish with partial results (see :meth:`run` /
    #: :attr:`last_quarantine`) instead of raising.
    quarantine: bool = False
    #: Seeded fault injection at the pool boundary (tests/benches only);
    #: see :class:`~repro.ptest.chaos.ChaosSpec`.
    chaos: "ChaosSpec | None" = None
    #: ``WorkerPool.pool_id`` the last :meth:`run` dispatched through
    #: (``None`` after a serial run) — equal ids across runs certify
    #: warm-pool reuse.
    last_pool_id: int | None = field(default=None, init=False)
    #: :class:`~repro.ptest.executor.QuarantineReport` of the last
    #: :meth:`run` when ``quarantine`` was on (``None`` otherwise).
    last_quarantine: "QuarantineReport | None" = field(
        default=None, init=False
    )
    #: Per-variant streaming aggregates of the last :meth:`run` — what
    #: :meth:`detection_rate` / :meth:`kind_counts` consult, so those
    #: accessors stay correct with ``keep_results=False``.
    _accumulators: dict[str, _RowAccumulator] = field(
        default_factory=dict, repr=False, init=False
    )

    def add_variant(self, name: str, builder: ScenarioBuilder) -> None:
        """Register a variant under ``name`` (builder or ScenarioRef)."""
        if name in self.variants:
            raise ValueError(f"variant {name!r} already registered")
        self.variants[name] = builder

    def add_scenario(self, name: str, scenario: str, **params: Any) -> None:
        """Register registry scenario ``scenario`` (with fixed
        ``params``) as variant ``name``."""
        self.add_variant(name, scenario_ref(scenario, **params))

    def add_grid(
        self,
        name: str,
        scenario: str,
        param_grid: Mapping[str, Sequence[Any]],
        **fixed: Any,
    ) -> list[str]:
        """Register one variant per point of ``param_grid``.

        ``param_grid`` maps parameter names to the values to sweep; the
        cartesian product (in the mapping's key order) becomes variants
        named ``{name}[k1=v1,k2=v2,...]`` (see :func:`grid_variants`).
        ``fixed`` parameters are applied to every point.  Returns the
        variant names, in registration order.
        """
        expanded = grid_variants(name, scenario, param_grid, **fixed)
        for variant, ref in expanded.items():
            self.add_variant(variant, ref)
        return list(expanded)

    def run(
        self,
        workers: int | None = None,
        batch_size: int | None = None,
        sink: ResultSink | None = None,
    ) -> list[CampaignRow]:
        """Execute every variant over every seed; returns summary rows.

        ``workers`` / ``batch_size`` override the campaign defaults for
        this call.  Rows are aggregated incrementally as results stream
        back; ``sink`` (if given) additionally receives every
        ``(cell, result)`` pair in submission order.
        """
        effective = self.workers if workers is None else workers
        cells = [
            WorkCell(variant=name, seed=seed)
            for name in self.variants
            for seed in self.seeds
        ]
        accumulators = {
            name: _RowAccumulator(variant=name) for name in self.variants
        }
        retained: dict[str, list[TestRunResult]] | None = None
        if self.keep_results:
            retained = {name: [] for name in self.variants}
        campaign_sink = _CampaignSink(
            accumulators=accumulators, retained=retained
        )
        fan_out: ResultSink = campaign_sink
        if sink is not None:
            fan_out = TeeSink((campaign_sink, sink))
        executor = CellExecutor(
            workers=effective,
            batch_size=(
                self.batch_size if batch_size is None else batch_size
            ),
            pool=self.pool,
            cell_timeout=self.cell_timeout,
            quarantine=self.quarantine,
            chaos=self.chaos,
        )
        executor.run_cells(self.variants, cells, sink=fan_out)
        self.last_pool_id = executor.last_pool_id
        self.last_quarantine = executor.last_quarantine
        if retained is not None:
            self.results.update(retained)
        self._accumulators.update(accumulators)
        return [accumulators[name].row() for name in self.variants]

    def detection_rate(self, variant: str) -> float:
        accumulator = self._accumulators.get(variant)
        if accumulator is None or not accumulator.runs:
            return 0.0
        return accumulator.detections / accumulator.runs

    def kind_counts(self, variant: str) -> dict[str, int]:
        accumulator = self._accumulators.get(variant)
        if accumulator is None:
            return {}
        return dict(accumulator.kind_counts)


@dataclass
class TeeSink:
    """Fans each accepted result out to several sinks, in order."""

    sinks: tuple[ResultSink, ...]

    def accept(self, cell: WorkCell, result: TestRunResult) -> None:
        for sink in self.sinks:
            sink.accept(cell, result)


def _op_variant_builder(
    builder_for_op: Callable[[str, int], AdaptiveTest], op: str, seed: int
) -> AdaptiveTest:
    """Module-level adapter binding ``op`` for legacy ``compare_ops``
    callables — picklable whenever ``builder_for_op`` is."""
    return builder_for_op(op, seed)


def compare_ops(
    scenario: str | Callable[[str, int], AdaptiveTest],
    ops: Iterable[str],
    seeds: Iterable[int],
    expected: AnomalyKind,
    *,
    workers: int | None = None,
    batch_size: int | None = None,
    pool: WorkerPool | None = None,
    params: Mapping[str, Any] | None = None,
) -> list[CampaignRow]:
    """Convenience: one campaign variant per merge op, detections scored
    against the expected anomaly class.

    ``scenario`` is preferably a registry name whose builder takes an
    ``op`` parameter (e.g. ``"philosophers"``) — the sweep then runs on
    :class:`~repro.workloads.registry.ScenarioRef` grid variants and
    parallelises cleanly at any ``workers``/``batch_size``.  A legacy
    ``builder_for_op(op, seed)`` callable is also accepted (it must be
    picklable itself to leave the serial path).
    """
    campaign = Campaign(
        seeds=tuple(seeds), workers=workers, batch_size=batch_size, pool=pool
    )
    if isinstance(scenario, str):
        for op in ops:
            campaign.add_scenario(op, scenario, op=op, **(params or {}))
    else:
        if params:
            raise ValueError(
                "params are only supported with registry scenario names"
            )
        from functools import partial

        for op in ops:
            campaign.add_variant(
                op, partial(_op_variant_builder, scenario, op)
            )
    rows = campaign.run()
    # Re-score detections against the expected anomaly class.
    rescored = []
    for row in rows:
        hits = sum(
            1
            for run in campaign.results[row.variant]
            if run.found_bug and run.report.primary.kind is expected
        )
        rescored.append(
            CampaignRow(
                variant=row.variant,
                runs=row.runs,
                detections=hits,
                kinds=row.kinds,
                mean_ticks_to_detection=row.mean_ticks_to_detection,
                mean_commands=row.mean_commands,
            )
        )
    return rescored
