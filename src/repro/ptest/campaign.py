"""Campaign rows: what one round of cells adds up to.

An :class:`~repro.ptest.adaptive.AdaptiveCampaign` round runs scenario
variants across seeds on a
:class:`~repro.ptest.executor.CellExecutor` and aggregates every run's
outcome *incrementally* as results stream off it: one
:class:`CampaignRow` per variant and a bounded
:class:`DetectionCapture` of detecting interleavings.  This module
holds those pieces, the round's sink that feeds them, and
:func:`grid_variants`, the parameter-grid expansion every round
(first or refined) names its variants with.

Variants are :class:`~repro.workloads.registry.ScenarioRef` values
naming default-registry scenarios, or merged-pattern
:class:`~repro.ptest.replay.ReplayRef` cells over one.  A scenario
built by a lambda or closure takes part by being registered with
:func:`~repro.workloads.registry.scenario` and added by name.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from repro.errors import ConfigError
from repro.ptest.executor import ResultSink, WorkCell
from repro.ptest.harness import TestRunResult
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
    behind :meth:`~repro.ptest.adaptive.AdaptiveCampaign.add_grid`,
    the spec's variants and the round-refinement policies
    (``GridZoom`` re-invokes it every round on a narrowed grid), so
    variant naming stays identical wherever a grid is built.  An axis
    with no values raises :class:`~repro.errors.ConfigError` (it would
    expand to no variant).
    """
    overlap = sorted(set(param_grid) & set(fixed))
    if overlap:
        raise ConfigError(
            f"parameters {overlap} appear both fixed and in the grid"
        )
    for key, values in param_grid.items():
        if not values:
            raise ConfigError(f"grid parameter {key!r} has no values to sweep")
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

    Feeds round-aware consumers (the adaptive campaign fills one every
    round): per variant, the first ``limit_per_variant`` detecting
    cells — submission order, so the sample is identical at any
    ``(workers, batch_size, warm/cold)`` — are kept as compact
    :class:`DetectionSample` values.  Only strings and counters
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
    round aggregates arbitrarily many cells in O(variants) memory.
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
class _RoundSink:
    """Executor sink of one round: folds each result into its
    variant's row and the detection capture, then hands it on to the
    caller's ``sink`` (if any), all in submission order."""

    accumulators: dict[str, _RowAccumulator]
    capture: DetectionCapture
    sink: ResultSink | None = None

    def accept(self, cell: WorkCell, result: TestRunResult) -> None:
        self.accumulators[cell.variant].add(result)
        self.capture.accept(cell, result)
        if self.sink is not None:
            self.sink.accept(cell, result)
