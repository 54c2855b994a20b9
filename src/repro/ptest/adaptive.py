"""Campaigns in rounds: generate → execute → detect → refine.

:class:`AdaptiveCampaign` is the one campaign engine.  Each round
sweeps its variants over the seeds on one
:class:`~repro.ptest.executor.CellExecutor`; one unrefined round
(``rounds=1``, the default) is a plain sweep.  With more rounds it
closes the loop the ROADMAP names — "multi-round adaptive campaigns
that feed detection results back into ref parameters without leaving
the warm pool": every round runs on **one** shared
:class:`~repro.ptest.pool.WorkerPool` (``pool_id`` constant across
rounds — round 2+ never pays pool spawn), and between rounds each
round's per-variant detection rates, bug-kind counts and sampled
detecting interleavings go to a pluggable :class:`RefinePolicy` that
emits the next round's variants.

Built-in policies:

:class:`GridZoom`
    Narrows a parameter grid around the highest-detection cell — each
    varying parameter keeps the best value and its immediate grid
    neighbours, so successive rounds concentrate seeds on the region
    where detections cluster.
:class:`SuccessiveHalving`
    Drops the bottom half of variants (by detection rate) each round —
    the classic budget-reallocation racer.
:class:`ReplayFocus`
    Turns detecting runs' recorded interleavings into merged-pattern
    replay cells: the detecting pattern's sources are re-merged under
    the policy's ops via :meth:`PatternMerger.merge_symbols` and
    shipped as picklable :class:`~repro.ptest.replay.ReplayRef`
    variants — riding the executor's deduped batch-table wire format
    and the one cell path like any registry scenario.
:class:`Repeat`
    Re-emits the same variants every round — the stability/benchmark
    baseline (rounds differ only in warm-up state, never in results).

Policies compose into staged schedules (zoom for three rounds, then
replay) as a :class:`PolicyPipeline`: a value listing
:class:`PipelineStage` policies and their round caps, which
:meth:`AdaptiveCampaign.run` steps through itself.  Each round is one
generate → merge → commit → detect pass over its cells; a refined
round's refs ride that round's batches like any other cell's.

Every round lands as one :class:`RoundObservation`: the record a
policy refines, the checkpoint stores, ``execute_spec`` returns and
``repro serve`` ships as a ``round`` frame.

**Determinism contract.**  For a fixed seed set and policy, the
round-by-round variant sets and every round's rows are bit-identical at
any ``(workers, batch_size, warm/cold)`` execution configuration:
campaign rows already are, detection samples are captured in submission
order, and every built-in policy is a pure function of its
:class:`RoundObservation` (stochastic re-merging derives its RNG seeds
from the policy seed and round/sample indices alone).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import (
    Any,
    Callable,
    Iterable,
    Mapping,
    Protocol,
    Sequence,
    runtime_checkable,
)

from pathlib import Path

from repro.errors import ConfigError
from repro.ptest.campaign import (
    CampaignRow,
    DetectionCapture,
    DetectionSample,
    _RoundSink,
    _RowAccumulator,
    grid_variants,
)
from repro.ptest.checkpoint import CampaignCheckpoint, campaign_fingerprint
from repro.ptest.executor import (
    CellExecutor,
    QuarantinedCell,
    QuarantineReport,
    ResultSink,
    WorkCell,
)
from repro.ptest.merger import PatternMerger
from repro.ptest.pool import Variant, get_pool
from repro.ptest.replay import ReplayRef, parse_merged_description, replay_ref
from repro.workloads.registry import ScenarioRef, scenario_ref


@dataclass(frozen=True)
class RoundObservation:
    """One executed (or checkpoint-replayed) round: what a refine
    policy sees, what a caller audits and what the wire carries.

    The compared fields are frozen dataclasses of JSON-safe scalars
    (Python floats survive a JSON round-trip exactly), so a round
    rebuilt by :func:`~repro.ptest.spec.round_from_dict` on the far
    side of a socket compares *equal* to the original — the unit of the
    serve bit-identity contract.  ``variants`` and ``pool_id`` are
    process-local: they stay off the wire and out of equality.
    """

    index: int
    rows: tuple[CampaignRow, ...]
    #: Bounded sample of detecting cells (``capture_per_variant`` per
    #: variant): row order, then capture order, which is submission
    #: order.
    detections: tuple[DetectionSample, ...]
    #: Partial-result accounting of the round when its executor ran
    #: with ``quarantine=True`` (``None`` otherwise).  Quarantined
    #: cells are configuration-independent, so this rides inside the
    #: determinism contract rather than alongside it.
    quarantine: "QuarantineReport | None" = None
    #: Label of the :class:`PipelineStage` that owned this round
    #: (``None`` without a pipeline) — part of the schedule, so part of
    #: the contract; :meth:`AdaptiveCampaign.run` sets it.
    stage: str | None = None
    #: The variants this round ran, in row order.
    variants: dict[str, Variant] = field(default_factory=dict, compare=False)
    #: ``WorkerPool.pool_id`` the round dispatched through (``None`` for
    #: serial rounds) — constant across rounds certifies warm reuse.
    pool_id: int | None = field(default=None, compare=False)

    def __setstate__(self, state: dict[str, Any]) -> None:
        # Checkpoints written before the round record was one type
        # stored detections per variant and no stage.
        detections = state["detections"]
        if isinstance(detections, dict):
            state["detections"] = tuple(
                sample
                for row in state["rows"]
                for sample in detections.get(row.variant, ())
            )
        state.setdefault("stage", None)
        self.__dict__.update(state)

    @property
    def total_detections(self) -> int:
        return sum(row.detections for row in self.rows)

    def row(self, variant: str) -> CampaignRow:
        for row in self.rows:
            if row.variant == variant:
                return row
        raise KeyError(f"no row for variant {variant!r}")

    def rate(self, variant: str) -> float:
        return self.row(variant).rate

    def kind_counts(self) -> dict[str, int]:
        """Bug-kind histogram over this round's sampled detections."""
        counts: dict[str, int] = {}
        for sample in self.detections:
            counts[sample.kind] = counts.get(sample.kind, 0) + 1
        return counts

    def best_variant(self) -> str | None:
        """Highest-detection-rate variant (ties keep the earliest row);
        ``None`` when the round detected nothing."""
        best: str | None = None
        best_rate = 0.0
        for row in self.rows:
            if row.detections and row.rate > best_rate:
                best, best_rate = row.variant, row.rate
        return best


@runtime_checkable
class RefinePolicy(Protocol):
    """Maps one round's observation to the next round's variants.

    Return a (non-empty) ``name -> ref`` mapping to continue, or
    ``None``/empty to stop the campaign early (converged, or nothing
    detected to steer by).  Implementations must be deterministic in
    the observation — that is what extends the campaign determinism
    contract across rounds.
    """

    def refine(
        self, observation: RoundObservation
    ) -> Mapping[str, Variant] | None:
        """Produce the next round's variants (``None`` = stop)."""
        ...  # pragma: no cover - protocol


def _sorted_values(values: Iterable[Any]) -> list[Any]:
    """Distinct values in a deterministic order (numeric when possible)."""
    distinct = list(dict.fromkeys(values))
    try:
        return sorted(distinct)
    except TypeError:  # mixed/unorderable types: repr order is stable
        return sorted(distinct, key=repr)


@dataclass
class GridZoom:
    """Narrow the parameter grid around the highest-detection cell.

    Every round, each varying parameter's value list shrinks to a
    window of half its size (rounded up), centred on the best cell's
    value in sorted value order and clamped to the list — so a
    five-value sweep zooms 5 → 3 → 2 → 1, and a binary parameter pins
    to the winning value immediately.  Parameters narrowed to a single
    value ride along as fixed.  Stops when nothing was detected (no
    gradient to follow) or the grid cannot narrow further.

    ``params`` restricts zooming to the named parameters (others keep
    their full value lists); ``None`` zooms every varying parameter.
    """

    params: tuple[str, ...] | None = None

    def refine(
        self, observation: RoundObservation
    ) -> Mapping[str, Variant] | None:
        best = observation.best_variant()
        if best is None:
            return None
        refs = self._refs(observation)
        scenario = self._scenario_name(refs)
        key_sets = {
            name: tuple(param for param, _v in ref.params)
            for name, ref in refs.items()
        }
        if len(set(key_sets.values())) > 1:
            raise ConfigError(
                "GridZoom needs every variant to carry the same "
                f"parameter set (a grid), got {sorted(set(key_sets.values()))}"
            )
        value_lists: dict[str, list[Any]] = {}
        for ref in refs.values():
            for param, value in ref.params:
                value_lists.setdefault(param, []).append(value)
        value_lists = {
            param: _sorted_values(values)
            for param, values in value_lists.items()
        }
        if self.params is not None:
            unknown = sorted(set(self.params) - set(value_lists))
            if unknown:
                raise ConfigError(
                    f"GridZoom params {unknown} are not parameters of "
                    f"the observed variants; known: {sorted(value_lists)}"
                )
        best_point = dict(refs[best].params)
        zoom = (
            set(self.params)
            if self.params is not None
            else {p for p, vs in value_lists.items() if len(vs) > 1}
        )
        grid: dict[str, list[Any]] = {}
        fixed: dict[str, Any] = {}
        for param, values in value_lists.items():
            if len(values) == 1:
                fixed[param] = values[0]
            elif param in zoom:
                window = -(-len(values) // 2)
                at = values.index(best_point[param])
                start = min(
                    max(0, at - (window - 1) // 2), len(values) - window
                )
                grid[param] = values[start : start + window]
            else:
                grid[param] = values
        if not grid:
            return None  # every parameter already pinned: converged
        refined = grid_variants(
            best.split("[", 1)[0], scenario, grid, **fixed
        )
        # Converged = same *refs* as the round just ran.  Names are not
        # comparable across rounds: round-1 labels render the user's
        # raw grid values ("ordered=false"), refined labels render the
        # coerced ref params ("ordered=False") — comparing by name
        # would rerun an identical grid once more under new spellings.
        if set(refined.values()) == set(refs.values()):
            return None  # no further narrowing possible
        return refined

    @staticmethod
    def _refs(observation: RoundObservation) -> dict[str, ScenarioRef]:
        refs: dict[str, ScenarioRef] = {}
        for name, ref in observation.variants.items():
            if not isinstance(ref, ScenarioRef):
                raise ConfigError(
                    f"GridZoom needs ScenarioRef variants to read "
                    f"parameters from; variant {name!r} is "
                    f"{type(ref).__name__}"
                )
            refs[name] = ref
        return refs

    @staticmethod
    def _scenario_name(refs: Mapping[str, ScenarioRef]) -> str:
        names = sorted({ref.name for ref in refs.values()})
        if len(names) != 1:
            raise ConfigError(
                f"GridZoom needs a single-scenario grid, got {names}"
            )
        return names[0]


@dataclass
class SuccessiveHalving:
    """Keep the top half of variants (by detection rate) each round.

    Ranking is by descending rate with ties broken by row order, and
    survivors keep their original relative order, so the emitted
    mapping — and therefore every later round — is deterministic.
    Stops when nothing was detected or ``min_variants`` is reached.
    """

    min_variants: int = 1

    def __post_init__(self) -> None:
        if self.min_variants < 1:
            raise ConfigError(
                f"min_variants must be >= 1, got {self.min_variants}"
            )

    def refine(
        self, observation: RoundObservation
    ) -> Mapping[str, Variant] | None:
        if observation.total_detections == 0:
            return None
        rows = observation.rows
        count = len(rows)
        keep = max(self.min_variants, -(-count // 2))
        if keep >= count:
            return None  # nothing left to drop
        ranked = sorted(
            range(count), key=lambda i: (-rows[i].rate, i)
        )
        survivors = {rows[i].variant for i in ranked[:keep]}
        return {
            name: ref
            for name, ref in observation.variants.items()
            if name in survivors
        }


@dataclass
class ReplayFocus:
    """Refine toward *replaying* what detected: each sampled detecting
    run's recorded interleaving is parsed back into its source
    patterns and re-merged under ``ops``, and the results ship as
    :class:`~repro.ptest.replay.ReplayRef` cells — merged-pattern
    replay batches on the same deduped-table wire format as registry
    scenarios, swept across the campaign's seed set.

    ``max_sources`` bounds how many detections seed the next round
    (taken in row order, then capture order); ``seed`` roots the
    deterministic per-merge RNG derivation.
    """

    ops: tuple[str, ...] = ("cyclic", "round_robin")
    max_sources: int = 2
    seed: int = 0
    chunk: int = 2

    def __post_init__(self) -> None:
        if not self.ops:
            raise ConfigError("ReplayFocus needs at least one merge op")
        if len(set(self.ops)) != len(self.ops):
            # A repeated op would mint the same variant name twice and
            # silently overwrite half the intended replay cells.
            raise ConfigError(f"duplicate merge ops in {self.ops}")
        if self.max_sources < 1:
            raise ConfigError(
                f"max_sources must be >= 1, got {self.max_sources}"
            )

    def refine(
        self, observation: RoundObservation
    ) -> Mapping[str, Variant] | None:
        samples = observation.detections[: self.max_sources]
        if not samples:
            return None
        refined: dict[str, Variant] = {}
        for sample_index, sample in enumerate(samples):
            base = self._base_ref(observation, sample.variant)
            sources = parse_merged_description(
                sample.merged_description
            ).sources
            for op_index, op in enumerate(self.ops):
                # Seeds derive from (policy seed, round, sample, op
                # position) only — no object identities, no str hashes —
                # so re-merges are identical on every execution path.
                merger = PatternMerger(
                    op=op,
                    seed=(
                        self.seed
                        + 1_009 * (observation.index + 1)
                        + 10_007 * sample_index
                        + 100_003 * op_index
                    ),
                    chunk=self.chunk,
                )
                merged = merger.merge_symbols(
                    [pattern.symbols for pattern in sources]
                )
                name = f"replay[{sample.variant}@s{sample.seed}/{op}]"
                refined[name] = replay_ref(base, merged)
        return refined

    @staticmethod
    def _base_ref(
        observation: RoundObservation, variant: str
    ) -> ScenarioRef:
        ref = observation.variants[variant]
        # Replaying a replay keeps its base.
        return ref.scenario if isinstance(ref, ReplayRef) else ref


@dataclass
class Repeat:
    """Re-emit the same variants every round.

    The identity policy: useful as a stability baseline (rows must not
    drift round over round) and as the benchmark workload measuring
    pure round dispatch cost on a warm pool.
    """

    def refine(
        self, observation: RoundObservation
    ) -> Mapping[str, Variant] | None:
        return dict(observation.variants)


#: CLI/script-friendly registry of the built-in policy constructors.
POLICIES: dict[str, type] = {
    "grid_zoom": GridZoom,
    "halving": SuccessiveHalving,
    "replay": ReplayFocus,
    "repeat": Repeat,
}


@dataclass(frozen=True)
class PipelineStage:
    """One stage of a :class:`PolicyPipeline`.

    ``policy`` steers the rounds this stage owns; ``rounds`` caps how
    many it owns.  Every stage but the last needs a cap, or later
    stages never run; the final stage may run unbounded under the
    campaign's own ``rounds`` budget.  ``name`` labels the stage's
    rounds (defaults to the policy class name).
    """

    policy: RefinePolicy
    rounds: int | None = None
    name: str | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.policy, RefinePolicy):
            raise ConfigError(
                f"PipelineStage.policy needs a refine(observation) "
                f"method; got {type(self.policy).__name__}"
            )
        if self.rounds is not None and self.rounds < 1:
            raise ConfigError(
                f"PipelineStage rounds must be >= 1, got {self.rounds}"
            )

    @property
    def label(self) -> str:
        """Log/CLI display name of this stage."""
        return self.name or type(self.policy).__name__

    def describe(self) -> str:
        bound = f":{self.rounds}" if self.rounds is not None else ""
        return f"{self.label}{bound}"


@dataclass(frozen=True)
class PolicyPipeline:
    """A composed schedule: :class:`PipelineStage` policies in order.

    A value with no run state; :meth:`AdaptiveCampaign.run` steps
    through it.  A stage owns rounds until its round cap, or until its
    policy returns no variants.  Later stages then refine that same
    observation, and the first to return variants owns the next round,
    so a zoom stage's final detections seed a replay stage directly and
    a stage with nothing to do is skipped.  When no stage is left the
    campaign stops.  Zoom for three rounds, then replay for two::

        pipeline = PolicyPipeline(
            (
                PipelineStage(GridZoom(), rounds=3),
                PipelineStage(ReplayFocus(ops=("cyclic",)), rounds=2),
            )
        )
        campaign = AdaptiveCampaign(
            seeds=(0, 1, 2), rounds=pipeline.total_rounds(), policy=pipeline
        )

    :func:`parse_pipeline` builds one from the CLI's compact
    ``"grid_zoom:3,replay:2"`` spelling (``repro adapt --pipeline``).
    """

    stages: tuple[PipelineStage, ...]

    def __post_init__(self) -> None:
        stages = tuple(self.stages)
        object.__setattr__(self, "stages", stages)
        if not stages:
            raise ConfigError("PolicyPipeline needs at least one stage")
        for position, stage in enumerate(stages):
            if not isinstance(stage, PipelineStage):
                raise ConfigError(
                    f"PolicyPipeline stages must be PipelineStage values, "
                    f"got {type(stage).__name__} at position {position}"
                )
            if position < len(stages) - 1 and stage.rounds is None:
                raise ConfigError(
                    f"stage {stage.describe()!r} (position {position}) has "
                    "no rounds cap; every stage before the last needs one, "
                    "or later stages never run"
                )

    def total_rounds(self) -> int | None:
        """Executed rounds a full schedule needs: the sum of the stage
        round caps, or ``None`` when any stage is unbounded.  Feed it
        to ``AdaptiveCampaign(rounds=...)`` so the campaign budget and
        the schedule agree."""
        total = 0
        for stage in self.stages:
            if stage.rounds is None:
                return None
            total += stage.rounds
        return total

    def describe(self) -> str:
        return " -> ".join(stage.describe() for stage in self.stages)


def parse_pipeline(
    spec: str,
    policy_kwargs: Mapping[str, Mapping[str, Any]] | None = None,
) -> PolicyPipeline:
    """Build a pipeline from the CLI spelling ``"name:rounds,..."``.

    Each comma-separated entry is ``policy:rounds`` with ``policy`` a
    :data:`POLICIES` key; ``:rounds`` may be omitted on the final entry
    only (that stage then runs unbounded under the campaign's
    ``rounds`` budget).  ``policy_kwargs`` maps policy names to
    constructor keyword arguments (a spec routes ``max_sources`` to
    ``replay`` stages this way).  Unknown policy names raise
    :class:`~repro.errors.ConfigError` listing the registry, same as
    ``repro adapt --policy``.
    """
    entries = [entry.strip() for entry in spec.split(",") if entry.strip()]
    if not entries:
        raise ConfigError(
            f"empty pipeline spec {spec!r}; expected "
            '"policy:rounds,..." e.g. "grid_zoom:3,replay:2"'
        )
    stages = []
    for position, entry in enumerate(entries):
        name, sep, rounds_text = entry.partition(":")
        name = name.strip()
        factory = POLICIES.get(name)
        if factory is None:
            raise ConfigError(
                f"unknown pipeline policy {name!r}; "
                f"known policies: {', '.join(sorted(POLICIES))}"
            )
        rounds: int | None = None
        if sep:
            try:
                rounds = int(rounds_text)
            except ValueError:
                raise ConfigError(
                    f"pipeline stage {entry!r}: rounds must be an "
                    f"integer, got {rounds_text!r}"
                ) from None
            if rounds < 1:
                raise ConfigError(
                    f"pipeline stage {entry!r}: rounds must be >= 1"
                )
        elif position != len(entries) - 1:
            raise ConfigError(
                f"pipeline stage {entry!r} has no round count; only the "
                "final stage may omit :rounds"
            )
        kwargs = dict((policy_kwargs or {}).get(name, {}))
        stages.append(
            PipelineStage(policy=factory(**kwargs), rounds=rounds, name=name)
        )
    return PolicyPipeline(stages)


@dataclass
class AdaptiveResult:
    """Everything an adaptive run produced, round by round."""

    rounds: tuple[RoundObservation, ...]
    #: True when the policy ended the campaign before ``rounds`` ran.
    stopped_early: bool
    #: Rounds replayed from a checkpoint instead of executed (0 on a
    #: straight-through run) — telemetry, never part of the results.
    resumed_rounds: int = 0

    @property
    def final_rows(self) -> tuple[CampaignRow, ...]:
        return self.rounds[-1].rows

    @property
    def pool_ids(self) -> tuple[int | None, ...]:
        return tuple(r.pool_id for r in self.rounds)

    @property
    def pool_stable(self) -> bool:
        """Whether every round dispatched through one pool generation
        (all-``None`` counts: serial rounds have no pool to churn)."""
        return len(set(self.pool_ids)) == 1

    def variant_history(self) -> list[tuple[str, ...]]:
        return [tuple(r.variants) for r in self.rounds]

    @property
    def quarantined_cells(self) -> tuple[QuarantinedCell, ...]:
        """Every cell quarantined across the run, round order."""
        cells: list[QuarantinedCell] = []
        for observation in self.rounds:
            if observation.quarantine is not None:
                cells.extend(observation.quarantine.cells)
        return tuple(cells)

    @property
    def total_quarantined(self) -> int:
        return len(self.quarantined_cells)

    def describe(self) -> str:
        lines = []
        for observation in self.rounds:
            lines.append(
                f"round {observation.index + 1}: "
                f"{len(observation.rows)} variant(s), "
                f"{observation.total_detections} detection(s)"
            )
            for row in observation.rows:
                lines.append(
                    f"  {row.variant}: {row.detections}/{row.runs}"
                    + (f" {', '.join(row.kinds)}" if row.kinds else "")
                )
            if (
                observation.quarantine is not None
                and observation.quarantine.cells
            ):
                lines.append(f"  {observation.quarantine.describe()}")
        if self.resumed_rounds:
            lines.append(
                f"resumed: {self.resumed_rounds} round(s) replayed "
                "from checkpoint"
            )
        if self.stopped_early:
            lines.append("stopped early: policy returned no variants")
        return "\n".join(lines)


@dataclass
class AdaptiveCampaign:
    """Runs a campaign in policy-refined rounds on one warm pool.

    Seed the first round with :meth:`add_scenario` / :meth:`add_grid`
    (or :meth:`add_variant` with a
    :class:`~repro.workloads.registry.ScenarioRef` or
    :class:`~repro.ptest.replay.ReplayRef`), pick a
    :class:`RefinePolicy` or a :class:`PolicyPipeline`, and :meth:`run`.
    A bare policy is one unlabelled stage with no round cap, so its
    rounds keep ``stage=None``.  ``seeds`` is normalised to
    a tuple at construction, so a generator feeds every round.  Every
    round runs on ``executor``, a
    :class:`~repro.ptest.executor.CellExecutor` holding the fabric
    settings (``workers``, ``batch_size``, ``pool``, ``cell_timeout``,
    ``quarantine``, ``chaos``); the default runs serially.  :meth:`run`
    works on its own copy of it, so the caller's executor is never
    written, and at ``workers > 1`` pins that copy to one pool
    **once**, before round 1: every round dispatches through that same
    :class:`~repro.ptest.pool.WorkerPool`, so rounds 2+ reuse warm
    worker processes (``AdaptiveResult.pool_stable`` certifies it).

    ``rounds`` caps the round count; the policy may stop earlier by
    returning no variants.  ``policy`` is needed only when ``rounds >
    1``: the final round is never refined, so the default ``rounds=1``
    with no policy is one plain sweep (how a campaign spec runs).
    Results are identical at any ``(workers, batch_size, warm/cold)`` —
    see the module docstring's contract.

    **Crash safety.**  ``checkpoint=`` names a file that receives the
    campaign's round-by-round progress (atomically, after every
    executed round).  With ``resume=True`` a matching checkpoint's
    completed rounds are *replayed* from disk — each stored
    observation steps through the schedule exactly as the original
    round did, which rebuilds the stage position and the next round's
    variants without executing a single cell — and execution continues
    at the first uncovered round, bit-identical to a never-interrupted
    run.  The round budget is not part of the checkpoint identity, so
    raising ``rounds`` and resuming extends a finished study.
    """

    seeds: Iterable[int] = (0, 1, 2, 3, 4)
    rounds: int = 1
    policy: RefinePolicy | PolicyPipeline | None = None
    variants: dict[str, Variant] = field(default_factory=dict)
    #: The fabric every round's cells run on.  With ``quarantine=True``
    #: each round's :class:`~repro.ptest.executor.QuarantineReport`
    #: lands on its :class:`RoundObservation`.
    executor: CellExecutor = field(default_factory=CellExecutor)
    #: Detecting cells sampled per variant per round (what policies see).
    capture_per_variant: int = 4
    #: File persisting round-by-round progress (``None`` = no
    #: checkpointing).  A fresh run overwrites any existing file.
    checkpoint: "str | Path | None" = None
    #: Replay completed rounds from ``checkpoint`` before executing.
    #: A missing checkpoint file starts fresh; a mismatched one raises
    #: :class:`~repro.errors.CheckpointError`.
    resume: bool = False
    #: Incremental round delivery: called with each
    #: :class:`RoundObservation` the moment it lands — executed *and*
    #: checkpoint-replayed rounds alike, before the policy refines it —
    #: so streaming consumers (``repro serve``) ship rounds as they
    #: complete instead of waiting for the whole schedule.  Purely
    #: observational; results cannot change.
    on_round: "Callable[[RoundObservation], None] | None" = None

    def __post_init__(self) -> None:
        self.seeds = tuple(self.seeds)

    def add_variant(self, name: str, ref: Variant) -> None:
        """Register a round-1 variant under ``name``."""
        if name in self.variants:
            raise ValueError(f"variant {name!r} already registered")
        self.variants[name] = ref

    def add_scenario(self, name: str, scenario: str, **params: Any) -> None:
        """Register registry scenario ``scenario`` (with fixed
        ``params``) as round-1 variant ``name``."""
        self.add_variant(name, scenario_ref(scenario, **params))

    def add_grid(
        self,
        name: str,
        scenario: str,
        param_grid: Mapping[str, Sequence[Any]],
        **fixed: Any,
    ) -> list[str]:
        """Seed round 1 with a parameter grid (see
        :func:`~repro.ptest.campaign.grid_variants`); returns the
        variant names in registration order."""
        expanded = grid_variants(name, scenario, param_grid, **fixed)
        for variant, ref in expanded.items():
            self.add_variant(variant, ref)
        return list(expanded)

    def run(self, sink: ResultSink | None = None) -> AdaptiveResult:
        """Execute up to ``rounds`` policy-refined campaign rounds.

        ``sink`` (if given) additionally receives every round's
        ``(cell, result)`` stream, in submission order.
        """
        if not self.variants:
            raise ConfigError("adaptive campaign has no variants")
        if self.rounds < 1:
            raise ConfigError(f"rounds must be >= 1, got {self.rounds}")
        policy = self.policy
        if policy is None and self.rounds > 1:
            raise ConfigError(
                f"adaptive campaign needs a refine policy for rounds > 1 "
                f"(built-ins: {sorted(POLICIES)})"
            )
        # A private copy: telemetry of this run never lands on the
        # caller's executor, nor on another campaign sharing it.
        executor = replace(self.executor)
        if executor.pool is None and (executor.workers or 1) > 1:
            # One shared pool for every round — pinned here, not per
            # round, so refinement never leaves the warm workers.
            executor.pool = get_pool(executor.workers)
        if self.resume and self.checkpoint is None:
            raise ConfigError("resume=True needs a checkpoint path")
        store: CampaignCheckpoint | None = None
        fingerprint = ""
        if self.checkpoint is not None:
            store = CampaignCheckpoint(self.checkpoint)
            fingerprint = campaign_fingerprint(
                self.seeds, self.variants, policy, self.capture_per_variant
            )
        # Completed rounds replay from disk: every stored observation
        # steps through the schedule exactly as the live round did, so
        # the stage position and the next round's variants are rebuilt
        # without executing a cell.  Policies are pure functions of
        # their observations (the determinism contract), which is why
        # no schedule state needs persisting.
        stored: list[RoundObservation] = []
        if self.resume and store is not None and store.exists():
            stored = store.load(fingerprint)["observations"]
        # The schedule as (policy, round cap, label) stages; a bare
        # policy is one unlabelled stage with no cap.
        if isinstance(policy, PolicyPipeline):
            stages = [(s.policy, s.rounds, s.label) for s in policy.stages]
        else:
            stages = [(policy, None, None)]
        stage = owned = 0  # the stage owning this round; rounds it ran
        current: dict[str, Variant] = dict(self.variants)
        observations: list[RoundObservation] = []
        stopped_early = False
        resumed_rounds = 0
        for index in range(self.rounds):
            stage_policy, cap, label = stages[stage]
            executed = index >= len(stored)
            if executed:
                observation = self._run_round(
                    index, current, executor, sink, label
                )
            else:
                observation = replace(stored[index], stage=label)
                resumed_rounds += 1
            observations.append(observation)
            if self.on_round is not None:
                self.on_round(observation)
            final = index + 1 == self.rounds
            if executed and store is not None:
                # Atomic per-round persistence: a crash after this
                # point replays the round from disk instead of
                # re-executing it.
                store.save(
                    fingerprint=fingerprint,
                    observations=observations,
                    stopped_early=False,
                    finished=final,
                )
            if final:
                break
            owned += 1
            refined = None
            if cap is None or owned < cap:
                refined = stage_policy.refine(observation)
            # The stage ended at its cap or converged: later stages
            # refine the same observation, the first with variants
            # takes over, and none left stops the campaign.
            while not refined and stage + 1 < len(stages):
                stage, owned = stage + 1, 0
                refined = stages[stage][0].refine(observation)
            if not refined:
                stopped_early = True
                if executed and store is not None:
                    store.save(
                        fingerprint=fingerprint,
                        observations=observations,
                        stopped_early=True,
                        finished=True,
                    )
                break
            current = dict(refined)
        return AdaptiveResult(
            rounds=tuple(observations),
            stopped_early=stopped_early,
            resumed_rounds=resumed_rounds,
        )

    def _run_round(
        self,
        index: int,
        variants: dict[str, Variant],
        executor: CellExecutor,
        sink: ResultSink | None,
        stage: str | None,
    ) -> RoundObservation:
        """Execute one round's cells and observe them."""
        accumulators = {name: _RowAccumulator(variant=name) for name in variants}
        capture = DetectionCapture(limit_per_variant=self.capture_per_variant)
        executor.run_cells(
            variants,
            [WorkCell(name, seed) for name in variants for seed in self.seeds],
            sink=_RoundSink(accumulators, capture, sink),
        )
        return RoundObservation(
            index=index,
            rows=tuple(accumulator.row() for accumulator in accumulators.values()),
            detections=tuple(
                sample for name in variants for sample in capture.for_variant(name)
            ),
            quarantine=executor.last_quarantine,
            stage=stage,
            variants=dict(variants),
            pool_id=executor.last_pool_id,
        )
