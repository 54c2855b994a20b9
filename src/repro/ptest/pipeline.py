"""Composable refinement pipelines: staged ``RefinePolicy`` schedules.

A single :class:`~repro.ptest.adaptive.RefinePolicy` steers every round
of an :class:`~repro.ptest.adaptive.AdaptiveCampaign` the same way.
Real campaigns want *schedules*: explore a parameter grid first, then
switch strategy once the interesting region is found.  This module
composes existing policies into such schedules without touching the
engine — a :class:`PolicyPipeline` is itself a ``RefinePolicy``, so it
drops into ``AdaptiveCampaign(policy=...)`` (and therefore the warm
worker pool, the determinism contract and the telemetry) unchanged.

A pipeline is a sequence of :class:`PipelineStage` values.  Each stage
wraps one policy and ends when *any* of its limits trips:

* ``rounds=n`` — the stage has consumed ``n`` executed rounds;
* ``until=...`` — a :class:`StageCondition` over the stage's observed
  :class:`~repro.ptest.adaptive.RoundObservation` history says stop
  (:class:`Until` adapts a plain predicate over the latest observation;
  :class:`Plateau` stops once detections stop improving).  The history
  holds the same round records the campaign returns and
  ``execute_spec`` ships, so a condition reads what a caller reads;
* the stage's own policy returns no variants (it converged).

When a stage ends, the *next* stage's policy refines the same
observation to produce the following round — so a zoom stage's final
detections seed the replay stage directly.  A stage whose policy finds
nothing to do (say, ``ReplayFocus`` with zero detections) is skipped;
when no stage remains the pipeline returns ``None`` and the campaign
stops, exactly like any other policy.

Example — zoom for three rounds, then replay the survivors' detecting
interleavings once detections plateau::

    from repro.ptest.adaptive import AdaptiveCampaign, GridZoom, ReplayFocus
    from repro.ptest.executor import CellExecutor
    from repro.ptest.pipeline import PipelineStage, Plateau, PolicyPipeline

    pipeline = PolicyPipeline(
        (
            PipelineStage(GridZoom(), rounds=3, until=Plateau(rounds=2)),
            PipelineStage(ReplayFocus(ops=("cyclic",)), rounds=2),
        )
    )
    campaign = AdaptiveCampaign(
        seeds=(0, 1, 2),
        rounds=pipeline.total_rounds(),
        policy=pipeline,
        executor=CellExecutor(workers=4),
    )
    campaign.add_grid(
        "phil", "philosophers", {"ordered": [False, True], "chunk": [1, 2]}
    )
    result = campaign.run()  # rounds 1-3 zoom, rounds 4-5 replay

**Determinism.**  A pipeline's only state is schedule progress (which
stage is active, what it has observed); given the same observation
sequence it emits the same variants, so the adaptive campaign's
bit-identical-rounds contract extends to composed schedules at any
``(workers, batch_size, warm/cold)`` configuration.
The progress state resets whenever a round-0 observation arrives, so
one pipeline instance can drive consecutive runs; stage conditions are
pure functions of the history handed to them and hold no state at all.
The same two properties make checkpoint *resume* work without
persisting any pipeline state: ``AdaptiveCampaign(checkpoint=...,
resume=True)`` replays the stored observations through :meth:`refine`
in order, and the schedule position, per-stage history and
``stage_log`` come out exactly as the original rounds left them.

:func:`parse_pipeline` builds a pipeline from the CLI's compact
``"grid_zoom:3,replay:2"`` spelling (``repro adapt --pipeline ...``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Mapping,
    Protocol,
    Sequence,
    runtime_checkable,
)

from repro.errors import ConfigError
from repro.ptest.adaptive import POLICIES, RefinePolicy, RoundObservation
from repro.ptest.pool import Variant


@runtime_checkable
class StageCondition(Protocol):
    """Decides whether a pipeline stage is finished.

    ``history`` is the sequence of observations the *current stage* has
    consumed so far, oldest first (never empty when called).
    Implementations must be pure functions of that history — that is
    what keeps composed schedules inside the campaign determinism
    contract.
    """

    def met(self, history: Sequence[RoundObservation]) -> bool:
        """Whether the stage should hand over after ``history[-1]``."""
        ...  # pragma: no cover - protocol


@dataclass(frozen=True)
class Until:
    """Stage stop condition from a plain observation predicate.

    ``predicate`` sees the stage's latest
    :class:`~repro.ptest.adaptive.RoundObservation`; the stage ends on
    the first round for which it returns true::

        # leave the zoom stage as soon as a round finds any deadlock
        PipelineStage(
            GridZoom(),
            until=Until(lambda obs: "deadlock" in obs.kind_counts()),
        )
    """

    predicate: Callable[[RoundObservation], bool]

    def __post_init__(self) -> None:
        if not callable(self.predicate):
            raise ConfigError(
                f"Until needs a callable predicate over RoundObservation, "
                f"got {type(self.predicate).__name__}"
            )

    def met(self, history: Sequence[RoundObservation]) -> bool:
        return bool(self.predicate(history[-1]))


@dataclass(frozen=True)
class Plateau:
    """Stage stop condition: detections stopped improving.

    Met once the stage's last ``rounds`` observations all failed to
    beat the best total detection count seen earlier in the stage — the
    classic "switch strategy once this one plateaus" trigger.  Needs at
    least ``rounds + 1`` observed rounds before it can trip, so a stage
    always gets a baseline round first.
    """

    rounds: int = 2

    def __post_init__(self) -> None:
        if self.rounds < 1:
            raise ConfigError(
                f"Plateau rounds must be >= 1, got {self.rounds}"
            )

    def met(self, history: Sequence[RoundObservation]) -> bool:
        totals = [observation.total_detections for observation in history]
        if len(totals) <= self.rounds:
            return False
        return max(totals[-self.rounds :]) <= max(totals[: -self.rounds])


@dataclass(frozen=True)
class PipelineStage:
    """One stage of a :class:`PolicyPipeline`.

    ``policy`` steers the rounds this stage owns.  ``rounds`` caps how
    many executed rounds the stage consumes; ``until`` is a
    :class:`StageCondition` ending it early.  At least one bound is
    required for every stage but the last (an unbounded non-final stage
    would starve its successors); the final stage may run unbounded
    under the campaign's own ``rounds`` budget.  ``name`` labels the
    stage in logs (defaults to the policy class name).
    """

    policy: RefinePolicy
    rounds: int | None = None
    until: StageCondition | None = None
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
        if self.until is not None and not isinstance(
            self.until, StageCondition
        ):
            raise ConfigError(
                f"PipelineStage.until needs a met(history) method; "
                f"got {type(self.until).__name__}"
            )

    @property
    def label(self) -> str:
        """Log/CLI display name of this stage."""
        return self.name or type(self.policy).__name__

    def describe(self) -> str:
        bound = f":{self.rounds}" if self.rounds is not None else ""
        return f"{self.label}{bound}"


class PolicyPipeline:
    """Runs :class:`PipelineStage` policies as one composed schedule.

    Satisfies the :class:`~repro.ptest.adaptive.RefinePolicy` protocol,
    so it drives an :class:`~repro.ptest.adaptive.AdaptiveCampaign`
    exactly like a single policy does — rounds, warm-pool reuse and
    telemetry all unchanged.  See the module docstring
    for stage-transition semantics and a worked example.

    ``stage_log`` records, per consumed observation, which stage's
    round it was — ``[(round_index, stage_label), ...]`` — so a run can
    be audited stage by stage afterwards.
    """

    def __init__(self, stages: Sequence[PipelineStage]):
        stages = tuple(stages)
        if not stages:
            raise ConfigError("PolicyPipeline needs at least one stage")
        for position, stage in enumerate(stages):
            if not isinstance(stage, PipelineStage):
                raise ConfigError(
                    f"PolicyPipeline stages must be PipelineStage values, "
                    f"got {type(stage).__name__} at position {position}"
                )
            final = position == len(stages) - 1
            if not final and stage.rounds is None and stage.until is None:
                raise ConfigError(
                    f"stage {stage.describe()!r} (position {position}) has "
                    "no rounds cap and no until condition; every stage "
                    "before the last needs one, or later stages never run"
                )
        self.stages = stages
        self._reset()

    def _reset(self) -> None:
        self._stage_index = 0
        #: Observations consumed by the current stage, oldest first.
        self._history: list[RoundObservation] = []
        self._next_round = 0
        self.stage_log: list[tuple[int, str]] = []

    @property
    def current_stage(self) -> PipelineStage | None:
        """The stage that owns the next observation (``None`` when the
        schedule is exhausted)."""
        if self._stage_index >= len(self.stages):
            return None
        return self.stages[self._stage_index]

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

    def refine(
        self, observation: RoundObservation
    ) -> Mapping[str, Variant] | None:
        """Consume one round's observation; emit the next round's
        variants (``None`` ends the campaign: schedule exhausted)."""
        if observation.index == 0 or observation.index != self._next_round:
            # A round-0 observation means a fresh campaign run started;
            # an out-of-sequence index means the caller is driving the
            # policy by hand.  Either way the schedule starts over.
            self._reset()
        self._next_round = observation.index + 1
        if self._stage_index >= len(self.stages):
            return None  # exhausted on an earlier call; stay stopped
        stage = self.stages[self._stage_index]
        self._history.append(observation)
        self.stage_log.append((observation.index, stage.label))
        done = (
            stage.rounds is not None
            and len(self._history) >= stage.rounds
        )
        if not done and stage.until is not None:
            done = stage.until.met(tuple(self._history))
        if not done:
            refined = stage.policy.refine(observation)
            if refined:
                return refined
            done = True  # the stage's own policy converged: hand over
        # The stage is finished.  Later stages refine the same
        # observation in order; the first to produce variants takes
        # over (a stage with nothing to do — no detections to replay,
        # say — is skipped), and an empty remainder stops the campaign.
        while True:
            self._stage_index += 1
            self._history = []
            if self._stage_index >= len(self.stages):
                return None
            refined = self.stages[self._stage_index].policy.refine(
                observation
            )
            if refined:
                return refined


def parse_pipeline(
    spec: str,
    policy_kwargs: Mapping[str, Mapping[str, Any]] | None = None,
) -> PolicyPipeline:
    """Build a pipeline from the CLI spelling ``"name:rounds,..."``.

    Each comma-separated entry is ``policy:rounds`` with ``policy`` a
    :data:`~repro.ptest.adaptive.POLICIES` key; ``:rounds`` may be
    omitted on the final entry only (that stage then runs unbounded
    under the campaign's ``rounds`` budget).  ``policy_kwargs`` maps
    policy names to constructor keyword arguments (the CLI routes
    ``--max-sources`` to ``replay`` stages this way).  Unknown policy
    names raise :class:`~repro.errors.ConfigError` listing the
    registry, same as ``repro adapt --policy``.
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
