"""`CampaignSpec`: one serializable description of a campaign.

PRs 2-9 grew the execution knobs — ``workers``, ``batch_size``,
``cell_timeout``, ``quarantine``, ``checkpoint``/``resume``,
policy/pipeline schedules — and threaded
them as near-duplicate kwargs through :class:`~repro.ptest.campaign.
Campaign`, :class:`~repro.ptest.adaptive.AdaptiveCampaign` and three
CLI subcommands.  This module collapses that plumbing into one frozen,
validated value object with an exact ``to_json``/``from_json``
round-trip, plus the single :func:`execute_spec` entry point that the
CLI (``repro run|campaign|adapt``), the server (``repro serve``) and
:class:`repro.client.Client` all dispatch through.

Validation lives in exactly one place — :meth:`CampaignSpec.validate`,
run from ``__post_init__`` — so contradictory knob combinations
(``resume`` without ``checkpoint``, a checkpoint on a plain campaign,
``policy`` and ``pipeline`` together) are rejected with actionable
messages before any pool is touched, identically whether the spec
arrived from CLI flags, a ``--spec file.json``, or a socket.

Spec files may still carry the removed ``batch_sampling`` and
``merge_batch`` knobs: they must be booleans or null, and are ignored
(stored as ``None``), so older files load and run unchanged.

**Determinism.**  :class:`RoundResult` values carry only frozen
dataclasses of JSON-safe scalars (Python floats survive a JSON
round-trip exactly), so a spec executed remotely and rebuilt from the
wire compares equal — bit-identical — to the same spec executed
directly, at any ``(concurrent clients, workers, batch_size)``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, replace
from typing import Any, Callable, Iterable, Mapping

from repro.errors import ConfigError
from repro.ptest.campaign import (
    Campaign,
    CampaignRow,
    DetectionCapture,
    DetectionSample,
    TeeSink,
)
from repro.ptest.executor import (
    QuarantinedCell,
    QuarantineReport,
    ResultSink,
)
from repro.ptest.harness import TestRunResult

MODES = ("run", "campaign", "adapt")

#: Knobs that only mean something on an adaptive (multi-round) run —
#: :meth:`CampaignSpec.validate` rejects them on other modes so a
#: checkpoint on a plain campaign fails loudly instead of silently
#: never persisting anything.
_ADAPT_ONLY = (
    "policy",
    "pipeline",
    "rounds",
    "checkpoint",
    "resume",
    "max_sources",
)


def _check_type(name: str, value: Any, kinds: tuple[type, ...], hint: str) -> None:
    # bool is an int subclass; an int field must still refuse True.
    if isinstance(value, bool) and bool not in kinds:
        raise ConfigError(f"{name} must be {hint}, got {value!r}")
    if not isinstance(value, kinds):
        raise ConfigError(f"{name} must be {hint}, got {value!r}")


@dataclass(frozen=True)
class CampaignSpec:
    """A complete, serializable campaign description.

    ``mode`` selects the engine: ``"run"`` executes one cell and keeps
    its full :class:`~repro.ptest.harness.TestRunResult` (the CLI's
    single-run form), ``"campaign"`` sweeps ``seeds`` × the variant set
    once, ``"adapt"`` runs policy-refined rounds.  ``params`` are fixed
    scenario parameters (stored sorted — order never matters);
    ``grid`` maps parameters to value sweeps (order preserved — it
    fixes the cartesian-product variant naming).  Everything else
    mirrors the knob of the same name on
    :class:`~repro.ptest.campaign.Campaign` /
    :class:`~repro.ptest.adaptive.AdaptiveCampaign`.

    Instances validate on construction and are hashable; build
    variations with :func:`dataclasses.replace`.
    """

    scenario: str
    mode: str = "campaign"
    params: tuple[tuple[str, Any], ...] = ()
    grid: tuple[tuple[str, tuple[Any, ...]], ...] = ()
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    workers: int = 1
    batch_size: int | None = None
    # Ignored, always None; perfbench/traced.py reads them (drop at re-cut).
    batch_sampling: bool | None = None
    merge_batch: bool | None = None
    cell_timeout: float | None = None
    quarantine: bool = False
    capture_per_variant: int = 4
    # -- adapt-only schedule knobs ----------------------------------
    policy: str | None = None
    pipeline: str | None = None
    rounds: int | None = None
    max_sources: int | None = None
    prewarm: bool = True
    checkpoint: str | None = None
    resume: bool = False

    def __post_init__(self) -> None:
        # Canonicalise the containers so equal specs compare equal no
        # matter how the caller spelled them (dict, list of pairs, ...).
        object.__setattr__(
            self,
            "params",
            tuple(sorted((str(k), v) for k, v in dict(self.params).items())),
        )
        object.__setattr__(
            self,
            "grid",
            tuple(
                (str(k), tuple(vs)) for k, vs in dict(self.grid).items()
            ),
        )
        object.__setattr__(self, "seeds", tuple(self.seeds))
        for name in ("batch_sampling", "merge_batch"):
            value = getattr(self, name)
            if value is not None:
                _check_type(name, value, (bool,), "a boolean or null")
            object.__setattr__(self, name, None)
        self.validate()

    # -- validation --------------------------------------------------

    def validate(self) -> None:
        """Reject contradictory or out-of-range knob combinations.

        The single choke point for spec sanity: every entry path (CLI
        flags, ``--spec`` files, server requests, embedders) funnels
        through construction and therefore through here, with messages
        that name the fix rather than the symptom.
        """
        _check_type("scenario", self.scenario, (str,), "a scenario name")
        if not self.scenario:
            raise ConfigError("scenario must be a non-empty scenario name")
        if self.mode not in MODES:
            raise ConfigError(
                f"mode must be one of {', '.join(MODES)}, got {self.mode!r}"
            )
        if not self.seeds:
            raise ConfigError("seeds must name at least one seed")
        for seed in self.seeds:
            _check_type("seeds", seed, (int,), "a sequence of integers")
        _check_type("workers", self.workers, (int,), "an integer >= 1")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        if self.batch_size is not None:
            _check_type(
                "batch_size", self.batch_size, (int,), "an integer >= 1"
            )
            if self.batch_size < 1:
                raise ConfigError(
                    f"batch_size must be >= 1, got {self.batch_size}"
                )
        if self.cell_timeout is not None:
            _check_type(
                "cell_timeout",
                self.cell_timeout,
                (int, float),
                "a positive number of seconds",
            )
            if self.cell_timeout <= 0:
                raise ConfigError(
                    f"cell_timeout must be > 0 seconds, got {self.cell_timeout}"
                )
        _check_type("quarantine", self.quarantine, (bool,), "a boolean")
        _check_type("resume", self.resume, (bool,), "a boolean")
        _check_type("prewarm", self.prewarm, (bool,), "a boolean")
        _check_type(
            "capture_per_variant",
            self.capture_per_variant,
            (int,),
            "an integer >= 0",
        )
        if self.capture_per_variant < 0:
            raise ConfigError(
                f"capture_per_variant must be >= 0, got "
                f"{self.capture_per_variant}"
            )
        overlap = sorted(
            set(dict(self.grid)) & {key for key, _v in self.params}
        )
        if overlap:
            raise ConfigError(
                f"parameters {overlap} appear both fixed and in the grid"
            )
        for key, values in self.grid:
            if not values:
                raise ConfigError(
                    f"grid parameter {key!r} has no values to sweep"
                )
        if self.mode == "run":
            if len(self.seeds) != 1:
                raise ConfigError(
                    f"mode 'run' executes one cell, got {len(self.seeds)} "
                    "seeds; use mode 'campaign' for a seed sweep"
                )
            if self.workers != 1:
                raise ConfigError(
                    "mode 'run' executes one cell in-process; "
                    "workers only apply to campaign/adapt sweeps"
                )
            if self.grid:
                raise ConfigError(
                    "mode 'run' takes fixed params only; use mode "
                    "'campaign' to sweep a grid"
                )
        if self.mode != "adapt":
            given = [
                name
                for name in _ADAPT_ONLY
                if getattr(self, name) not in (None, False)
            ]
            if given:
                raise ConfigError(
                    f"{', '.join(given)} only apply to mode 'adapt' "
                    f"(multi-round refinement), not mode {self.mode!r}; "
                    "a checkpoint or schedule on a single-pass campaign "
                    "would never take effect"
                )
        else:
            if self.policy is not None and self.pipeline is not None:
                raise ConfigError(
                    "policy and pipeline are mutually exclusive; a "
                    "pipeline is itself the policy schedule"
                )
            if self.rounds is not None:
                _check_type("rounds", self.rounds, (int,), "an integer >= 1")
                if self.rounds < 1:
                    raise ConfigError(
                        f"rounds must be >= 1, got {self.rounds}"
                    )
            if self.max_sources is not None:
                _check_type(
                    "max_sources",
                    self.max_sources,
                    (int,),
                    "an integer >= 1",
                )
                if self.max_sources < 1:
                    raise ConfigError(
                        f"max_sources must be >= 1, got {self.max_sources}"
                    )
            if self.resume and self.checkpoint is None:
                raise ConfigError(
                    "resume=True needs a checkpoint path "
                    "(CLI: --resume needs --checkpoint PATH)"
                )
            if self.policy is not None:
                from repro.ptest.adaptive import POLICIES

                if self.policy not in POLICIES:
                    raise ConfigError(
                        f"unknown policy {self.policy!r}; "
                        f"known policies: {', '.join(sorted(POLICIES))}"
                    )
            if self.pipeline is not None:
                # Parsing validates stage names/bounds; an unbounded
                # final stage needs the explicit rounds cap now, not
                # after round 1 has already run.
                pipeline = self._parse_pipeline()
                if pipeline.total_rounds() is None and self.rounds is None:
                    raise ConfigError(
                        f"pipeline {self.pipeline!r} has an unbounded "
                        "final stage; give rounds= to cap the campaign "
                        "(CLI: --rounds)"
                    )

    def _parse_pipeline(self):
        from repro.ptest.pipeline import parse_pipeline

        replay_kwargs = (
            {"max_sources": self.max_sources}
            if self.max_sources is not None
            else {}
        )
        return parse_pipeline(
            self.pipeline, policy_kwargs={"replay": replay_kwargs}
        )

    # -- serialization -----------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe mapping; omits fields left at their defaults so
        specs stay readable and forward-portable."""
        payload: dict[str, Any] = {"scenario": self.scenario, "mode": self.mode}
        defaults = {f.name: f.default for f in fields(self)}
        if self.params:
            payload["params"] = dict(self.params)
        if self.grid:
            payload["grid"] = {key: list(vs) for key, vs in self.grid}
        payload["seeds"] = list(self.seeds)
        for name in (
            "workers",
            "batch_size",
            "cell_timeout",
            "quarantine",
            "capture_per_variant",
            "policy",
            "pipeline",
            "rounds",
            "max_sources",
            "prewarm",
            "checkpoint",
            "resume",
        ):
            value = getattr(self, name)
            if value != defaults[name]:
                payload[name] = value
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "CampaignSpec":
        if not isinstance(payload, Mapping):
            raise ConfigError(
                f"campaign spec must be a JSON object, got "
                f"{type(payload).__name__}"
            )
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ConfigError(
                f"unknown campaign spec field(s) {unknown}; "
                f"known fields: {', '.join(sorted(known))}"
            )
        data = dict(payload)
        if "params" in data:
            if not isinstance(data["params"], Mapping):
                raise ConfigError(
                    "params must be a JSON object of fixed parameters"
                )
            data["params"] = tuple(data["params"].items())
        if "grid" in data:
            if not isinstance(data["grid"], Mapping):
                raise ConfigError(
                    "grid must be a JSON object mapping parameters to "
                    "value lists"
                )
            data["grid"] = tuple(
                (key, tuple(vs) if isinstance(vs, (list, tuple)) else (vs,))
                for key, vs in data["grid"].items()
            )
        if "seeds" in data:
            if not isinstance(data["seeds"], (list, tuple)):
                raise ConfigError("seeds must be a JSON list of integers")
            data["seeds"] = tuple(data["seeds"])
        return cls(**data)

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    @classmethod
    def from_json(cls, text: str) -> "CampaignSpec":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as error:
            raise ConfigError(f"campaign spec is not valid JSON: {error}")
        return cls.from_dict(payload)

    def with_seeds(self, count: int) -> "CampaignSpec":
        """Convenience: the same spec over ``range(count)`` seeds."""
        return replace(self, seeds=tuple(range(count)))


# -- execution results ---------------------------------------------------------


@dataclass(frozen=True)
class RoundResult:
    """One executed (or checkpoint-replayed) round, wire-portable.

    Every field is a frozen dataclass of JSON-safe scalars, so a value
    rebuilt from :func:`round_from_dict` on the far side of a socket
    compares *equal* to the locally-produced original — this is the
    unit of the serve bit-identity contract.  Telemetry that is honest
    but process-local (pool ids, timings) deliberately lives outside.
    """

    index: int
    rows: tuple[CampaignRow, ...]
    detections: tuple[DetectionSample, ...]
    quarantine: QuarantineReport | None = None
    #: Pipeline stage label that owned this round (``None`` without a
    #: pipeline) — part of the schedule, so part of the contract.
    stage: str | None = None

    @property
    def total_detections(self) -> int:
        return sum(row.detections for row in self.rows)


@dataclass
class SpecOutcome:
    """Everything :func:`execute_spec` produced for one spec.

    ``rounds`` is the determinism-contract payload (one entry for a
    plain campaign, one per round for adapt); the remaining fields are
    telemetry and mode-specific extras the CLI renders.
    """

    spec: CampaignSpec
    rounds: tuple[RoundResult, ...]
    stopped_early: bool = False
    #: Per-round ``WorkerPool.pool_id`` telemetry, aligned with
    #: ``rounds`` (``None`` entries for serial rounds).  Process-local:
    #: never part of the bit-identity payload.
    pool_ids: tuple[int | None, ...] = ()
    prewarmed_refs: int = 0
    resumed_rounds: int = 0
    #: The resolved round budget (adapt mode; ``None`` otherwise).
    rounds_budget: int | None = None
    #: Human-readable schedule, e.g. ``policy=grid_zoom`` or
    #: ``pipeline=grid_zoom:3 -> replay:2``.
    schedule: str = ""
    #: Mode ``"run"`` only: the single cell's full result.
    run_result: TestRunResult | None = None

    @property
    def rows(self) -> tuple[CampaignRow, ...]:
        return self.rounds[-1].rows if self.rounds else ()

    @property
    def detections(self) -> tuple[DetectionSample, ...]:
        return tuple(
            sample for round_ in self.rounds for sample in round_.detections
        )

    @property
    def quarantine(self) -> QuarantineReport | None:
        return self.rounds[-1].quarantine if self.rounds else None

    @property
    def total_detections(self) -> int:
        return sum(round_.total_detections for round_ in self.rounds)


def _capture_detections(
    capture: DetectionCapture, rows: Iterable[CampaignRow]
) -> tuple[DetectionSample, ...]:
    """Flatten a round's capture in row order, then capture order —
    the same deterministic order ``RoundObservation.iter_samples``
    yields, so direct and spec-driven runs agree sample for sample."""
    return tuple(
        sample
        for row in rows
        for sample in capture.for_variant(row.variant)
    )


def _add_variants(campaign: Any, spec: CampaignSpec) -> None:
    fixed = dict(spec.params)
    grid = {key: list(values) for key, values in spec.grid}
    if grid:
        campaign.add_grid(spec.scenario, spec.scenario, grid, **fixed)
    else:
        campaign.add_scenario(spec.scenario, spec.scenario, **fixed)


def _execute_run(spec: CampaignSpec) -> SpecOutcome:
    from repro.workloads.registry import build_scenario

    test = build_scenario(spec.scenario, spec.seeds[0], **dict(spec.params))
    result = test.run()
    detections: tuple[DetectionSample, ...] = ()
    if result.found_bug:
        report = result.report
        detections = (
            DetectionSample(
                variant=spec.scenario,
                seed=spec.seeds[0],
                kind=report.primary.kind.value,
                merged_op=report.merged_op,
                merged_description=report.merged_description,
            ),
        )
    round_result = RoundResult(
        index=0,
        rows=(),
        detections=detections,
    )
    return SpecOutcome(
        spec=spec,
        rounds=(round_result,),
        pool_ids=(None,),
        run_result=result,
    )


def _execute_campaign(
    spec: CampaignSpec, sink: ResultSink | None
) -> SpecOutcome:
    campaign = Campaign(
        seeds=spec.seeds,
        workers=spec.workers,
        batch_size=spec.batch_size,
        keep_results=False,
        cell_timeout=spec.cell_timeout,
        quarantine=spec.quarantine,
    )
    _add_variants(campaign, spec)
    capture = DetectionCapture(limit_per_variant=spec.capture_per_variant)
    fan_out: ResultSink = capture
    if sink is not None:
        fan_out = TeeSink((capture, sink))
    rows = campaign.run(sink=fan_out)
    round_result = RoundResult(
        index=0,
        rows=tuple(rows),
        detections=_capture_detections(capture, rows),
        quarantine=campaign.last_quarantine,
    )
    return SpecOutcome(
        spec=spec,
        rounds=(round_result,),
        pool_ids=(campaign.last_pool_id,),
    )


def _resolve_schedule(spec: CampaignSpec):
    """The spec's refine policy, round budget and display string."""
    from repro.ptest.adaptive import POLICIES

    if spec.pipeline is not None:
        pipeline = spec._parse_pipeline()
        rounds = spec.rounds
        if rounds is None:
            rounds = pipeline.total_rounds()
        return pipeline, pipeline, rounds, f"pipeline={pipeline.describe()}"
    policy_name = spec.policy if spec.policy is not None else "grid_zoom"
    replay_kwargs = (
        {"max_sources": spec.max_sources}
        if spec.max_sources is not None
        else {}
    )
    policy_kwargs = replay_kwargs if policy_name == "replay" else {}
    policy = POLICIES[policy_name](**policy_kwargs)
    rounds = spec.rounds if spec.rounds is not None else 3
    return policy, None, rounds, f"policy={policy_name}"


def _execute_adapt(
    spec: CampaignSpec,
    sink: ResultSink | None,
    on_round: Callable[[RoundResult], None] | None,
) -> SpecOutcome:
    from repro.ptest.adaptive import AdaptiveCampaign

    policy, pipeline, rounds, schedule = _resolve_schedule(spec)
    campaign = AdaptiveCampaign(
        seeds=spec.seeds,
        rounds=rounds,
        policy=policy,
        workers=spec.workers,
        batch_size=spec.batch_size,
        capture_per_variant=spec.capture_per_variant,
        prewarm=spec.prewarm,
        cell_timeout=spec.cell_timeout,
        quarantine=spec.quarantine,
        checkpoint=spec.checkpoint,
        resume=spec.resume,
    )
    _add_variants(campaign, spec)
    round_results: list[RoundResult] = []

    def observe(observation) -> None:
        # Called the moment each observation lands (executed *and*
        # checkpoint-replayed), before the policy refines it — so
        # ``pipeline.current_stage`` is still the stage that owned the
        # round, exactly what ``stage_log`` will record.
        stage = None
        if pipeline is not None and pipeline.current_stage is not None:
            stage = pipeline.current_stage.label
        round_result = RoundResult(
            index=observation.index,
            rows=observation.rows,
            detections=tuple(observation.iter_samples()),
            quarantine=observation.quarantine,
            stage=stage,
        )
        round_results.append(round_result)
        if on_round is not None:
            on_round(round_result)

    campaign.on_round = observe
    result = campaign.run(sink=sink)
    return SpecOutcome(
        spec=spec,
        rounds=tuple(round_results),
        stopped_early=result.stopped_early,
        pool_ids=result.pool_ids,
        prewarmed_refs=result.prewarmed_refs,
        resumed_rounds=result.resumed_rounds,
        rounds_budget=rounds,
        schedule=schedule,
    )


def execute_spec(
    spec: CampaignSpec,
    sink: ResultSink | None = None,
    *,
    on_round: Callable[[RoundResult], None] | None = None,
) -> SpecOutcome:
    """Execute ``spec`` and return its :class:`SpecOutcome`.

    The one entry point behind ``repro run|campaign|adapt``, ``repro
    serve`` and :class:`repro.client.Client`.  ``sink`` (if given)
    receives every ``(cell, result)`` pair in submission order — the
    streaming hook the server bridges over the socket.  ``on_round``
    fires once per completed round with its :class:`RoundResult`
    (plain campaigns count as one round), enabling incremental round
    delivery without waiting for the whole schedule.

    Pool lifetime is the caller's: shared pools stay warm across calls
    (that is the point of the server), so one-shot callers such as the
    CLI close theirs afterwards.
    """
    if spec.mode == "run":
        outcome = _execute_run(spec)
    elif spec.mode == "campaign":
        outcome = _execute_campaign(spec, sink)
    else:
        return _execute_adapt(spec, sink, on_round)
    if on_round is not None:
        for round_result in outcome.rounds:
            on_round(round_result)
    return outcome


# -- wire codecs ---------------------------------------------------------------
#
# Plain dict codecs for the result dataclasses, used by serve/client to
# ship rounds as NDJSON.  Floats round-trip exactly through JSON
# (shortest-repr), so decode(encode(x)) == x — the property the serve
# bit-identity tests pin.


def row_to_dict(row: CampaignRow) -> dict[str, Any]:
    return {
        "variant": row.variant,
        "runs": row.runs,
        "detections": row.detections,
        "kinds": list(row.kinds),
        "mean_ticks_to_detection": row.mean_ticks_to_detection,
        "mean_commands": row.mean_commands,
    }


def row_from_dict(payload: Mapping[str, Any]) -> CampaignRow:
    return CampaignRow(
        variant=payload["variant"],
        runs=payload["runs"],
        detections=payload["detections"],
        kinds=tuple(payload["kinds"]),
        mean_ticks_to_detection=payload["mean_ticks_to_detection"],
        mean_commands=payload["mean_commands"],
    )


def detection_to_dict(sample: DetectionSample) -> dict[str, Any]:
    return {
        "variant": sample.variant,
        "seed": sample.seed,
        "kind": sample.kind,
        "merged_op": sample.merged_op,
        "merged_description": sample.merged_description,
    }


def detection_from_dict(payload: Mapping[str, Any]) -> DetectionSample:
    return DetectionSample(
        variant=payload["variant"],
        seed=payload["seed"],
        kind=payload["kind"],
        merged_op=payload["merged_op"],
        merged_description=payload["merged_description"],
    )


def quarantine_to_dict(report: QuarantineReport | None) -> dict[str, Any] | None:
    if report is None:
        return None
    return {
        "cells": [
            {
                "variant": cell.variant,
                "seed": cell.seed,
                "kind": cell.kind,
                "detail": cell.detail,
            }
            for cell in report.cells
        ],
        "attempted": report.attempted,
        "completed": report.completed,
    }


def quarantine_from_dict(
    payload: Mapping[str, Any] | None,
) -> QuarantineReport | None:
    if payload is None:
        return None
    return QuarantineReport(
        cells=tuple(
            QuarantinedCell(
                variant=cell["variant"],
                seed=cell["seed"],
                kind=cell["kind"],
                detail=cell["detail"],
            )
            for cell in payload["cells"]
        ),
        attempted=payload["attempted"],
        completed=payload["completed"],
    )


def round_to_dict(round_result: RoundResult) -> dict[str, Any]:
    return {
        "index": round_result.index,
        "rows": [row_to_dict(row) for row in round_result.rows],
        "detections": [
            detection_to_dict(sample) for sample in round_result.detections
        ],
        "quarantine": quarantine_to_dict(round_result.quarantine),
        "stage": round_result.stage,
    }


def round_from_dict(payload: Mapping[str, Any]) -> RoundResult:
    return RoundResult(
        index=payload["index"],
        rows=tuple(row_from_dict(row) for row in payload["rows"]),
        detections=tuple(
            detection_from_dict(sample) for sample in payload["detections"]
        ),
        quarantine=quarantine_from_dict(payload.get("quarantine")),
        stage=payload.get("stage"),
    )
