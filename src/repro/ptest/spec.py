"""`CampaignSpec`: one serializable description of a campaign.

A spec is one frozen, validated value object holding every campaign
knob — the fabric's ``workers``, ``batch_size``, ``cell_timeout`` and
``quarantine``, ``checkpoint``/``resume``, policy/pipeline schedules —
with an exact ``to_json``/``from_json`` round-trip, plus the single
:func:`execute_spec` entry point that the CLI (``repro
campaign|adapt``), the server (``repro serve``) and
:class:`repro.client.Client` all dispatch through.  A spec has two
modes, and one engine runs both: every spec is an
:class:`~repro.ptest.adaptive.AdaptiveCampaign` on one
:class:`~repro.ptest.executor.CellExecutor` built from the spec's
fabric fields, and a campaign is its one unrefined round.  (``repro
run`` runs one cell, not a spec.)

Validation lives in exactly one place — :meth:`CampaignSpec.validate`,
run from ``__post_init__`` — so contradictory knob combinations
(``resume`` without ``checkpoint``, a checkpoint on a plain campaign,
``policy`` and ``pipeline`` together) are rejected with actionable
messages before any pool is touched, identically whether the spec
arrived from CLI flags, a ``--spec file.json``, or a socket.

Spec files and server requests may still carry removed knobs, and
load and run unchanged: ``batch_sampling`` and ``merge_batch`` must be
booleans or null and are stored as ``None``; ``prewarm`` must be a
boolean and is dropped by :meth:`CampaignSpec.from_dict`.

**Determinism.**  A :class:`SpecOutcome` is the engine's
:class:`~repro.ptest.adaptive.AdaptiveResult` plus the spec and its
schedule, and its ``rounds`` are the engine's
:class:`~repro.ptest.adaptive.RoundObservation` records.  Their compared
fields carry only frozen dataclasses of JSON-safe scalars (Python
floats survive a JSON round-trip exactly), so a spec executed remotely
and rebuilt from the wire (:func:`round_from_dict`) compares equal —
bit-identical — to the same spec executed directly, at any
``(concurrent clients, workers, batch_size)``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, replace
from typing import Any, Callable, Mapping

from repro.errors import ConfigError
from repro.ptest.adaptive import (
    POLICIES,
    AdaptiveCampaign,
    AdaptiveResult,
    PolicyPipeline,
    RefinePolicy,
    RoundObservation,
    parse_pipeline,
)
from repro.ptest.campaign import CampaignRow, DetectionSample, check_grid, grid_variants
from repro.ptest.executor import (
    CellExecutor,
    QuarantinedCell,
    QuarantineReport,
    ResultSink,
    check_fabric,
)
from repro.workloads.registry import ScenarioRef

MODES = ("campaign", "adapt")

#: Knobs that only mean something on an adaptive (multi-round) run —
#: :meth:`CampaignSpec.validate` rejects them on a campaign spec so a
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

    ``mode`` selects the schedule: ``"campaign"`` sweeps ``seeds`` ×
    the variant set once (one round), ``"adapt"`` runs policy-refined
    rounds; any other mode is a :class:`~repro.errors.ConfigError`.
    ``params`` are fixed scenario parameters (stored sorted — order
    never matters); ``grid`` maps parameters to value sweeps (order
    preserved — it fixes the cartesian-product variant naming).
    ``workers``, ``batch_size``, ``cell_timeout`` and ``quarantine``
    build the :class:`~repro.ptest.executor.CellExecutor` every round
    runs on; everything else mirrors the knob of the same name on
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
        if self.batch_size is not None:
            _check_type(
                "batch_size", self.batch_size, (int,), "an integer >= 1"
            )
        if self.cell_timeout is not None:
            _check_type(
                "cell_timeout",
                self.cell_timeout,
                (int, float),
                "a positive number of seconds",
            )
        for name, hint in (
            ("policy", "a policy name"),
            ("pipeline", "a pipeline string such as 'grid_zoom:2,replay:1'"),
            ("checkpoint", "a file path"),
        ):
            if getattr(self, name) is not None:
                _check_type(name, getattr(self, name), (str,), hint)
        _check_type("quarantine", self.quarantine, (bool,), "a boolean")
        _check_type("resume", self.resume, (bool,), "a boolean")
        _check_type(
            "capture_per_variant",
            self.capture_per_variant,
            (int,),
            "an integer >= 0",
        )
        check_fabric(self.workers, self.batch_size, self.cell_timeout)
        if self.capture_per_variant < 0:
            raise ConfigError(
                f"capture_per_variant must be >= 0, got "
                f"{self.capture_per_variant}"
            )
        check_grid(dict(self.grid), dict(self.params))
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
            if self.policy is not None and self.policy not in POLICIES:
                raise ConfigError(
                    f"unknown policy {self.policy!r}; "
                    f"known policies: {', '.join(sorted(POLICIES))}"
                )
            # Builds the schedule once to check it: policy and stage
            # names, stage bounds, and a cap for an unbounded pipeline.
            _resolve_schedule(self)

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
        unknown = sorted(set(payload) - known - {"prewarm"})
        if unknown:
            raise ConfigError(
                f"unknown campaign spec field(s) {unknown}; "
                f"known fields: {', '.join(sorted(known))}"
            )
        if "scenario" not in payload:
            raise ConfigError(
                "campaign spec is missing the required field 'scenario'"
            )
        data = dict(payload)
        if "prewarm" in data:
            _check_type("prewarm", data.pop("prewarm"), (bool,), "a boolean")
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
        except (json.JSONDecodeError, RecursionError) as error:
            # RecursionError: nesting too deep for the decoder.
            raise ConfigError(f"campaign spec is not valid JSON: {error}")
        return cls.from_dict(payload)

    def with_seeds(self, count: int) -> "CampaignSpec":
        """Convenience: the same spec over ``range(count)`` seeds."""
        return replace(self, seeds=tuple(range(count)))


# -- execution results ---------------------------------------------------------


@dataclass(kw_only=True)
class SpecOutcome(AdaptiveResult):
    """Everything :func:`execute_spec` produced for one spec: the
    engine's :class:`~repro.ptest.adaptive.AdaptiveResult` plus the
    spec and its resolved schedule.

    ``rounds`` is the determinism-contract payload (one entry for a
    plain campaign, one per round for adapt); each round's ``pool_id``
    is process-local telemetry, never part of equality.
    """

    spec: CampaignSpec
    #: The resolved round budget (adapt mode; ``None`` otherwise).
    rounds_budget: int | None = None
    #: Human-readable schedule, e.g. ``policy=grid_zoom`` or
    #: ``pipeline=grid_zoom:3 -> replay:2``.
    schedule: str = ""


def spec_variants(spec: CampaignSpec) -> dict[str, ScenarioRef]:
    """The spec's first-round variants, keyed as its rows name them:
    one ref per grid point, or the bare scenario without a grid."""
    grid = {key: list(values) for key, values in spec.grid}
    return grid_variants(spec.scenario, spec.scenario, grid, **dict(spec.params))


def _resolve_schedule(
    spec: CampaignSpec,
) -> tuple[RefinePolicy | PolicyPipeline | None, int | None, str]:
    """The spec's refine policy or pipeline, round budget and display
    string; ``max_sources`` reaches every replay policy here.  A
    campaign spec is one round, which no policy refines."""
    if spec.mode == "campaign":
        return None, None, ""
    replay_kwargs = (
        {"max_sources": spec.max_sources}
        if spec.max_sources is not None
        else {}
    )
    if spec.pipeline is not None:
        pipeline = parse_pipeline(
            spec.pipeline, policy_kwargs={"replay": replay_kwargs}
        )
        rounds = spec.rounds if spec.rounds is not None else pipeline.total_rounds()
        if rounds is None:
            # validate() raises this, before any round has run.
            raise ConfigError(
                f"pipeline {spec.pipeline!r} has an unbounded final "
                "stage; give rounds= to cap the campaign (CLI: --rounds)"
            )
        return pipeline, rounds, f"pipeline={pipeline.describe()}"
    policy_name = spec.policy if spec.policy is not None else "grid_zoom"
    policy_kwargs = replay_kwargs if policy_name == "replay" else {}
    policy = POLICIES[policy_name](**policy_kwargs)
    rounds = spec.rounds if spec.rounds is not None else 3
    return policy, rounds, f"policy={policy_name}"


def execute_spec(
    spec: CampaignSpec,
    sink: ResultSink | None = None,
    *,
    on_round: Callable[[RoundObservation], None] | None = None,
) -> SpecOutcome:
    """Execute ``spec`` and return its :class:`SpecOutcome`.

    The one entry point behind ``repro campaign|adapt``, ``repro
    serve`` and :class:`repro.client.Client`, and one engine: every
    spec runs as an :class:`~repro.ptest.adaptive.AdaptiveCampaign`, a
    campaign spec as its one unrefined round.  ``sink`` (if given)
    receives every ``(cell, result)`` pair in submission order — the
    streaming hook the server bridges over the socket.  ``on_round``
    fires once per completed round with its
    :class:`~repro.ptest.adaptive.RoundObservation` (a campaign is one
    round), enabling incremental round delivery without waiting for
    the whole schedule.

    Pool lifetime is the caller's: shared pools stay warm across calls
    (that is the point of the server), so one-shot callers such as the
    CLI close theirs afterwards.
    """
    policy, rounds, schedule = _resolve_schedule(spec)
    executor = CellExecutor(
        workers=spec.workers,
        batch_size=spec.batch_size,
        cell_timeout=spec.cell_timeout,
        quarantine=spec.quarantine,
    )
    result = AdaptiveCampaign(
        seeds=spec.seeds,
        rounds=1 if rounds is None else rounds,
        policy=policy,
        variants=spec_variants(spec),
        executor=executor,
        capture_per_variant=spec.capture_per_variant,
        checkpoint=spec.checkpoint,
        resume=spec.resume,
        on_round=on_round,
    ).run(sink=sink)
    return SpecOutcome(
        rounds=result.rounds,
        stopped_early=result.stopped_early,
        resumed_rounds=result.resumed_rounds,
        spec=spec,
        rounds_budget=rounds,
        schedule=schedule,
    )


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


def round_to_dict(round_result: RoundObservation) -> dict[str, Any]:
    return {
        "index": round_result.index,
        "rows": [row_to_dict(row) for row in round_result.rows],
        "detections": [
            detection_to_dict(sample) for sample in round_result.detections
        ],
        "quarantine": quarantine_to_dict(round_result.quarantine),
        "stage": round_result.stage,
    }


def round_from_dict(payload: Mapping[str, Any]) -> RoundObservation:
    return RoundObservation(
        index=payload["index"],
        rows=tuple(row_from_dict(row) for row in payload["rows"]),
        detections=tuple(
            detection_from_dict(sample) for sample in payload["detections"]
        ),
        quarantine=quarantine_from_dict(payload.get("quarantine")),
        stage=payload.get("stage"),
    )
