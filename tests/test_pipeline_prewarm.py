"""Tests for composed refinement pipelines.

Covers :mod:`repro.ptest.pipeline` (stage scheduling, stop conditions,
spec parsing, CLI integration), including the acceptance matrix: a
``GridZoom -> ReplayFocus`` pipeline yields bit-identical
round-by-round variants, rows and detections at any ``(workers,
batch_size, warm/cold)`` configuration, with one pool spawn across the
whole composed schedule.
"""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.errors import ConfigError
from repro.ptest.adaptive import (
    AdaptiveCampaign,
    GridZoom,
    Repeat,
    ReplayFocus,
    RoundObservation,
)
from repro.ptest.campaign import CampaignRow, DetectionSample
from repro.ptest.executor import CellExecutor
from repro.ptest.pipeline import (
    PipelineStage,
    Plateau,
    PolicyPipeline,
    Until,
    parse_pipeline,
)
from repro.ptest.pool import WorkerPool, shutdown_pools
from repro.ptest.replay import ReplayRef
from repro.workloads.registry import scenario_ref


@pytest.fixture(autouse=True)
def _deterministic_pool_teardown():
    """Every test starts and ends without lingering shared pools."""
    shutdown_pools()
    yield
    shutdown_pools()


# -- observation builders -------------------------------------------------------


def make_row(variant: str, runs: int, detections: int) -> CampaignRow:
    return CampaignRow(
        variant=variant,
        runs=runs,
        detections=detections,
        kinds=("deadlock",) if detections else (),
        mean_ticks_to_detection=200.0 if detections else 0.0,
        mean_commands=9.0,
    )


#: A parseable, re-mergeable interleaving of 2 philosopher-style pairs.
SAMPLE_DESCRIPTION = (
    "TC[p0#1] TC[p1#1] TS[p0#2] TS[p1#2] TR[p0#3] TR[p1#3]"
)


def make_observation(
    variants: dict[str, object],
    hits: dict[str, int] | None = None,
    runs: int = 4,
    index: int = 0,
) -> RoundObservation:
    hits = hits or {}
    rows = tuple(
        make_row(name, runs, hits.get(name, 0)) for name in variants
    )
    detections = tuple(
        DetectionSample(
            variant=name,
            seed=seed,
            kind="deadlock",
            merged_op="cyclic",
            merged_description=SAMPLE_DESCRIPTION,
        )
        for name in variants
        for seed in range(hits.get(name, 0))
    )
    return RoundObservation(
        index=index,
        variants=dict(variants),
        rows=rows,
        detections=detections,
        pool_id=None,
    )


def spin_observation(index: int = 0, detections: int = 0) -> RoundObservation:
    variants = {"spin": scenario_ref("clean_spin", total_steps=40)}
    return make_observation(
        variants, {"spin": detections}, index=index
    )


@dataclass
class _EmitTag:
    """Stub policy: emits one tagged variant per round, pure in the
    observation index; returns ``None`` once ``stop_at`` is reached."""

    tag: str
    stop_at: int | None = None

    def refine(self, observation):
        if self.stop_at is not None and observation.index >= self.stop_at:
            return None
        name = f"{self.tag}{observation.index + 1}"
        return {
            name: scenario_ref(
                "clean_spin", total_steps=40 + 2 * observation.index
            )
        }


# -- stop conditions ------------------------------------------------------------


class TestUntil:
    def test_predicate_sees_latest_observation(self):
        until = Until(lambda obs: obs.total_detections >= 3)
        history = (spin_observation(0, 1), spin_observation(1, 3))
        assert not until.met(history[:1])
        assert until.met(history)

    def test_non_callable_predicate_rejected(self):
        with pytest.raises(ConfigError, match="callable"):
            Until(predicate="nope")


class TestPlateau:
    def history(self, *totals: int):
        return tuple(
            spin_observation(index, detections)
            for index, detections in enumerate(totals)
        )

    def test_needs_a_baseline_round_first(self):
        assert not Plateau(rounds=2).met(self.history(5))
        assert not Plateau(rounds=2).met(self.history(5, 5))

    def test_met_when_no_recent_improvement(self):
        plateau = Plateau(rounds=2)
        assert plateau.met(self.history(5, 5, 4))
        assert plateau.met(self.history(2, 5, 5, 5))

    def test_not_met_while_still_improving(self):
        plateau = Plateau(rounds=2)
        assert not plateau.met(self.history(2, 3, 4))
        assert not plateau.met(self.history(5, 4, 6))

    def test_rounds_validated(self):
        with pytest.raises(ConfigError, match=">= 1"):
            Plateau(rounds=0)


# -- stages and pipeline construction -------------------------------------------


class TestPipelineStage:
    def test_policy_must_refine(self):
        with pytest.raises(ConfigError, match="refine"):
            PipelineStage(policy=object())

    def test_rounds_validated(self):
        with pytest.raises(ConfigError, match=">= 1"):
            PipelineStage(policy=Repeat(), rounds=0)

    def test_until_must_be_a_condition(self):
        with pytest.raises(ConfigError, match="met"):
            PipelineStage(policy=Repeat(), until=object())

    def test_label_and_describe(self):
        stage = PipelineStage(policy=GridZoom(), rounds=3)
        assert stage.label == "GridZoom"
        assert stage.describe() == "GridZoom:3"
        named = PipelineStage(policy=GridZoom(), name="zoom")
        assert named.describe() == "zoom"


class TestPolicyPipelineConstruction:
    def test_needs_stages(self):
        with pytest.raises(ConfigError, match="at least one stage"):
            PolicyPipeline(())

    def test_stages_must_be_pipeline_stages(self):
        with pytest.raises(ConfigError, match="PipelineStage"):
            PolicyPipeline((Repeat(),))

    def test_non_final_stage_needs_a_bound(self):
        with pytest.raises(ConfigError, match="before the last"):
            PolicyPipeline(
                (
                    PipelineStage(policy=Repeat()),
                    PipelineStage(policy=Repeat(), rounds=1),
                )
            )

    def test_final_stage_may_be_unbounded(self):
        pipeline = PolicyPipeline(
            (
                PipelineStage(policy=Repeat(), rounds=2),
                PipelineStage(policy=Repeat()),
            )
        )
        assert pipeline.total_rounds() is None

    def test_total_rounds_and_describe(self):
        pipeline = PolicyPipeline(
            (
                PipelineStage(policy=GridZoom(), rounds=3, name="zoom"),
                PipelineStage(policy=ReplayFocus(), rounds=2, name="replay"),
            )
        )
        assert pipeline.total_rounds() == 5
        assert pipeline.describe() == "zoom:3 -> replay:2"


# -- scheduling semantics (driven by hand) --------------------------------------


class TestPipelineScheduling:
    def tags(self, refined):
        return list(refined) if refined else None

    def test_rounds_bound_hands_over_to_next_stage(self):
        pipeline = PolicyPipeline(
            (
                PipelineStage(_EmitTag("a"), rounds=2, name="A"),
                PipelineStage(_EmitTag("b"), rounds=2, name="B"),
            )
        )
        assert self.tags(pipeline.refine(spin_observation(0))) == ["a1"]
        # Stage A's budget (2 consumed rounds) trips here: stage B
        # refines the same observation and owns the next round.
        assert self.tags(pipeline.refine(spin_observation(1))) == ["b2"]
        assert self.tags(pipeline.refine(spin_observation(2))) == ["b3"]
        # B's budget trips, no stage remains: the campaign stops.
        assert pipeline.refine(spin_observation(3)) is None
        assert pipeline.current_stage is None
        assert pipeline.stage_log == [(0, "A"), (1, "A"), (2, "B"), (3, "B")]

    def test_until_condition_hands_over_early(self):
        pipeline = PolicyPipeline(
            (
                PipelineStage(
                    _EmitTag("a"),
                    rounds=10,
                    until=Until(lambda obs: obs.total_detections >= 4),
                    name="A",
                ),
                PipelineStage(_EmitTag("b"), rounds=2, name="B"),
            )
        )
        assert self.tags(pipeline.refine(spin_observation(0, 1))) == ["a1"]
        assert self.tags(pipeline.refine(spin_observation(1, 4))) == ["b2"]

    def test_plateau_condition_hands_over(self):
        pipeline = PolicyPipeline(
            (
                PipelineStage(
                    _EmitTag("a"), until=Plateau(rounds=1), name="A"
                ),
                PipelineStage(_EmitTag("b"), rounds=2, name="B"),
            )
        )
        assert self.tags(pipeline.refine(spin_observation(0, 2))) == ["a1"]
        assert self.tags(pipeline.refine(spin_observation(1, 3))) == ["a2"]
        # No improvement over the stage's best: plateau, B takes over.
        assert self.tags(pipeline.refine(spin_observation(2, 3))) == ["b3"]

    def test_converged_policy_hands_over_before_its_budget(self):
        pipeline = PolicyPipeline(
            (
                PipelineStage(_EmitTag("a", stop_at=1), rounds=5, name="A"),
                PipelineStage(_EmitTag("b"), rounds=2, name="B"),
            )
        )
        assert self.tags(pipeline.refine(spin_observation(0))) == ["a1"]
        # A's policy returns None at index 1 — B refines the same
        # observation rather than the campaign stopping.
        assert self.tags(pipeline.refine(spin_observation(1))) == ["b2"]

    def test_stage_with_nothing_to_do_is_skipped(self):
        pipeline = PolicyPipeline(
            (
                PipelineStage(_EmitTag("a"), rounds=1, name="A"),
                PipelineStage(_EmitTag("b", stop_at=0), rounds=2, name="B"),
                PipelineStage(_EmitTag("c"), rounds=2, name="C"),
            )
        )
        # A's budget trips immediately; B has nothing to emit for this
        # observation, so C takes over in the same refine call.
        assert self.tags(pipeline.refine(spin_observation(0))) == ["c1"]

    def test_every_stage_empty_stops_campaign(self):
        pipeline = PolicyPipeline(
            (
                PipelineStage(_EmitTag("a"), rounds=1, name="A"),
                PipelineStage(_EmitTag("b", stop_at=0), rounds=2, name="B"),
            )
        )
        assert pipeline.refine(spin_observation(0)) is None

    def test_round_zero_observation_resets_the_schedule(self):
        pipeline = PolicyPipeline(
            (
                PipelineStage(_EmitTag("a"), rounds=2, name="A"),
                PipelineStage(_EmitTag("b"), rounds=2, name="B"),
            )
        )

        def drive():
            emitted = [
                self.tags(pipeline.refine(spin_observation(index)))
                for index in range(4)
            ]
            return emitted

        first = drive()
        second = drive()  # same instance, next campaign run
        assert first == second == [["a1"], ["b2"], ["b3"], None]

    def test_exhausted_pipeline_stays_stopped_mid_sequence(self):
        pipeline = PolicyPipeline(
            (PipelineStage(_EmitTag("a"), rounds=1, name="A"),)
        )
        assert pipeline.refine(spin_observation(0)) is None
        assert pipeline.refine(spin_observation(1)) is None


# -- spec parsing ---------------------------------------------------------------


class TestParsePipeline:
    def test_parses_stages_with_rounds(self):
        pipeline = parse_pipeline("grid_zoom:3,replay:2")
        assert pipeline.describe() == "grid_zoom:3 -> replay:2"
        assert pipeline.total_rounds() == 5
        assert isinstance(pipeline.stages[0].policy, GridZoom)
        assert isinstance(pipeline.stages[1].policy, ReplayFocus)

    def test_final_stage_may_omit_rounds(self):
        pipeline = parse_pipeline("grid_zoom:2,repeat")
        assert pipeline.stages[-1].rounds is None
        assert pipeline.total_rounds() is None

    def test_policy_kwargs_route_by_name(self):
        pipeline = parse_pipeline(
            "replay:1", policy_kwargs={"replay": {"max_sources": 1}}
        )
        assert pipeline.stages[0].policy.max_sources == 1

    def test_unknown_policy_lists_registry(self):
        with pytest.raises(ConfigError, match="grid_zoom.*replay"):
            parse_pipeline("grid_zoom:2,bogus:1")

    def test_malformed_specs_rejected(self):
        with pytest.raises(ConfigError, match="empty pipeline spec"):
            parse_pipeline(" , ")
        with pytest.raises(ConfigError, match="integer"):
            parse_pipeline("grid_zoom:x")
        with pytest.raises(ConfigError, match=">= 1"):
            parse_pipeline("grid_zoom:0")
        with pytest.raises(ConfigError, match="final stage"):
            parse_pipeline("grid_zoom,replay:2")


# -- the acceptance matrix ------------------------------------------------------


def zoom_then_replay() -> PolicyPipeline:
    return PolicyPipeline(
        (
            PipelineStage(GridZoom(), rounds=2, name="zoom"),
            PipelineStage(
                ReplayFocus(ops=("cyclic",), max_sources=1),
                rounds=2,
                name="replay",
            ),
        )
    )


def pipeline_campaign(workers=None, batch_size=None, pool=None) -> AdaptiveCampaign:
    campaign = AdaptiveCampaign(
        seeds=(0, 1),
        rounds=4,
        policy=zoom_then_replay(),
        executor=CellExecutor(workers=workers, batch_size=batch_size, pool=pool),
    )
    campaign.add_grid("phil", "philosophers", {"chunk": [1, 2]})
    return campaign


def fingerprint(result):
    return (
        [dict(r.variants) for r in result.rounds],
        [r.rows for r in result.rounds],
        [r.detections for r in result.rounds],
        result.stopped_early,
    )


class TestComposedPipelineThroughEngine:
    def test_zoom_rounds_then_replay_rounds(self):
        result = pipeline_campaign(workers=1).run()
        assert len(result.rounds) == 4
        history = result.variant_history()
        # Rounds 1-2 are grid variants (round 2 zoomed to the winner),
        # rounds 3-4 are merged-pattern replay cells.
        assert history[0] == ("phil[chunk=1]", "phil[chunk=2]")
        assert all("replay[" in name for name in history[2])
        assert all("replay[" in name for name in history[3])
        assert all(
            isinstance(ref, ReplayRef)
            for ref in result.rounds[2].variants.values()
        )
        assert all(row.rate == 1.0 for row in result.final_rows)

    def test_stage_log_matches_round_ownership(self):
        pipeline = zoom_then_replay()
        campaign = AdaptiveCampaign(
            seeds=(0, 1), rounds=4, policy=pipeline
        )
        campaign.add_grid("phil", "philosophers", {"chunk": [1, 2]})
        campaign.run()
        assert pipeline.stage_log == [
            (0, "zoom"), (1, "zoom"), (2, "replay"),
        ]


class TestPipelinePrewarmDeterminismMatrix:
    """GridZoom -> ReplayFocus composed rounds are bit-identical at any
    (workers, batch_size, warm/cold), with one pool spawn per composed
    schedule."""

    def test_rounds_identical_across_all_configurations(self):
        reference = pipeline_campaign(workers=1).run()
        baseline = fingerprint(reference)
        assert len(reference.rounds) == 4  # full composed schedule ran
        for batch_size in (1, None):
            serial = pipeline_campaign(workers=1, batch_size=batch_size).run()
            assert fingerprint(serial) == baseline, (
                f"serial batch_size={batch_size}"
            )
            with WorkerPool(2) as pool:
                cold = pipeline_campaign(
                    workers=None, batch_size=batch_size, pool=pool
                ).run()
                warm = pipeline_campaign(
                    workers=None, batch_size=batch_size, pool=pool
                ).run()
                spawns = pool.spawns
            assert fingerprint(cold) == baseline, (
                f"cold pool batch_size={batch_size}"
            )
            assert fingerprint(warm) == baseline, (
                f"warm pool batch_size={batch_size}"
            )
            # Two composed schedules back to back: still one spawn.
            assert spawns == 1

    def test_explicit_worker_counts_agree_too(self):
        reference = fingerprint(pipeline_campaign(workers=1).run())
        parallel = pipeline_campaign(workers=2, batch_size=1).run()
        assert fingerprint(parallel) == reference


# -- CLI integration ------------------------------------------------------------


class TestPipelineCli:
    def test_adapt_pipeline_prints_stages(self, capsys):
        from repro.cli import main

        assert (
            main(
                [
                    "adapt",
                    "philosophers",
                    "--seeds",
                    "2",
                    "--pipeline",
                    "grid_zoom:2,replay:1",
                    "--max-sources",
                    "1",
                    "--grid",
                    "chunk=1,2",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "pipeline=grid_zoom:2 -> replay:1" in output
        assert "3/3 round(s)" in output  # rounds default to the sum
        assert "stage=grid_zoom" in output
        assert "stage=replay" in output
        assert "replay[" in output

    def test_adapt_pipeline_unknown_policy_clean_error(self, capsys):
        from repro.cli import main

        assert (
            main(["adapt", "philosophers", "--pipeline", "bogus:2"]) == 2
        )
        output = capsys.readouterr().out
        assert "unknown pipeline policy 'bogus'" in output
        assert "grid_zoom" in output

    def test_adapt_unbounded_pipeline_needs_rounds(self, capsys):
        from repro.cli import main

        assert (
            main(["adapt", "philosophers", "--pipeline", "repeat"]) == 2
        )
        assert "--rounds" in capsys.readouterr().out

    def test_adapt_unbounded_pipeline_with_rounds_runs(self, capsys):
        from repro.cli import main

        assert (
            main(
                [
                    "adapt",
                    "philosophers",
                    "--seeds",
                    "2",
                    "--pipeline",
                    "repeat",
                    "--rounds",
                    "2",
                ]
            )
            == 0
        )
        assert "2/2 round(s)" in capsys.readouterr().out
