"""Tests for composed refinement pipelines.

Covers :class:`~repro.ptest.adaptive.PolicyPipeline` (construction,
the engine's stage scheduling, the schedule text, CLI integration),
including the acceptance matrix: a ``GridZoom -> ReplayFocus``
pipeline yields bit-identical round-by-round variants, rows,
detections and stages at any ``(workers, batch_size, warm/cold)``
configuration, with one pool spawn across the whole composed schedule.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass

import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigError
from repro.ptest.adaptive import (
    POLICIES,
    AdaptiveCampaign,
    GridZoom,
    PipelineStage,
    PolicyPipeline,
    Repeat,
    ReplayFocus,
    parse_pipeline,
)
from repro.ptest.executor import CellExecutor
from repro.ptest.pool import WorkerPool, shutdown_pools
from repro.ptest.replay import ReplayRef
from repro.ptest.spec import CampaignSpec, execute_spec
from repro.workloads.registry import scenario_ref


@pytest.fixture(autouse=True)
def _deterministic_pool_teardown():
    """Every test starts and ends without lingering shared pools."""
    shutdown_pools()
    yield
    shutdown_pools()


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


# -- stages and pipeline construction -------------------------------------------


class TestPipelineStage:
    def test_policy_must_refine(self):
        with pytest.raises(ConfigError, match="refine"):
            PipelineStage(policy=object())

    def test_a_pipeline_is_not_a_stage_policy(self):
        with pytest.raises(ConfigError, match="refine"):
            PipelineStage(policy=parse_pipeline("repeat:1"))

    def test_rounds_validated(self):
        with pytest.raises(ConfigError, match=">= 1"):
            PipelineStage(policy=Repeat(), rounds=0)

    def test_label_and_describe(self):
        stage = PipelineStage(policy=GridZoom(), rounds=3)
        assert stage.label == "grid_zoom"
        assert stage.describe() == "grid_zoom:3"
        # A name relabels the rounds; the text still names the policy.
        named = PipelineStage(policy=GridZoom(), name="zoom")
        assert (named.label, named.describe()) == ("zoom", "grid_zoom")
        custom = PipelineStage(policy=_EmitTag("a"), rounds=1)
        assert (custom.label, custom.describe()) == ("_EmitTag", "_EmitTag:1")


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
        assert pipeline.describe() == "grid_zoom:3,replay:2"

    def test_a_pipeline_is_a_value_without_run_state(self):
        pipeline = parse_pipeline("grid_zoom:2,replay:1")
        assert not hasattr(pipeline, "refine")
        assert [f.name for f in dataclasses.fields(pipeline)] == ["stages"]
        with pytest.raises(dataclasses.FrozenInstanceError):
            pipeline.stages = ()
        assert pipeline == parse_pipeline("grid_zoom:2,replay:1")


# -- scheduling semantics (engine runs over stub policies) ----------------------


def run_schedule(policy, rounds: int):
    """Run ``policy`` over one cheap seed; returns each round's variant
    names and stage, and whether the schedule stopped early."""
    campaign = AdaptiveCampaign(seeds=(0,), rounds=rounds, policy=policy)
    campaign.add_scenario("spin", "clean_spin", total_steps=40)
    result = campaign.run()
    return (
        [list(names) for names in result.variant_history()],
        [observation.stage for observation in result.rounds],
        result.stopped_early,
    )


class TestPipelineScheduling:
    def test_rounds_bound_hands_over_to_next_stage(self):
        pipeline = PolicyPipeline(
            (
                PipelineStage(_EmitTag("a"), rounds=2, name="A"),
                PipelineStage(_EmitTag("b"), rounds=2, name="B"),
            )
        )
        # Stage A's budget (2 rounds) trips after round 2: stage B
        # refines the same observation and owns the next round.  After
        # B's two rounds no stage remains: the campaign stops inside
        # its 5-round budget.
        assert run_schedule(pipeline, rounds=5) == (
            [["spin"], ["a1"], ["b2"], ["b3"]],
            ["A", "A", "B", "B"],
            True,
        )

    def test_converged_policy_hands_over_before_its_budget(self):
        pipeline = PolicyPipeline(
            (
                PipelineStage(_EmitTag("a", stop_at=1), rounds=5, name="A"),
                PipelineStage(_EmitTag("b"), rounds=2, name="B"),
            )
        )
        # A's policy returns None at index 1 — B refines the same
        # observation rather than the campaign stopping.
        assert run_schedule(pipeline, rounds=4) == (
            [["spin"], ["a1"], ["b2"], ["b3"]],
            ["A", "A", "B", "B"],
            False,
        )

    def test_stage_with_nothing_to_do_is_skipped(self):
        pipeline = PolicyPipeline(
            (
                PipelineStage(_EmitTag("a"), rounds=1, name="A"),
                PipelineStage(_EmitTag("b", stop_at=0), rounds=2, name="B"),
                PipelineStage(_EmitTag("c"), rounds=2, name="C"),
            )
        )
        # A's budget trips after round 1; B has nothing to emit for
        # that observation, so C takes over in the same step.
        assert run_schedule(pipeline, rounds=5) == (
            [["spin"], ["c1"], ["c2"]],
            ["A", "C", "C"],
            True,
        )

    def test_every_stage_empty_stops_campaign(self):
        pipeline = PolicyPipeline(
            (
                PipelineStage(_EmitTag("a"), rounds=1, name="A"),
                PipelineStage(_EmitTag("b", stop_at=0), rounds=2, name="B"),
            )
        )
        assert run_schedule(pipeline, rounds=3) == ([["spin"]], ["A"], True)

    def test_one_pipeline_drives_consecutive_runs(self):
        # The schedule position lives in the run, not the pipeline: one
        # pipeline value drives consecutive runs identically.
        pipeline = PolicyPipeline(
            (
                PipelineStage(_EmitTag("a"), rounds=2, name="A"),
                PipelineStage(_EmitTag("b"), rounds=2, name="B"),
            )
        )
        first = run_schedule(pipeline, rounds=5)
        assert run_schedule(pipeline, rounds=5) == first
        assert first[1] == ["A", "A", "B", "B"]

    def test_bare_policy_is_one_stage_labelled_by_its_policy(self):
        policy = _EmitTag("a", stop_at=2)
        campaign = AdaptiveCampaign(policy=policy)
        assert campaign.policy == PolicyPipeline((PipelineStage(policy),))
        assert run_schedule(policy, rounds=4) == (
            [["spin"], ["a1"], ["a2"]],
            ["_EmitTag", "_EmitTag", "_EmitTag"],
            True,
        )


# -- spec parsing ---------------------------------------------------------------


class TestScheduleText:
    def test_parses_stages_with_rounds(self):
        pipeline = parse_pipeline("grid_zoom:3,replay:2")
        assert pipeline.describe() == "grid_zoom:3,replay:2"
        assert pipeline.total_rounds() == 5
        assert isinstance(pipeline.stages[0].policy, GridZoom)
        assert isinstance(pipeline.stages[1].policy, ReplayFocus)
        assert [stage.label for stage in pipeline.stages] == [
            "grid_zoom", "replay",
        ]

    def test_final_stage_may_omit_rounds(self):
        pipeline = parse_pipeline("grid_zoom:2,repeat")
        assert pipeline.stages[-1].rounds is None
        assert pipeline.total_rounds() is None

    def test_max_sources_sets_the_replay_argument(self):
        pipeline = parse_pipeline(" grid_zoom : 2 , replay ( max_sources = 3 ) ")
        assert pipeline.stages[1].policy == ReplayFocus(max_sources=3)
        assert pipeline.describe() == "grid_zoom:2,replay(max_sources=3)"
        # An argument at its default is left out of the text.
        assert parse_pipeline("replay(max_sources=2):1").describe() == "replay:1"

    @pytest.mark.parametrize(
        "text",
        ["halving(max_sources=3)", "grid_zoom(max_sources=1):2", "replay(seed=1)"],
    )
    def test_max_sources_is_the_only_argument_and_only_on_replay(self, text):
        with pytest.raises(ConfigError, match="only max_sources"):
            parse_pipeline(text)

    def test_unknown_policy_lists_registry(self):
        with pytest.raises(ConfigError, match="grid_zoom.*replay"):
            parse_pipeline("grid_zoom:2,bogus:1")

    def test_malformed_specs_rejected(self):
        with pytest.raises(ConfigError, match="empty schedule"):
            parse_pipeline(" , ")
        with pytest.raises(ConfigError, match="integer"):
            parse_pipeline("grid_zoom:x")
        with pytest.raises(ConfigError, match=">= 1"):
            parse_pipeline("grid_zoom:0")
        with pytest.raises(ConfigError, match="max_sources must be"):
            parse_pipeline("replay(max_sources=0)")
        with pytest.raises(ConfigError, match="before the last"):
            parse_pipeline("grid_zoom,replay:2")
        with pytest.raises(ConfigError, match="is not name"):
            parse_pipeline("replay(max_sources=1")
        with pytest.raises(ConfigError, match="integer"):
            parse_pipeline("replay(max_sources=1 0)")

    def test_long_malformed_stage_fails_fast(self):
        # A served request's schedule text is outside input.  A stage
        # pattern that can split this run of spaces many ways backtracks
        # cubically: seconds here, hours at ten times the length.
        started = time.perf_counter()
        with pytest.raises(ConfigError, match="is not name"):
            parse_pipeline("replay(max_sources=" + " " * 2_500 + "x")
        assert time.perf_counter() - started < 1.0

    @given(
        stages=st.lists(
            st.tuples(
                st.sampled_from(sorted(POLICIES)),
                st.integers(1, 4),
                st.integers(1, 4),
            ),
            min_size=1,
            max_size=4,
        ),
        final_cap=st.integers(1, 4) | st.none(),
    )
    def test_text_round_trips(self, stages, final_cap):
        """``describe()`` prints text ``parse_pipeline`` reads back to an
        equal value, and reading it again changes nothing."""
        # Only the final stage may run uncapped.
        caps = [cap for _name, _sources, cap in stages[:-1]] + [final_cap]
        pipeline = PolicyPipeline(
            tuple(
                PipelineStage(
                    ReplayFocus(max_sources=sources)
                    if name == "replay"
                    else POLICIES[name](),
                    rounds=cap,
                )
                for (name, sources, _cap), cap in zip(stages, caps)
            )
        )
        text = pipeline.describe()
        assert parse_pipeline(text) == pipeline
        assert parse_pipeline(text).describe() == text


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
        [r.stage for r in result.rounds],
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

    def test_round_stages_match_round_ownership(self):
        result = pipeline_campaign(workers=1).run()
        assert [r.stage for r in result.rounds] == [
            "zoom", "zoom", "replay", "replay",
        ]

    def test_hand_built_campaign_equals_execute_spec(self):
        # A pipeline, and a bare policy (one uncapped stage under the
        # spec's default budget of 3 rounds).
        for schedule, policy, rounds, stages in (
            (
                "grid_zoom:1,repeat:1",
                parse_pipeline("grid_zoom:1,repeat:1"),
                2,
                ["grid_zoom", "repeat"],
            ),
            (
                "replay(max_sources=3)",
                ReplayFocus(max_sources=3),
                3,
                ["replay"] * 3,
            ),
        ):
            spec = CampaignSpec(
                scenario="philosophers",
                mode="adapt",
                seeds=(0, 1),
                grid=(("chunk", ("1", "2")),),
                schedule=schedule,
            )
            campaign = AdaptiveCampaign(seeds=(0, 1), rounds=rounds, policy=policy)
            campaign.add_grid(
                "philosophers", "philosophers", {"chunk": ["1", "2"]}
            )
            built = campaign.run()
            assert [r.stage for r in built.rounds] == stages
            assert built.rounds == execute_spec(spec).rounds


class TestPipelineDeterminismMatrix:
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


class TestScheduleCli:
    def test_adapt_schedule_prints_stages(self, capsys):
        from repro.cli import main

        assert (
            main(
                [
                    "adapt",
                    "philosophers",
                    "--seeds",
                    "2",
                    "--schedule",
                    "grid_zoom:2,replay(max_sources=1):1",
                    "--grid",
                    "chunk=1,2",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "schedule=grid_zoom:2,replay(max_sources=1):1" in output
        assert "3/3 round(s)" in output  # rounds default to the sum
        assert "stage=grid_zoom" in output
        assert "stage=replay" in output
        assert "replay[" in output

    def test_adapt_schedule_unknown_policy_clean_error(self, capsys):
        from repro.cli import main

        assert (
            main(["adapt", "philosophers", "--schedule", "bogus:2"]) == 2
        )
        output = capsys.readouterr().out
        assert "unknown policy 'bogus'" in output
        assert "grid_zoom" in output

    def test_adapt_uncapped_schedule_runs_three_rounds(self, capsys):
        from repro.cli import main

        assert (
            main(["adapt", "philosophers", "--seeds", "2", "--schedule", "repeat"])
            == 0
        )
        assert "3/3 round(s)" in capsys.readouterr().out

    def test_adapt_uncapped_schedule_with_rounds_runs(self, capsys):
        from repro.cli import main

        assert (
            main(
                [
                    "adapt",
                    "philosophers",
                    "--seeds",
                    "2",
                    "--schedule",
                    "repeat",
                    "--rounds",
                    "2",
                ]
            )
            == 0
        )
        assert "2/2 round(s)" in capsys.readouterr().out
