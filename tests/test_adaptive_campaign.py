"""Tests for the multi-round adaptive campaign engine.

Covers the determinism contract (same seeds + policy => identical
round-by-round variant sets and rows at every ``(workers, batch_size,
warm/cold)`` execution configuration, replay-cell rounds included),
the warm-pool telemetry (``pool_id`` constant across rounds, one spawn
for the whole sequence), and the built-in refine policies as pure
functions of a :class:`RoundObservation`.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.ptest.adaptive import (
    POLICIES,
    AdaptiveCampaign,
    GridZoom,
    Repeat,
    ReplayFocus,
    RoundObservation,
    SuccessiveHalving,
)
from repro.ptest.campaign import CampaignRow, DetectionSample, grid_variants
from repro.ptest.executor import CellExecutor
from repro.ptest.pool import WorkerPool, get_pool, shutdown_pools
from repro.ptest.replay import ReplayRef
from repro.workloads.registry import scenario_ref


@pytest.fixture(autouse=True)
def _deterministic_pool_teardown():
    """Every test starts and ends without lingering shared pools."""
    shutdown_pools()
    yield
    shutdown_pools()


# -- observation builders for policy unit tests --------------------------------


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
    hits: dict[str, int],
    runs: int = 4,
    index: int = 0,
) -> RoundObservation:
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


class TestRoundObservation:
    def test_accessors(self):
        variants = grid_variants(
            "spin", "clean_spin", {"total_steps": [40, 50]}, tasks=2
        )
        observation = make_observation(
            variants, {"spin[total_steps=50]": 3}
        )
        assert observation.total_detections == 3
        assert observation.rate("spin[total_steps=50]") == 0.75
        assert observation.rate("spin[total_steps=40]") == 0.0
        assert observation.best_variant() == "spin[total_steps=50]"
        assert observation.kind_counts() == {"deadlock": 3}
        assert len(observation.detections) == 3
        with pytest.raises(KeyError):
            observation.row("nope")

    def test_best_variant_breaks_ties_toward_earlier_rows(self):
        variants = grid_variants(
            "spin", "clean_spin", {"total_steps": [40, 50]}, tasks=2
        )
        observation = make_observation(
            variants,
            {name: 2 for name in variants},
        )
        assert observation.best_variant() == next(iter(variants))

    def test_best_variant_none_without_detections(self):
        variants = grid_variants(
            "spin", "clean_spin", {"total_steps": [40]}, tasks=2
        )
        assert make_observation(variants, {}).best_variant() is None


class TestGridZoom:
    def grid(self, values, param="total_steps", hits=None):
        variants = grid_variants(
            "spin", "clean_spin", {param: values}, tasks=2
        )
        return variants, make_observation(variants, hits or {})

    def test_narrows_window_around_best_cell(self):
        variants, observation = self.grid(
            [40, 50, 60, 70, 80],
            hits={"spin[total_steps=60]": 4, "spin[total_steps=40]": 1},
        )
        refined = GridZoom().refine(observation)
        assert refined == grid_variants(
            "spin", "clean_spin", {"total_steps": [50, 60, 70]}, tasks=2
        )

    def test_edge_best_cell_clamps_the_window(self):
        variants, observation = self.grid(
            [40, 50, 60, 70, 80], hits={"spin[total_steps=40]": 2}
        )
        refined = GridZoom().refine(observation)
        assert list(refined) == [
            "spin[total_steps=40]",
            "spin[total_steps=50]",
            "spin[total_steps=60]",
        ]

    def test_binary_param_pins_to_winner(self):
        variants = grid_variants(
            "phil", "philosophers", {"ordered": [False, True]}
        )
        observation = make_observation(
            variants, {"phil[ordered=False]": 4}
        )
        refined = GridZoom().refine(observation)
        assert refined == grid_variants(
            "phil", "philosophers", {"ordered": [False]}
        )

    def test_empty_detection_round_terminates(self):
        _variants, observation = self.grid([40, 50, 60])
        assert GridZoom().refine(observation) is None

    def test_fully_pinned_grid_terminates(self):
        variants = {"spin": scenario_ref("clean_spin", total_steps=40)}
        observation = make_observation(variants, {"spin": 1})
        assert GridZoom().refine(observation) is None

    def test_regrid_equal_in_refs_but_not_names_converges(self):
        # CLI grids arrive as raw strings ("ordered=false") while
        # refined rounds label from coerced ref params ("ordered=False");
        # convergence must compare refs, not spellings, or an identical
        # grid reruns once more under new names.
        variants = grid_variants(
            "phil", "philosophers", {"ordered": ["false", "true"]}
        )
        assert list(variants) == [
            "phil[ordered=false]", "phil[ordered=true]",
        ]
        observation = make_observation(
            variants, {name: 2 for name in variants}
        )
        # Zoom restricted to nothing: every param keeps its full list,
        # so the emitted refs equal the observed refs exactly.
        assert GridZoom(params=()).refine(observation) is None

    def test_unnarrowable_grid_terminates(self):
        # Two values, best first: the window is already [best]'s pair's
        # minimum — one zoom pins it, the next refine must converge.
        variants, observation = self.grid(
            [40, 50], hits={"spin[total_steps=40]": 2}
        )
        refined = GridZoom().refine(observation)
        assert list(refined) == ["spin[total_steps=40]"]
        follow_up = make_observation(
            refined, {"spin[total_steps=40]": 2}, index=1
        )
        assert GridZoom().refine(follow_up) is None

    def test_params_restricts_zooming(self):
        variants = grid_variants(
            "spin",
            "clean_spin",
            {"total_steps": [40, 50, 60], "tasks": [2, 3]},
        )
        observation = make_observation(
            variants, {"spin[total_steps=50,tasks=3]": 4}
        )
        refined = GridZoom(params=("total_steps",)).refine(observation)
        # total_steps narrowed (window 2 of 3, best at the window's
        # left edge), tasks kept in full.
        assert refined == grid_variants(
            "spin",
            "clean_spin",
            {"tasks": [2, 3], "total_steps": [50, 60]},
        )

    def test_unknown_zoom_param_rejected(self):
        _variants, observation = self.grid([40, 50], hits={"spin[total_steps=40]": 1})
        with pytest.raises(ConfigError, match="not parameters"):
            GridZoom(params=("nope",)).refine(observation)

    def test_non_ref_variants_rejected(self):
        observation = make_observation(
            {"raw": lambda seed: None}, {"raw": 1}
        )
        with pytest.raises(ConfigError, match="ScenarioRef"):
            GridZoom().refine(observation)

    def test_mixed_scenarios_rejected(self):
        variants = {
            "a": scenario_ref("clean_spin", total_steps=40),
            "b": scenario_ref("philosophers"),
        }
        observation = make_observation(variants, {"a": 1})
        with pytest.raises(ConfigError, match="single-scenario"):
            GridZoom().refine(observation)

    def test_heterogeneous_param_sets_rejected(self):
        # Hand-registered variants whose refs do not form a grid: the
        # winner lacks a parameter the others sweep — a clean error,
        # not a KeyError from inside the narrowing arithmetic.
        variants = {
            "a": scenario_ref("clean_spin", total_steps=40),
            "b": scenario_ref("clean_spin", total_steps=50, tasks=2),
            "c": scenario_ref("clean_spin", total_steps=50, tasks=3),
        }
        observation = make_observation(variants, {"a": 2})
        with pytest.raises(ConfigError, match="same\\s+parameter set"):
            GridZoom().refine(observation)


class TestSuccessiveHalving:
    def test_drops_bottom_half_keeping_original_order(self):
        variants = grid_variants(
            "spin", "clean_spin", {"total_steps": [40, 50, 60, 70, 80]}
        )
        hits = {
            "spin[total_steps=40]": 1,
            "spin[total_steps=50]": 4,
            "spin[total_steps=70]": 3,
        }
        refined = SuccessiveHalving().refine(
            make_observation(variants, hits)
        )
        # ceil(5/2)=3 survivors, re-emitted in original variant order.
        assert list(refined) == [
            "spin[total_steps=40]",
            "spin[total_steps=50]",
            "spin[total_steps=70]",
        ]

    def test_rate_ties_break_toward_earlier_rows(self):
        variants = grid_variants(
            "spin", "clean_spin", {"total_steps": [40, 50, 60, 70]}
        )
        hits = {name: 2 for name in variants}
        refined = SuccessiveHalving().refine(
            make_observation(variants, hits)
        )
        assert list(refined) == list(variants)[:2]

    def test_empty_detection_round_terminates(self):
        variants = grid_variants(
            "spin", "clean_spin", {"total_steps": [40, 50]}
        )
        assert (
            SuccessiveHalving().refine(make_observation(variants, {}))
            is None
        )

    def test_single_variant_terminates(self):
        variants = {"spin": scenario_ref("clean_spin")}
        observation = make_observation(variants, {"spin": 2})
        assert SuccessiveHalving().refine(observation) is None

    def test_min_variants_floor(self):
        variants = grid_variants(
            "spin", "clean_spin", {"total_steps": [40, 50, 60]}
        )
        hits = {name: 1 for name in variants}
        observation = make_observation(variants, hits)
        assert (
            SuccessiveHalving(min_variants=3).refine(observation) is None
        )
        with pytest.raises(ConfigError, match="min_variants"):
            SuccessiveHalving(min_variants=0)


class TestReplayFocus:
    def test_detections_become_replay_cells(self):
        base = scenario_ref("philosophers", chunk=1)
        observation = make_observation(
            {"phil": base}, {"phil": 2}, runs=2
        )
        refined = ReplayFocus(
            ops=("cyclic", "round_robin"), max_sources=2
        ).refine(observation)
        assert list(refined) == [
            "replay[phil@s0/cyclic]",
            "replay[phil@s0/round_robin]",
            "replay[phil@s1/cyclic]",
            "replay[phil@s1/round_robin]",
        ]
        for ref in refined.values():
            assert isinstance(ref, ReplayRef)
            assert ref.scenario == base
            # Re-merged patterns cover exactly the recorded sources.
            assert ref.merged().per_pattern_counts() == {0: 3, 1: 3}

    def test_max_sources_bounds_the_fan_out(self):
        base = scenario_ref("philosophers")
        observation = make_observation({"phil": base}, {"phil": 4})
        refined = ReplayFocus(ops=("cyclic",), max_sources=1).refine(
            observation
        )
        assert list(refined) == ["replay[phil@s0/cyclic]"]

    def test_replaying_a_replay_keeps_the_base_scenario(self):
        base = scenario_ref("philosophers")
        first = ReplayFocus(ops=("cyclic",)).refine(
            make_observation({"phil": base}, {"phil": 1})
        )
        (name,) = first
        second = ReplayFocus(ops=("cyclic",)).refine(
            make_observation(dict(first), {name: 1}, index=1)
        )
        for ref in second.values():
            assert ref.scenario == base

    def test_empty_detection_round_terminates(self):
        observation = make_observation(
            {"phil": scenario_ref("philosophers")}, {}
        )
        assert ReplayFocus().refine(observation) is None

    def test_non_ref_variant_rejected(self):
        observation = make_observation(
            {"raw": lambda seed: None}, {"raw": 1}
        )
        with pytest.raises(ConfigError, match="ReplayRef"):
            ReplayFocus().refine(observation)

    def test_validation(self):
        with pytest.raises(ConfigError, match="merge op"):
            ReplayFocus(ops=())
        with pytest.raises(ConfigError, match="duplicate"):
            # A repeated op would mint colliding variant names and
            # silently overwrite half the replay cells.
            ReplayFocus(ops=("cyclic", "cyclic"))
        with pytest.raises(ConfigError, match="max_sources"):
            ReplayFocus(max_sources=0)


class TestPolicyRegistry:
    def test_builtins_registered(self):
        assert set(POLICIES) == {
            "grid_zoom", "halving", "replay", "repeat",
        }
        for factory in POLICIES.values():
            policy = factory()
            assert hasattr(policy, "refine")


# -- the engine ----------------------------------------------------------------


def philosophers_adaptive(
    policy, rounds=3, seeds=(0, 1), **fabric
) -> AdaptiveCampaign:
    campaign = AdaptiveCampaign(
        seeds=seeds,
        rounds=rounds,
        policy=policy,
        executor=CellExecutor(**fabric),
    )
    campaign.add_grid("phil", "philosophers", {"chunk": [1, 2]})
    return campaign


class TestAdaptiveCampaignEngine:
    def test_config_validation(self):
        with pytest.raises(ConfigError, match="no variants"):
            AdaptiveCampaign(policy=Repeat()).run()
        campaign = philosophers_adaptive(policy=None)
        with pytest.raises(ConfigError, match="refine policy"):
            campaign.run()
        bad_rounds = philosophers_adaptive(Repeat())
        bad_rounds.rounds = 0
        with pytest.raises(ConfigError, match="rounds"):
            bad_rounds.run()
        with pytest.raises(ValueError, match="already registered"):
            philosophers_adaptive(Repeat()).add_scenario(
                "phil[chunk=1]", "philosophers"
            )

    def test_one_round_needs_no_policy(self):
        # The final round is never refined, so rounds=1 runs one plain
        # campaign round without a policy (how a campaign spec runs).
        result = philosophers_adaptive(policy=None, rounds=1).run()
        [observation] = result.rounds
        assert observation.index == 0
        assert [row.runs for row in observation.rows] == [2, 2]
        assert not result.stopped_early

    def test_round_history_and_early_stop(self):
        result = philosophers_adaptive(SuccessiveHalving()).run()
        assert result.variant_history() == [
            ("phil[chunk=1]", "phil[chunk=2]"),
            ("phil[chunk=1]",),
        ]
        # Two variants can only halve once; the round-3 budget is
        # unused and the single-variant round stops the campaign.
        assert result.stopped_early
        assert [r.index for r in result.rounds] == [0, 1]
        assert result.final_rows == result.rounds[-1].rows
        assert all(row.rate == 1.0 for row in result.final_rows)

    def test_round_budget_caps_before_policy_stops(self):
        result = philosophers_adaptive(Repeat(), rounds=2).run()
        assert len(result.rounds) == 2
        assert not result.stopped_early
        assert result.rounds[0].rows == result.rounds[1].rows

    def test_generator_seed_source_survives_every_round(self):
        # seeds is typed Iterable: a generator must not be exhausted by
        # round 1 leaving later rounds with zero cells.
        campaign = AdaptiveCampaign(
            seeds=(seed for seed in range(2)),
            rounds=2,
            policy=Repeat(),
        )
        campaign.add_scenario("phil", "philosophers")
        result = campaign.run()
        assert [r.rows[0].runs for r in result.rounds] == [2, 2]

    def test_empty_detection_round_stops_cleanly(self):
        for policy in (GridZoom(), SuccessiveHalving(), ReplayFocus()):
            campaign = AdaptiveCampaign(
                seeds=(0, 1), rounds=3, policy=policy
            )
            campaign.add_grid(
                "spin", "clean_spin", {"total_steps": [40, 50]}, tasks=2
            )
            result = campaign.run()
            assert len(result.rounds) == 1
            assert result.stopped_early
            assert result.rounds[0].total_detections == 0
            assert result.rounds[0].detections == ()

    def test_detections_feed_the_observation(self):
        result = philosophers_adaptive(Repeat(), rounds=1).run()
        observation = result.rounds[0]
        assert observation.total_detections == 4
        samples = observation.detections
        assert [s.seed for s in samples] == [0, 1, 0, 1]
        assert {s.kind for s in samples} == {"deadlock"}
        assert all(s.merged_description for s in samples)

    def test_capture_per_variant_bounds_samples(self):
        campaign = AdaptiveCampaign(
            seeds=(0, 1, 2),
            rounds=1,
            policy=Repeat(),
            capture_per_variant=1,
        )
        campaign.add_scenario("phil", "philosophers")
        result = campaign.run()
        assert [s.variant for s in result.rounds[0].detections] == ["phil"]
        assert result.rounds[0].row("phil").detections == 3

    def test_user_sink_sees_every_round(self):
        seen = []

        class _Recorder:
            def accept(self, cell, result):
                seen.append((cell.variant, cell.seed))

        result = philosophers_adaptive(SuccessiveHalving()).run(
            sink=_Recorder()
        )
        expected = sum(
            len(r.variants) * 2 for r in result.rounds
        )
        assert len(seen) == expected

    def test_replay_rounds_rerun_detecting_interleavings(self):
        result = philosophers_adaptive(
            ReplayFocus(ops=("cyclic",), max_sources=1), rounds=2
        ).run()
        assert len(result.rounds) == 2
        replay_round = result.rounds[1]
        assert all(
            isinstance(ref, ReplayRef)
            for ref in replay_round.variants.values()
        )
        # The replayed interleaving re-finds the deadlock on every seed.
        assert all(row.rate == 1.0 for row in replay_round.rows)
        assert all(
            row.kinds == ("deadlock",) for row in replay_round.rows
        )


class TestWarmPoolTelemetry:
    def test_pool_id_stable_across_rounds_and_one_spawn(self):
        with WorkerPool(2) as pool:
            campaign = philosophers_adaptive(
                SuccessiveHalving(), workers=2, pool=pool
            )
            result = campaign.run()
            assert len(result.rounds) == 2
            assert result.pool_stable
            assert result.pool_ids[0] is not None
            assert len(set(result.pool_ids)) == 1
            assert pool.spawns == 1  # round 2 paid no pool spawn

    def test_shared_pool_acquired_once_and_reused_across_runs(self):
        campaign = philosophers_adaptive(SuccessiveHalving(), workers=2)
        first = campaign.run()
        second = philosophers_adaptive(
            SuccessiveHalving(), workers=2
        ).run()
        assert first.pool_stable and second.pool_stable
        # Both adaptive runs rode the same warm shared pool.
        assert set(first.pool_ids) == set(second.pool_ids)
        assert get_pool(2).spawns == 1

    def test_serial_rounds_report_no_pool(self):
        result = philosophers_adaptive(SuccessiveHalving()).run()
        assert result.pool_ids == (None, None)
        assert result.pool_stable  # trivially: nothing to churn

    def test_one_cell_round_stays_on_the_pool(self):
        # One seed, halved to one variant: round 2 is a single cell,
        # and it still runs on the pool round 1 used.
        result = philosophers_adaptive(
            SuccessiveHalving(), seeds=(0,), workers=2
        ).run()
        assert [len(r.variants) for r in result.rounds] == [2, 1]
        assert result.pool_ids[0] is not None
        assert result.pool_stable

    def test_callers_executor_is_never_written(self):
        # run() pins the pool and records telemetry on its own copy, so
        # campaigns sharing one executor never see each other's runs.
        executor = CellExecutor(workers=2)
        campaign = AdaptiveCampaign(seeds=(0, 1), executor=executor)
        campaign.add_scenario("phil", "philosophers")
        result = campaign.run()
        assert result.pool_ids[0] is not None
        assert campaign.executor is executor
        assert executor.pool is None
        assert executor.last_pool_id is None
        assert executor.batches_submitted == 0


class TestCrossConfigDeterminism:
    """Same seeds + policy => identical rounds on every execution path.

    The matrix the acceptance criteria name: ``workers in {1, None}``
    (with ``None`` meaning pool-driven parallelism when a pool is
    given) x ``batch_size in {1, None}`` x warm vs fresh pool — with a
    policy whose later rounds contain merged-pattern replay cells.
    """

    POLICY = staticmethod(
        lambda: ReplayFocus(ops=("cyclic", "round_robin"), max_sources=1)
    )

    def run_config(self, workers, batch_size, pool):
        campaign = philosophers_adaptive(
            self.POLICY(),
            rounds=3,
            workers=workers,
            batch_size=batch_size,
            pool=pool,
        )
        return campaign.run()

    @staticmethod
    def fingerprint(result):
        return (
            [dict(r.variants) for r in result.rounds],
            [r.rows for r in result.rounds],
            [r.detections for r in result.rounds],
            result.stopped_early,
        )

    def test_rounds_identical_across_all_configurations(self):
        reference = self.run_config(workers=1, batch_size=None, pool=None)
        baseline = self.fingerprint(reference)
        assert len(reference.rounds) == 3  # replay cells kept detecting
        for batch_size in (1, None):
            serial = self.run_config(
                workers=1, batch_size=batch_size, pool=None
            )
            assert self.fingerprint(serial) == baseline, (
                f"serial batch_size={batch_size}"
            )
            with WorkerPool(2) as pool:
                cold = self.run_config(
                    workers=None, batch_size=batch_size, pool=pool
                )
                warm = self.run_config(
                    workers=None, batch_size=batch_size, pool=pool
                )
            assert self.fingerprint(cold) == baseline, (
                f"cold pool batch_size={batch_size}"
            )
            assert self.fingerprint(warm) == baseline, (
                f"warm pool batch_size={batch_size}"
            )

    def test_explicit_worker_counts_agree_too(self):
        reference = self.fingerprint(
            self.run_config(workers=1, batch_size=None, pool=None)
        )
        parallel = self.run_config(workers=2, batch_size=1, pool=None)
        assert self.fingerprint(parallel) == reference
