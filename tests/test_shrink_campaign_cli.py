"""Tests for pattern shrinking, campaigns and the CLI."""

from __future__ import annotations

import pytest

from repro.ptest.adaptive import AdaptiveCampaign
from repro.ptest.detector import AnomalyKind
from repro.ptest.generator import PatternGenerator
from repro.ptest.harness import AdaptiveTest
from repro.ptest.merger import PatternMerger
from repro.ptest.patterns import TestPattern
from repro.ptest.pool import MAX_WORKERS
from repro.ptest.shrink import PatternShrinker, truncate_merged
from repro.workloads.scenarios import lifecycle_pfa, philosophers_case2

#: A ``--workers`` value one past the cap; tests never pass a larger one.
OVER_CAP = str(MAX_WORKERS + 1)


def make_long_philosopher_merge(seed: int = 0):
    """A deliberately padded failing pattern for shrinking."""
    generator = PatternGenerator.from_pfa(
        lifecycle_pfa(("TC", "TS", "TR", "TS", "TR", "TS", "TR")), seed=seed
    )
    patterns = generator.generate_batch(3, 7)
    return PatternMerger(op="cyclic", chunk=2, seed=seed).merge(patterns)


class TestTruncateMerged:
    def test_keeps_prefixes_in_order(self):
        patterns = [
            TestPattern(pattern_id=0, symbols=("A1", "A2", "A3")),
            TestPattern(pattern_id=1, symbols=("B1", "B2")),
        ]
        merged = PatternMerger(op="round_robin").merge(patterns)
        cut = truncate_merged(merged, {0: 2, 1: 1})
        assert [c.symbol for c in cut] == ["A1", "B1", "A2"]

    def test_zero_keep_drops_pair_entirely(self):
        patterns = [
            TestPattern(pattern_id=0, symbols=("A1",)),
            TestPattern(pattern_id=1, symbols=("B1",)),
        ]
        merged = PatternMerger(op="round_robin").merge(patterns)
        cut = truncate_merged(merged, {0: 0, 1: 1})
        assert [c.symbol for c in cut] == ["B1"]

    def test_result_validates(self):
        merged = make_long_philosopher_merge()
        cut = truncate_merged(merged, {0: 3, 1: 2, 2: 1})
        assert len(cut) == 6  # validate() ran inside


class TestShrinker:
    def test_shrinks_philosopher_deadlock(self):
        scenario = philosophers_case2(seed=0)
        merged = make_long_philosopher_merge()
        # Confirm the padded pattern fails first.
        result = AdaptiveTest(
            config=scenario.config,
            programs=dict(scenario.programs),
            merged_override=merged,
        ).run()
        assert result.found_bug
        shrinker = PatternShrinker(
            config=scenario.config,
            programs=dict(scenario.programs),
            target=AnomalyKind.DEADLOCK,
        )
        shrunk = shrinker.shrink(merged)
        assert shrunk.shrunk_length < shrunk.original_length
        assert shrunk.reduction > 0.5
        # The minimal pattern still triggers the deadlock.
        confirm = AdaptiveTest(
            config=scenario.config,
            programs=dict(scenario.programs),
            merged_override=shrunk.shrunk,
        ).run()
        assert confirm.found_bug
        assert confirm.report.primary.kind is AnomalyKind.DEADLOCK

    def test_shrink_is_one_minimal(self):
        scenario = philosophers_case2(seed=0)
        merged = make_long_philosopher_merge()
        shrinker = PatternShrinker(
            config=scenario.config,
            programs=dict(scenario.programs),
            target=AnomalyKind.DEADLOCK,
        )
        shrunk = shrinker.shrink(merged).shrunk
        # Removing the last command of any pair must break the repro.
        keep = {p.pattern_id: len(p) for p in shrunk.sources}
        for pair_id in keep:
            if keep[pair_id] == 0:
                continue
            candidate = dict(keep)
            candidate[pair_id] -= 1
            result = AdaptiveTest(
                config=scenario.config,
                programs=dict(scenario.programs),
                merged_override=truncate_merged(shrunk, candidate),
            ).run()
            still_deadlocks = (
                result.found_bug
                and result.report.primary.kind is AnomalyKind.DEADLOCK
            )
            assert not still_deadlocks

    def test_budget_respected(self):
        scenario = philosophers_case2(seed=0)
        merged = make_long_philosopher_merge()
        shrinker = PatternShrinker(
            config=scenario.config,
            programs=dict(scenario.programs),
            target=AnomalyKind.DEADLOCK,
            max_runs=3,
        )
        shrinker.shrink(merged)
        assert shrinker.runs_executed <= 3


class TestCampaign:
    def test_campaign_aggregates(self):
        campaign = AdaptiveCampaign(seeds=(0, 1))
        campaign.add_scenario("buggy", "philosophers")
        campaign.add_scenario("fixed", "philosophers", ordered=True)
        observation = campaign.run().rounds[0]
        rows = {row.variant: row for row in observation.rows}
        assert rows["buggy"].rate == 1.0
        assert rows["fixed"].rate == 0.0
        assert rows["buggy"].kinds == ("deadlock",)
        assert observation.kind_counts() == {"deadlock": 2}

    def test_generator_seeds_are_normalised_at_construction(self):
        # A generator is read once, when the campaign is built: every
        # variant runs every seed, and so does a second run.
        campaign = AdaptiveCampaign(seeds=(seed for seed in range(3)))
        campaign.add_scenario("a", "clean_spin", tasks=2, total_steps=40)
        campaign.add_scenario("b", "clean_spin", tasks=3, total_steps=40)
        assert campaign.seeds == (0, 1, 2)
        for _ in range(2):
            assert [row.runs for row in campaign.run().final_rows] == [3, 3]

    def test_duplicate_variant_rejected(self):
        campaign = AdaptiveCampaign()
        campaign.add_variant("x", lambda seed: philosophers_case2(seed=seed))
        with pytest.raises(ValueError):
            campaign.add_variant("x", lambda seed: philosophers_case2(seed=seed))

    def test_campaign_scenario_variants(self):
        campaign = AdaptiveCampaign(seeds=(0, 1))
        campaign.add_scenario("buggy", "philosophers", op="cyclic")
        campaign.add_scenario("fixed", "philosophers", ordered=True)
        rows = {row.variant: row for row in campaign.run().final_rows}
        assert rows["buggy"].rate == 1.0
        assert rows["fixed"].rate == 0.0


def _expected_column(output: str) -> dict[str, str]:
    """Variant -> ``expected`` cell of the campaign table in ``output``."""
    lines = output.splitlines()
    header = [cell.strip() for cell in lines[1].split("|")]
    rows = [[cell.strip() for cell in line.split("|")] for line in lines[3:]]
    column = header.index("expected")
    return {row[0]: row[column] for row in rows if len(row) == len(header)}


class TestCli:
    def test_philosophers_returns_failure_code_on_bug(self, capsys):
        from repro.cli import main

        assert main(["run", "philosophers", "--seed", "0"]) == 1
        assert "deadlock" in capsys.readouterr().out

    def test_philosophers_ordered_control_clean(self, capsys):
        from repro.cli import main

        assert main(["run", "philosophers", "-p", "ordered=true"]) == 0

    def test_fig1_bad_order(self, capsys):
        from repro.cli import main

        assert main(["fig1", "--order", "bad"]) == 1
        assert "unreachable" in capsys.readouterr().out

    def test_fig1_good_order(self, capsys):
        from repro.cli import main

        assert main(["fig1", "--order", "good"]) == 0

    def test_run_healthy(self, capsys):
        from repro.cli import main

        assert main(["run", "-n", "2", "-s", "4", "--seed", "1"]) == 0
        assert "no anomaly" in capsys.readouterr().out

    def test_run_scenario_by_name(self, capsys):
        from repro.cli import main

        assert main(["run", "philosophers", "-p", "op=cyclic"]) == 1
        assert "deadlock" in capsys.readouterr().out

    def test_run_scenario_param_override(self, capsys):
        from repro.cli import main

        assert main(["run", "philosophers", "-p", "ordered=true"]) == 0
        assert "no anomaly" in capsys.readouterr().out

    def test_run_unknown_scenario(self, capsys):
        from repro.cli import main

        assert main(["run", "no_such_scenario"]) == 2
        assert "unknown scenario" in capsys.readouterr().out

    def test_run_malformed_param(self, capsys):
        from repro.cli import main

        assert main(["run", "philosophers", "-p", "ordered"]) == 2
        assert "key=value" in capsys.readouterr().out

    def test_run_scenario_rejects_explicit_form_flags(self, capsys):
        from repro.cli import main

        assert main(["run", "philosophers", "--max-ticks", "100"]) == 2
        assert "--param" in capsys.readouterr().out

    def test_run_explicit_form_rejects_param(self, capsys):
        from repro.cli import main

        assert main(["run", "-n", "2", "-p", "op=cyclic"]) == 2
        assert "scenario name" in capsys.readouterr().out

    def test_campaign_bad_batch_size_clean_error(self, capsys):
        from repro.cli import main

        assert (
            main(
                [
                    "campaign",
                    "philosophers",
                    "--seeds",
                    "2",
                    "--workers",
                    "2",
                    "--batch-size",
                    "0",
                ]
            )
            == 2
        )
        assert "batch_size" in capsys.readouterr().out

    def test_run_builder_rejection_exits_2_not_1(self, capsys):
        # Exit 1 means "bug found"; an out-of-range param must not
        # masquerade as one.
        from repro.cli import main

        assert main(["run", "barrier", "-p", "parties=1"]) == 2
        assert "parties must be >= 2" in capsys.readouterr().out

    @pytest.mark.parametrize(
        ("argv", "message"),
        [
            (["run", "-n", "0"], "pattern_count must be >= 1"),
            (["run", "-n", "99"], "exceeds the kernel's max_tasks=16"),
            (["run", "-s", "0"], "pattern_size must be >= 1"),
            (["run", "--max-ticks", "0"], "max_ticks must be >= 1"),
            (["bench", "--quick", "--workers", "0"], "workers must be >= 1"),
            (["serve", "--port", "-1"], "port must be in 0-65535"),
            (["serve", "--port", "70000"], "port must be in 0-65535"),
            (
                ["submit", "clean_spin", "--port", "70000"],
                "port must be in 0-65535",
            ),
            (
                ["submit", "clean_spin", "--port", "1", "--timeout", "-1"],
                "timeout must be a positive, finite number",
            ),
            (
                ["submit", "clean_spin", "--port", "1", "--timeout", "nan"],
                "timeout must be a positive, finite number",
            ),
            (
                ["submit", "clean_spin", "--port", "1", "--timeout", "inf"],
                "timeout must be a positive, finite number",
            ),
            # One seed: even past the cap no pool would start.
            (
                ["campaign", "clean_spin", "--seeds", "1", "--workers", OVER_CAP],
                f"workers must be <= {MAX_WORKERS}",
            ),
            (
                ["adapt", "clean_spin", "--seeds", "1", "--workers", OVER_CAP],
                f"workers must be <= {MAX_WORKERS}",
            ),
            (
                ["submit", "clean_spin", "--port", "1", "--workers", OVER_CAP],
                f"workers must be <= {MAX_WORKERS}",
            ),
            (
                ["bench", "--quick", "--workers", OVER_CAP],
                f"workers must be <= {MAX_WORKERS}",
            ),
        ],
        ids=[
            "patterns-0",
            "patterns-99",
            "size-0",
            "max-ticks-0",
            "bench-workers-0",
            "serve-port-negative",
            "serve-port-70000",
            "submit-port-70000",
            "submit-timeout-negative",
            "submit-timeout-nan",
            "submit-timeout-inf",
            "campaign-workers-over-cap",
            "adapt-workers-over-cap",
            "submit-workers-over-cap",
            "bench-workers-over-cap",
        ],
    )
    def test_bad_config_flag_prints_one_line_and_exits_2(self, capsys, argv, message):
        from repro.cli import main

        assert main(argv) == 2
        output = capsys.readouterr().out
        assert output.count("\n") == 1 and message in output

    def test_campaign_repeated_grid_key_clean_error(self, capsys):
        from repro.cli import main

        assert (
            main(
                [
                    "campaign",
                    "philosophers",
                    "-g",
                    "op=cyclic",
                    "-g",
                    "op=burst",
                ]
            )
            == 2
        )
        assert "more than once" in capsys.readouterr().out

    def test_campaign_repeated_grid_value_clean_error(self, capsys):
        from repro.cli import main

        assert (
            main(["campaign", "philosophers", "-g", "op=cyclic,cyclic"]) == 2
        )
        assert "already registered" in capsys.readouterr().out

    def test_campaign_fixed_and_grid_overlap_clean_error(self, capsys):
        from repro.cli import main

        assert (
            main(
                [
                    "campaign",
                    "philosophers",
                    "-p",
                    "ordered=true",
                    "-g",
                    "ordered=false,true",
                ]
            )
            == 2
        )
        assert "both fixed and in the grid" in capsys.readouterr().out

    def test_scenarios_lists_registry(self, capsys):
        from repro.cli import main

        assert main(["scenarios"]) == 0
        output = capsys.readouterr().out
        for name in ("philosophers", "barrier", "pipeline", "clean_spin"):
            assert name in output

    def test_scenarios_show_the_expectation_at_defaults(self, capsys):
        from repro.cli import main
        from repro.workloads.registry import REGISTRY

        assert main(["scenarios"]) == 0
        expected, name = {}, None
        for line in capsys.readouterr().out.splitlines():
            if not line.startswith(" "):
                name = line.split("(", 1)[0]
            elif line.startswith("    expected at defaults: "):
                expected[name] = line.rsplit(" ", 1)[1]
        assert len(expected) == len(REGISTRY.names())
        assert expected["quicksort_stress"] == "crash"
        assert expected["philosophers"] == "deadlock"
        assert expected["priority_starvation"] == "starvation"
        assert expected["producer_consumer"] == "none"
        assert expected["healthy_control"] == "none"

    def test_campaign_table_shows_each_rows_expectation(self, capsys):
        from repro.cli import main

        argv = ["campaign", "producer_consumer", "-g", "faulty=false,true"]
        assert main(argv + ["--seeds", "2"]) == 0
        assert _expected_column(capsys.readouterr().out) == {
            "producer_consumer[faulty=false]": "none",
            "producer_consumer[faulty=true]": "starvation",
        }

    def test_campaign_table_marks_a_scenario_without_expectation(
        self, capsys
    ):
        from repro.cli import main
        from repro.workloads.registry import REGISTRY, build_scenario

        REGISTRY.register(
            "cli_no_expectation",
            lambda seed: build_scenario("clean_spin", seed, total_steps=40),
        )
        try:
            argv = ["campaign", "cli_no_expectation", "--seeds", "1"]
            assert main(argv) == 0
        finally:
            REGISTRY._specs.pop("cli_no_expectation")
            REGISTRY.version += 1
        output = capsys.readouterr().out
        assert _expected_column(output) == {"cli_no_expectation": "-"}

    def test_campaign_table_of_a_scenario_only_a_server_knows(self, capsys):
        # `repro submit` prints rows a server produced; a scenario
        # registered only in the server process has no local entry.
        from repro.cli import _print_campaign_outcome
        from repro.ptest.campaign import CampaignRow
        from repro.ptest.adaptive import RoundObservation
        from repro.ptest.spec import CampaignSpec, SpecOutcome

        spec = CampaignSpec(scenario="only_on_the_server", seeds=(0,))
        row = CampaignRow("only_on_the_server", 1, 0, (), 0.0, 2.0)
        rounds = (RoundObservation(index=0, rows=(row,), detections=()),)
        _print_campaign_outcome(
            spec, SpecOutcome(rounds, stopped_early=False, spec=spec)
        )
        output = capsys.readouterr().out
        assert _expected_column(output) == {"only_on_the_server": "-"}

    @pytest.mark.parametrize(
        "command", ["sweep", "faults", "stress", "philosophers"]
    )
    def test_removed_commands_are_unknown(self, capsys, command):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main([command])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_campaign_command_with_grid(self, capsys):
        from repro.cli import main

        assert (
            main(
                [
                    "campaign",
                    "philosophers",
                    "--seeds",
                    "2",
                    "--grid",
                    "ordered=false,true",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "philosophers[ordered=false]" in output
        assert "philosophers[ordered=true]" in output
        assert "deadlock" in output

    def test_campaign_unknown_scenario(self, capsys):
        from repro.cli import main

        assert main(["campaign", "no_such_scenario"]) == 2

    def test_adapt_grid_zoom_narrows_rounds(self, capsys):
        from repro.cli import main

        assert (
            main(
                [
                    "adapt",
                    "philosophers",
                    "--seeds",
                    "2",
                    "--rounds",
                    "2",
                    "--grid",
                    "ordered=false,true",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "policy=grid_zoom" in output
        assert "-- round 1" in output and "-- round 2" in output
        # Round 1 sweeps both halves; the zoom pins the buggy one.
        assert "philosophers[ordered=true]" in output
        assert "philosophers[ordered=false]" in output
        assert "deadlock" in output

    def test_adapt_replay_policy_emits_replay_cells(self, capsys):
        from repro.cli import main

        assert (
            main(
                [
                    "adapt",
                    "philosophers",
                    "--seeds",
                    "2",
                    "--rounds",
                    "2",
                    "--policy",
                    "replay",
                    "--max-sources",
                    "1",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "policy=replay" in output
        assert "replay[philosophers@s0/cyclic]" in output

    def test_adapt_unknown_scenario_clean_error(self, capsys):
        from repro.cli import main

        assert main(["adapt", "no_such_scenario"]) == 2
        assert "unknown scenario" in capsys.readouterr().out

    def test_adapt_bad_rounds_clean_error(self, capsys):
        from repro.cli import main

        assert main(["adapt", "philosophers", "--rounds", "0"]) == 2
        assert "rounds" in capsys.readouterr().out

    def test_adapt_unknown_policy_exits_listing_choices(self, capsys):
        from repro.cli import main

        # argparse rejects the name up front: clean usage error (exit
        # 2) naming every registered policy, never a KeyError traceback.
        with pytest.raises(SystemExit) as excinfo:
            main(["adapt", "philosophers", "--policy", "nope"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        for name in ("grid_zoom", "halving", "replay", "repeat"):
            assert name in err

    def test_adapt_unknown_policy_via_embedding_call(self, capsys):
        # Embedders invoking the handler with an unvalidated namespace
        # (bypassing argparse choices) get the ConfigError path: exit 2
        # and the POLICIES keys listed, not a KeyError.
        import argparse

        from repro.cli import _cmd_adapt

        args = argparse.Namespace(
            scenario="philosophers",
            rounds=None,
            policy="nope",
            pipeline=None,
            max_sources=2,
            seeds=2,
            workers=1,
            batch_size=None,
            param=None,
            grid=None,
            keep_pool=False,
        )
        assert _cmd_adapt(args) == 2
        output = capsys.readouterr().out
        assert "unknown policy 'nope'" in output
        assert "grid_zoom" in output and "replay" in output

    def test_adapt_policy_and_pipeline_mutually_exclusive(self, capsys):
        from repro.cli import main

        assert (
            main(
                [
                    "adapt",
                    "philosophers",
                    "--policy",
                    "repeat",
                    "--pipeline",
                    "repeat:2",
                ]
            )
            == 2
        )
        assert "mutually exclusive" in capsys.readouterr().out

    def test_campaign_shuts_shared_pool_down_by_default(self, capsys):
        from repro.cli import main
        from repro.ptest.pool import active_pools, shutdown_pools

        shutdown_pools()  # isolate from pools earlier tests left warm
        assert (
            main(
                [
                    "campaign",
                    "clean_spin",
                    "--seeds",
                    "3",
                    "--workers",
                    "2",
                    "-p",
                    "total_steps=40",
                ]
            )
            == 0
        )
        assert active_pools() == []  # deterministic CLI teardown

    def test_campaign_keep_pool_leaves_workers_warm(self, capsys):
        from repro.cli import main
        from repro.ptest.pool import active_pools, shutdown_pools

        shutdown_pools()  # isolate from pools earlier tests left warm
        try:
            assert (
                main(
                    [
                        "campaign",
                        "clean_spin",
                        "--seeds",
                        "3",
                        "--workers",
                        "2",
                        "-p",
                        "total_steps=40",
                        "--keep-pool",
                    ]
                )
                == 0
            )
            warm = active_pools()
            assert len(warm) == 1 and not warm[0].closed
        finally:
            shutdown_pools()

    def test_bench_forwards_flags_to_the_suite(self, capsys, monkeypatch):
        import repro.cli as cli

        calls = []
        monkeypatch.setattr(
            cli, "_load_bench_main", lambda: lambda argv: calls.append(argv) or 0
        )
        assert cli.main(["bench", "--quick"]) == 0
        assert cli.main(["bench", "--workers", "3"]) == 0
        assert calls == [
            ["--quick", "--workers", "4"],
            ["--workers", "3"],
        ]

    def test_bench_locates_the_real_suite(self):
        # The loader must resolve benchmarks/bench_perf_hotpaths.py in
        # the source checkout (the suite itself runs in CI, not here).
        from repro.cli import _load_bench_main

        assert callable(_load_bench_main())

    def test_bench_missing_suite_is_a_clean_error(self, capsys, monkeypatch):
        import repro.cli as cli

        monkeypatch.setattr(cli, "_load_bench_main", lambda: None)
        assert cli.main(["bench"]) == 2
        assert "not found" in capsys.readouterr().out
