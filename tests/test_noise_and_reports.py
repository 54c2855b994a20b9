"""Tests for committer noise injection and text reporting."""

from __future__ import annotations

import pytest

from repro.analysis.text_report import render_campaign, render_run, render_table
from repro.ptest.adaptive import AdaptiveCampaign
from repro.ptest.config import PTestConfig
from repro.ptest.harness import run_adaptive_test
from repro.workloads.scenarios import philosophers_case2


class TestNoiseInjection:
    def test_noise_slows_the_run(self):
        quiet = run_adaptive_test(
            PTestConfig(pattern_count=3, pattern_size=6, seed=4, max_ticks=20_000)
        )
        noisy = run_adaptive_test(
            PTestConfig(
                pattern_count=3,
                pattern_size=6,
                seed=4,
                max_ticks=20_000,
                noise_ticks=20,
            )
        )
        assert noisy.commands_issued == quiet.commands_issued
        assert noisy.ticks > quiet.ticks

    def test_noise_is_seed_deterministic(self):
        config = PTestConfig(
            pattern_count=3, pattern_size=6, seed=4, max_ticks=20_000, noise_ticks=10
        )
        assert run_adaptive_test(config).ticks == run_adaptive_test(config).ticks

    def test_noise_does_not_change_pattern_semantics(self):
        config = PTestConfig(
            pattern_count=3,
            pattern_size=6,
            seed=4,
            max_ticks=20_000,
            noise_ticks=15,
        )
        result = run_adaptive_test(config)
        from repro.ptest.pcore_model import pcore_pfa

        pfa = pcore_pfa()
        for pattern in result.patterns:
            assert pfa.walk_probability(pattern) > 0.0

    def test_negative_noise_rejected(self):
        with pytest.raises(Exception):
            PTestConfig(noise_ticks=-1)


class TestTextReport:
    def test_render_table_plain(self):
        text = render_table(["a", "bb"], [(1, 2), (30, 4)])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "a" in lines[0] and "bb" in lines[0]
        assert set(lines[1]) <= {"-", "+"}

    def test_render_table_markdown(self):
        text = render_table(["a", "b"], [(1, 2)], markdown=True)
        assert text.startswith("| a")
        assert "|--" in text.splitlines()[1]

    def test_render_run_healthy(self):
        result = run_adaptive_test(
            PTestConfig(pattern_count=2, pattern_size=4, seed=1, max_ticks=8_000)
        )
        text = render_run(result)
        assert "no anomaly" in text
        assert "commands issued" in text
        assert "TC" in text

    def test_render_run_with_bug(self):
        result = philosophers_case2(seed=0).run()
        text = render_run(result)
        assert "deadlock" in text
        assert "bug report" in text

    def test_render_campaign(self):
        campaign = AdaptiveCampaign(seeds=(0,))
        campaign.add_scenario("buggy", "philosophers")
        rows = campaign.run().final_rows
        text = render_campaign(rows)
        assert "buggy" in text
        assert "1.00" in text

    def test_render_campaign_markdown(self):
        campaign = AdaptiveCampaign(seeds=(0,))
        campaign.add_scenario("x", "philosophers", ordered=True)
        text = render_campaign(campaign.run().final_rows, markdown=True)
        assert text.startswith("| variant")
