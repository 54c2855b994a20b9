"""Tests for the baselines and the analysis package."""

from __future__ import annotations

import pytest

from repro.analysis.coverage import (
    pattern_transition_coverage,
    service_pair_coverage,
)
from repro.analysis.metrics import (
    duplication_rate,
    expected_distinct_patterns,
    unique_pattern_fraction,
)
from repro.analysis.profiling import (
    learn_distribution_from_patterns,
    traces_from_result,
)
from repro.baselines.random_tester import RandomTester, uniform_noise_pfa
from repro.baselines.systematic import (
    SystematicExplorer,
    interleavings,
    order_to_merged,
)
from repro.ptest.config import PTestConfig
from repro.ptest.detector import AnomalyKind
from repro.ptest.generator import PatternGenerator
from repro.ptest.patterns import TestPattern
from repro.ptest.pcore_model import PCORE_SERVICES, pcore_pfa
from repro.workloads.scenarios import lifecycle_pfa, philosophers_case2


class TestUniformNoisePFA:
    def test_single_state_uniform(self):
        pfa = uniform_noise_pfa(PCORE_SERVICES)
        assert pfa.num_states == 1
        row = pfa.outgoing(0)
        assert len(row) == 6
        for transition in row:
            assert transition.probability == pytest.approx(1.0 / 6.0)

    def test_never_absorbing(self):
        pfa = uniform_noise_pfa(["a", "b"])
        assert not pfa.is_absorbing(0)

    def test_random_tester_mostly_hits_error_paths(self):
        """Structureless noise wastes most commands on illegal requests —
        the structural argument for the adaptive approach."""
        config = PTestConfig(
            pattern_count=4, pattern_size=8, seed=5, max_ticks=8000
        )
        result = RandomTester(config=config).run()
        assert result.commands_issued > 0
        assert result.commands_failed > result.commands_issued * 0.3


class TestSystematic:
    def _patterns(self):
        return [
            TestPattern(pattern_id=0, symbols=("A1", "A2")),
            TestPattern(pattern_id=1, symbols=("B1", "B2")),
        ]

    def test_interleaving_count_unbounded(self):
        # C(4,2) = 6 interleavings of two length-2 sequences.
        assert len(list(interleavings(self._patterns()))) == 6

    def test_switch_bound_prunes(self):
        bounded = list(interleavings(self._patterns(), switch_bound=1))
        assert [order for order in bounded] == [[0, 0, 1, 1], [1, 1, 0, 0]]

    def test_limit_truncates(self):
        assert len(list(interleavings(self._patterns(), limit=3))) == 3

    def test_orders_are_valid_interleavings(self):
        patterns = self._patterns()
        for order in interleavings(patterns):
            merged = order_to_merged(patterns, order)
            assert len(merged) == 4  # validate() ran inside

    def test_explorer_finds_philosophers_deadlock(self):
        scenario = philosophers_case2(seed=0)
        generator = PatternGenerator.from_pfa(
            lifecycle_pfa(("TC", "TS", "TR")), seed=0
        )
        patterns = generator.generate_batch(3, 3)
        explorer = SystematicExplorer(
            config=scenario.config,
            patterns=patterns,
            programs=dict(scenario.programs),
            switch_bound=4,
            max_runs=30,
        )
        result = explorer.explore()
        assert result.found_bug
        assert result.found.report.primary.kind is AnomalyKind.DEADLOCK

    def test_explorer_truncates_on_budget(self):
        scenario = philosophers_case2(seed=0, ordered=True)
        generator = PatternGenerator.from_pfa(
            lifecycle_pfa(("TC", "TS", "TR")), seed=0
        )
        patterns = generator.generate_batch(3, 3)
        explorer = SystematicExplorer(
            config=scenario.config,
            patterns=patterns,
            programs=dict(scenario.programs),
            max_runs=2,
        )
        result = explorer.explore()
        assert not result.found_bug
        assert result.truncated
        assert result.executed == 2


class TestCoverage:
    def test_full_coverage_of_tiny_pfa(self):
        pfa = lifecycle_pfa(("TC", "TS", "TR"))
        report = pattern_transition_coverage(pfa, [("TC", "TS", "TR")])
        assert report.fraction == 1.0
        assert report.missing == frozenset()

    def test_partial_coverage(self):
        pfa = pcore_pfa()
        report = pattern_transition_coverage(pfa, [("TC", "TD")])
        assert 0.0 < report.fraction < 1.0
        assert (0, "TC") in report.covered

    def test_coverage_grows_with_patterns(self):
        pfa = pcore_pfa()
        generator = PatternGenerator.from_pfa(pfa, seed=0)
        small = pattern_transition_coverage(
            pfa, [p.symbols for p in generator.generate_batch(2, 6)]
        )
        generator2 = PatternGenerator.from_pfa(pfa, seed=0)
        large = pattern_transition_coverage(
            pfa, [p.symbols for p in generator2.generate_batch(50, 6)]
        )
        assert large.fraction >= small.fraction

    def test_service_pair_coverage(self):
        pfa = pcore_pfa()
        report = service_pair_coverage(pfa, [("TC", "TCH", "TD")])
        assert ("TC", "TCH") in report.covered
        assert ("TCH", "TD") in report.covered
        assert report.fraction < 1.0

    def test_off_language_patterns_contribute_prefix_only(self):
        pfa = lifecycle_pfa(("TC", "TS"))
        report = pattern_transition_coverage(pfa, [("TC", "XX")])
        assert (0, "TC") in report.covered
        assert report.fraction == 0.5


class TestMetrics:
    def test_duplication_rate(self):
        patterns = [("a",), ("a",), ("b",), ("a",)]
        assert duplication_rate(patterns) == pytest.approx(0.5)
        assert unique_pattern_fraction(patterns) == pytest.approx(0.5)

    def test_empty_inputs(self):
        assert duplication_rate([]) == 0.0
        assert unique_pattern_fraction([]) == 1.0

    def test_expected_distinct_patterns_analytic(self):
        # Two equally likely outcomes, many draws: expect ~2 distinct.
        value = expected_distinct_patterns([0.5, 0.5], draws=100)
        assert value == pytest.approx(2.0, abs=1e-6)
        assert expected_distinct_patterns([0.5, 0.5], draws=1) == pytest.approx(1.0)


class TestProfiling:
    def test_traces_roundtrip_from_result(self):
        result = philosophers_case2(seed=0).run()
        traces = traces_from_result(result)
        assert traces == [("TC", "TS", "TR")] * 3

    def test_learned_distribution_matches_observed_bias(self):
        generator = PatternGenerator(
            regex="TC ((TCH)* | TS TR (TCH)*)* (TD$ | TY$)",
            alphabet=PCORE_SERVICES,
            seed=3,
        )
        source = PatternGenerator.from_pfa(pcore_pfa(), seed=3)
        traces = [p.symbols for p in source.generate_batch(400, 10)]
        dist = learn_distribution_from_patterns(generator.dfa, traces)
        start = generator.dfa.start
        after_tc = generator.dfa.step(start, "TC")
        # The paper's distribution sends 60% of TC successors to TCH.
        learned_tch = dist.get(after_tc, "TCH")
        assert learned_tch == pytest.approx(0.6, abs=0.1)
