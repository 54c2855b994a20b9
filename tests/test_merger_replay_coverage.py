"""Direct coverage for merger order functions and the replay module.

The burst/weighted order functions, ``register_merge_op`` error paths,
``parse_merged_description`` round-trips and :class:`ReplayRef` only
got incidental coverage through the pattern-merger integration tests;
this suite pins their contracts down directly — including the replay
refs' ride through the batch-table wire format.
"""

from __future__ import annotations

import pickle
import random

import pytest

from repro.errors import ConfigError
from repro.ptest.merger import (
    MERGE_OPS,
    PatternMerger,
    _order_burst,
    _order_weighted,
    register_merge_op,
)
from repro.ptest.executor import CellExecutor, CollectSink, WorkCell
from repro.ptest.patterns import TestPattern
from repro.ptest import replay
from repro.ptest.pool import make_batch_table, run_table_batch
from repro.ptest.replay import ReplayRef, parse_merged_description, replay_ref
from repro.workloads.registry import build_scenario, scenario_ref


def make_patterns(symbol_lists) -> list[TestPattern]:
    return [
        TestPattern(pattern_id=index, symbols=tuple(symbols))
        for index, symbols in enumerate(symbol_lists)
    ]


class TestOrderBurst:
    def test_concatenates_whole_patterns_in_order(self):
        patterns = make_patterns([("TC", "TS"), ("TC",), ("TC", "TR", "TD")])
        order = _order_burst(patterns, random.Random(0), chunk=7)
        assert order == [0, 0, 1, 2, 2, 2]

    def test_zero_length_pattern_contributes_nothing(self):
        patterns = make_patterns([(), ("TC", "TD")])
        assert _order_burst(patterns, random.Random(0), chunk=1) == [1, 1]

    def test_merge_through_burst_preserves_sources(self):
        patterns = make_patterns([("TC", "TS"), ("TC", "TR")])
        merged = PatternMerger(op="burst").merge(patterns)
        assert [c.symbol for c in merged] == ["TC", "TS", "TC", "TR"]
        assert merged.per_pattern_counts() == {0: 2, 1: 2}


class TestOrderWeighted:
    def test_zero_weight_patterns_never_chosen(self):
        patterns = make_patterns([(), ("TC", "TS", "TD"), ()])
        order = _order_weighted(patterns, random.Random(3), chunk=1)
        assert order == [1, 1, 1]

    def test_all_empty_patterns_yield_empty_order(self):
        patterns = make_patterns([(), ()])
        assert _order_weighted(patterns, random.Random(0), chunk=1) == []

    def test_equal_weights_consume_both_fully_and_deterministically(self):
        patterns = make_patterns([("TC",) * 4, ("TS",) * 4])
        first = _order_weighted(patterns, random.Random(11), chunk=1)
        second = _order_weighted(patterns, random.Random(11), chunk=1)
        assert first == second
        assert first.count(0) == 4 and first.count(1) == 4

    def test_longer_patterns_weighted_heavier(self):
        # With remaining-length weights, a 9-symbol pattern should win
        # the first pick far more often than a 1-symbol pattern.
        patterns = make_patterns([("TC",) * 9, ("TS",)])
        firsts = [
            _order_weighted(patterns, random.Random(seed), chunk=1)[0]
            for seed in range(100)
        ]
        assert firsts.count(0) > 75

    def test_merge_through_weighted_is_a_valid_interleaving(self):
        patterns = make_patterns([("TC", "TS", "TR"), ("TC", "TD")])
        merged = PatternMerger(op="weighted", seed=5).merge(patterns)
        merged.validate()
        assert merged.per_pattern_counts() == {0: 3, 1: 2}


class TestRegisterMergeOp:
    def test_duplicate_name_rejected(self):
        def order(patterns, rng, chunk):  # pragma: no cover - never runs
            return []

        name = "coverage_test_op"
        register_merge_op(name, order)
        try:
            with pytest.raises(ConfigError, match="already registered"):
                register_merge_op(name, order)
        finally:
            del MERGE_OPS[name]

    def test_builtin_names_are_protected(self):
        with pytest.raises(ConfigError, match="already registered"):
            register_merge_op("burst", _order_burst)


class TestParseMergedDescription:
    @pytest.mark.parametrize(
        "op", ["round_robin", "random", "cyclic", "burst", "weighted"]
    )
    def test_round_trip_through_every_merge_op(self, op):
        patterns = make_patterns(
            [("TC", "TS", "TR"), ("TC", "TD"), ("TC", "TCH", "TS", "TR")]
        )
        merged = PatternMerger(op=op, seed=7, chunk=2).merge(patterns)
        parsed = parse_merged_description(merged.describe())
        assert parsed.describe() == merged.describe()
        assert [c.symbol for c in parsed] == [c.symbol for c in merged]
        assert [p.symbols for p in parsed.sources] == [
            p.symbols for p in patterns
        ]
        # A parsed pattern is re-mergeable: its sources flow straight
        # back into the merger (the ReplayFocus refinement path).
        remerged = PatternMerger(op="round_robin").merge(parsed.sources)
        remerged.validate()

    def test_round_trip_through_merge_symbols(self):
        merged = PatternMerger(op="cyclic", chunk=2).merge_symbols(
            [("TC", "TS"), ("TC", "TR")]
        )
        parsed = parse_merged_description(merged.describe())
        assert parsed.describe() == merged.describe()

    def test_unparseable_token_rejected(self):
        with pytest.raises(ConfigError, match="unparseable"):
            parse_merged_description("TC[p0#1] garbage")
        with pytest.raises(ConfigError, match="unparseable"):
            parse_merged_description("TC[p0]")

    def test_out_of_order_sequence_rejected(self):
        with pytest.raises(ConfigError, match="expected sequence"):
            parse_merged_description("TC[p0#2]")
        with pytest.raises(ConfigError, match="expected sequence"):
            parse_merged_description("TC[p0#1] TS[p0#3]")

    def test_empty_description_parses_to_empty_pattern(self):
        parsed = parse_merged_description("")
        assert len(parsed) == 0 and parsed.sources == []


class TestReplayRef:
    def detecting_description(self) -> str:
        result = build_scenario("philosophers", 0).run()
        assert result.found_bug
        return result.report.merged_description

    def test_value_object_contract(self):
        base = scenario_ref("philosophers")
        description = self.detecting_description()
        ref = ReplayRef(scenario=base, description=description)
        twin = replay_ref(base, description)
        assert ref == twin
        assert hash(ref) == hash(twin)
        assert ref != base
        assert "replay(" in ref.describe()

    def test_pickle_round_trip_reparses_the_pattern(self):
        base = scenario_ref("philosophers")
        ref = replay_ref(base, self.detecting_description())
        loaded = pickle.loads(pickle.dumps(ref))
        assert loaded == ref
        # Unpickling defers the parse to the first merged() call,
        # which parses and memoizes.
        assert loaded._merged is None
        assert loaded.merged().describe() == ref.merged().describe()
        assert loaded._merged is not None

    def test_replay_ref_accepts_live_merged_pattern(self):
        merged = PatternMerger(op="round_robin").merge_symbols(
            [("TC", "TS"), ("TC", "TR")]
        )
        ref = replay_ref(scenario_ref("philosophers"), merged)
        assert ref.description == merged.describe()

    def test_malformed_description_fails_at_construction(self):
        with pytest.raises(ConfigError, match="unparseable"):
            replay_ref(scenario_ref("philosophers"), "not a pattern")

    def test_non_ref_scenario_rejected(self):
        with pytest.raises(ConfigError, match="ScenarioRef"):
            ReplayRef(scenario="philosophers", description="TC[p0#1]")

    def test_non_adaptive_scenario_rejected_when_run(self):
        # philosophers_random builds a RandomTester, which has no
        # merged_override to replay into; in-process and in a pool
        # worker alike, the cell fails with one ConfigError text.
        ref = replay_ref(
            scenario_ref("philosophers_random"), "TC[p0#1]"
        )
        cells = [WorkCell(variant="replay", seed=seed) for seed in (0, 1)]
        messages = []
        for workers in (1, 2):
            executor = CellExecutor(workers=workers)
            with pytest.raises(ConfigError, match="AdaptiveTest") as excinfo:
                executor.run_cells({"replay": ref}, cells, CollectSink())
            messages.append(str(excinfo.value))
        assert messages[0] == messages[1]

    def test_replay_reproduces_the_recorded_detection(self):
        base = scenario_ref("philosophers")
        original = build_scenario("philosophers", 0).run()
        ref = replay_ref(base, original.report.merged_description)
        cells = [WorkCell(variant="replay", seed=seed) for seed in (0, 1)]
        sink = CollectSink()
        CellExecutor(workers=1).run_cells({"replay": ref}, cells, sink)
        for replayed in sink.results:
            assert replayed.found_bug
            assert (
                replayed.report.primary.kind
                is original.report.primary.kind
            )
            assert (
                replayed.report.merged_description
                == original.report.merged_description
            )


class TestReplayRefOnTheWire:
    def test_equal_replay_refs_collapse_to_one_table_entry(self):
        base = scenario_ref("philosophers")
        description = "TC[p0#1] TC[p1#1] TC[p2#1]"
        ref = replay_ref(base, description)
        twin = replay_ref(base, description)
        other = replay_ref(base, "TC[p0#1]")
        table, jobs = make_batch_table([ref, twin, other], [0, 1, 0])
        assert table == (ref, other)
        assert jobs == ((0, 0), (0, 1), (1, 0))

    def test_table_path_caches_parse_and_matches_direct_build(self, monkeypatch):
        # A worker gets the ref unpickled, its pattern not yet parsed:
        # the ref's own memo parses it once for every seed of the table.
        base = scenario_ref("philosophers")
        result = build_scenario("philosophers", 0).run()
        ref = replay_ref(base, result.report.merged_description)
        loaded = pickle.loads(pickle.dumps(ref))
        parse = replay.parse_merged_description
        parses = []

        def counting(text):
            parses.append(text)
            return parse(text)

        monkeypatch.setattr(replay, "parse_merged_description", counting)
        results = run_table_batch((loaded,), ((0, 0), (0, 1)))
        assert parses == [ref.description]
        monkeypatch.undo()
        direct = []
        for seed in (0, 1):
            test = build_scenario("philosophers", seed)
            test.merged_override = ref.merged()
            direct.append(test.run())
        assert results == direct

    def test_replay_and_scenario_entries_coexist_in_the_cache(self):
        # One table carrying a scenario ref and its replay ref runs
        # each entry as its own direct build.
        base = scenario_ref("philosophers")
        detected = build_scenario("philosophers", 0).run()
        ref = replay_ref(base, detected.report.merged_description)
        results = run_table_batch((base, ref), ((0, 0), (1, 0), (0, 1)))
        replayed = build_scenario("philosophers", 0)
        replayed.merged_override = ref.merged()
        direct = [
            build_scenario("philosophers", 0).run(),
            replayed.run(),
            build_scenario("philosophers", 1).run(),
        ]
        assert results == direct
