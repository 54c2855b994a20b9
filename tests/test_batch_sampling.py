"""Seeded sampling's per-seed stream contract.

:class:`~repro.automata.sampling.PatternSampler` is the one pattern
walk.  A sampler seeded with ``seed`` draws exactly what the frozen
dict-walking reference (:class:`~repro.automata.reference.
LegacySampler`) draws with the same seed — symbols, states,
log-probability and restarts all compare equal, round after round.
These tests sweep that promise over seed classes (single-word,
multi-word, negative, word-boundary), sizes, both ``on_final`` modes
and multi-round continuations, then cover the plumbing around it: the
compiled rows and their pickles, many interleaved generators sharing
one compiled automaton, and campaign rows staying identical at every
batch size.  Campaign sampling has one path, so ``CellExecutor``
takes no sampling knob and a spec's leftover knob is ignored.
"""

from __future__ import annotations

import math
import pickle
from dataclasses import fields
from itertools import accumulate

import pytest

from repro.automata.compiled import CompiledPFA
from repro.automata.reference import LegacySampler
from repro.automata.sampling import PatternSampler
from repro.errors import ConfigError
from repro.ptest.adaptive import AdaptiveCampaign
from repro.ptest.executor import CellExecutor, CollectSink
from repro.ptest.generator import PatternGenerator
from repro.ptest.pcore_model import pcore_pfa
from repro.ptest.pool import shutdown_pools
from repro.ptest.spec import CampaignSpec

#: One seed per interesting RNG-seeding class: zero, small positive,
#: small negative (a single 32-bit word), the 2**32 word boundary, a
#: two-word value, a negative multi-word value and a three-word value.
SEED_MATRIX = (
    0,
    1,
    -5,
    2**31,
    2**32,
    2**32 + 123,
    -(2**40 + 7),
    (1 << 96) + 17,
)


@pytest.fixture(scope="module")
def compiled() -> CompiledPFA:
    return CompiledPFA.from_pfa(pcore_pfa())


def as_tuple(pattern) -> tuple:
    """A sampled pattern in :meth:`LegacySampler.sample`'s shape."""
    return (
        pattern.symbols,
        pattern.states,
        pattern.log_probability,
        pattern.restarts,
    )


def assert_matches_legacy(drawn, references, size):
    """Each drawn pattern equals its reference walk's next draw."""
    assert [as_tuple(p) for p in drawn] == [
        reference.sample(size) for reference in references
    ]


class TestBitIdentity:
    @pytest.mark.parametrize("on_final", ["stop", "restart"])
    @pytest.mark.parametrize("size", [1, 2, 7, 40])
    def test_matches_scalar_walks(self, compiled, on_final, size):
        samplers = [
            PatternSampler(compiled, seed=seed, on_final=on_final)
            for seed in SEED_MATRIX
        ]
        references = [
            LegacySampler(compiled.source, seed, on_final=on_final)
            for seed in SEED_MATRIX
        ]
        for _ in range(3):
            assert_matches_legacy(
                [sampler.sample(size) for sampler in samplers],
                references,
                size,
            )

    @pytest.mark.parametrize("on_final", ["stop", "restart"])
    def test_sample_many_continues_per_cell_streams(self, compiled, on_final):
        for seed in SEED_MATRIX[:4]:
            sampler = PatternSampler(compiled, seed=seed, on_final=on_final)
            reference = LegacySampler(compiled.source, seed, on_final=on_final)
            many = sampler.sample_many(6, 8)
            assert len(many) == 6
            assert_matches_legacy(many, [reference] * 6, 8)
            # The stream keeps continuing after sample_many, too.
            assert_matches_legacy([sampler.sample(5)], [reference], 5)

    def test_varying_sizes_across_rounds(self, compiled):
        seeds = (2**40 + 1, 3, -(2**33))
        samplers = [PatternSampler(compiled, seed=seed) for seed in seeds]
        references = [LegacySampler(compiled.source, seed) for seed in seeds]
        for size in (1, 12, 3, 40, 2):
            assert_matches_legacy(
                [sampler.sample(size) for sampler in samplers],
                references,
                size,
            )

    def test_accepts_plain_pfa_and_compiles_once(self):
        pfa = pcore_pfa()
        sampler = PatternSampler(pfa, seed=7)
        assert sampler.pfa is pfa
        assert isinstance(sampler.compiled, CompiledPFA)
        shared = PatternSampler(sampler.compiled, seed=7)
        assert shared.compiled is sampler.compiled
        assert shared.pfa is pfa
        for _ in range(3):
            assert as_tuple(sampler.sample(9)) == as_tuple(shared.sample(9))

    def test_none_seeds_run_but_are_not_replayable(self, compiled):
        # seed=None gets fresh entropy: nothing to compare bit-for-bit,
        # but the walks must still be valid prefix walks, and a seeded
        # sampler drawing alongside must stay on its reference stream.
        unseeded = [PatternSampler(compiled, seed=None) for _ in range(2)]
        seeded = PatternSampler(compiled, seed=2**40 + 9)
        reference = LegacySampler(compiled.source, 2**40 + 9)
        for _ in range(2):
            drawn = [sampler.sample(10) for sampler in unseeded]
            assert_matches_legacy([seeded.sample(10)], [reference], 10)
            for pattern in drawn:
                assert 1 <= len(pattern.symbols) <= 10
                walk = compiled.source.walk_probability(pattern.symbols)
                assert walk > 0.0


class TestScalarFallback:
    def test_explicit_request_raises_config_error(self):
        """A spec may still name the removed knobs: a boolean is
        ignored, anything else is a :class:`ConfigError`."""
        plain = CampaignSpec(scenario="clean_spin")
        for name in ("batch_sampling", "merge_batch"):
            assert CampaignSpec(scenario="clean_spin", **{name: True}) == plain
            with pytest.raises(ConfigError, match=f"{name} must be"):
                CampaignSpec(scenario="clean_spin", **{name: "yes"})

    def test_executor_rejects_explicit_batch_request(self):
        with pytest.raises(TypeError, match="batch_sampling"):
            CellExecutor(workers=2, batch_sampling=True)
        with pytest.raises(TypeError, match="merge_batch"):
            CellExecutor(workers=2, merge_batch=True)


class TestPackedRows:
    def test_packing_mirrors_the_compiled_rows(self, compiled):
        """Every compiled row is the source state's symbol-sorted arcs,
        with cumulative sums built left to right and cached logs."""
        pfa = compiled.source
        assert compiled.num_states == pfa.num_states
        assert compiled.start == pfa.start
        for state in range(compiled.num_states):
            arcs = pfa.outgoing(state)
            probabilities = tuple(arc.probability for arc in arcs)
            assert compiled.arc_count(state) == len(arcs)
            assert compiled.is_absorbing(state) == (not arcs)
            assert compiled.symbols[state] == tuple(arc.symbol for arc in arcs)
            assert compiled.targets[state] == tuple(arc.target for arc in arcs)
            assert compiled.cumulative[state] == tuple(accumulate(probabilities))
            assert compiled.log_probs[state] == tuple(
                math.log(p) for p in probabilities
            )

    def test_pickle_excludes_the_packing(self, compiled):
        """A pickle carries exactly the declared fields (no derived
        cache rides along) and the clone walks identically."""
        clone = pickle.loads(pickle.dumps(compiled))
        assert set(vars(clone)) == {field.name for field in fields(CompiledPFA)}
        assert clone == compiled
        assert as_tuple(PatternSampler(clone, seed=3).sample(12)) == as_tuple(
            PatternSampler(compiled, seed=3).sample(12)
        )

    def test_fused_rows_match_per_state_accessors(self, compiled):
        for state in range(compiled.num_states):
            count, symbols, targets, cumulative, log_probs = compiled.rows[state]
            assert count == len(compiled.symbols[state])
            assert symbols == compiled.symbols[state]
            assert targets == compiled.targets[state]
            assert cumulative == compiled.cumulative[state]
            assert log_probs == compiled.log_probs[state]


class TestSharedBatchBridge:
    def test_interleaved_cells_stay_on_their_scalar_streams(self, compiled):
        """Generators sharing one compiled automaton keep independent
        streams, however their draws interleave."""
        seeds = (2**40 + 5, 11, -(2**35))
        generators = [
            PatternGenerator.from_pfa(compiled, seed=seed) for seed in seeds
        ]
        references = [LegacySampler(compiled.source, seed) for seed in seeds]
        # Drain the cells in a deliberately unfair order: cell 0 far
        # ahead, then cell 2, then cell 1 catching up.
        order = [0, 0, 0, 2, 1, 0, 2, 2, 1, 1]
        for cell in order:
            pattern = generators[cell].generate(8, pattern_id=cell)
            symbols, states, log_probability, _ = references[cell].sample(8)
            assert pattern.symbols == symbols
            assert pattern.states == states
            assert pattern.log_probability == log_probability
        assert [generator.generated for generator in generators] == [
            order.count(cell) for cell in range(len(seeds))
        ]


class TestCampaignBitIdentity:
    @pytest.fixture(autouse=True)
    def _fresh_pools(self):
        shutdown_pools()
        yield
        shutdown_pools()

    def _run(self, workers, batch_size=None):
        """The campaign's rows and every run's result, in cell order."""
        campaign = AdaptiveCampaign(
            seeds=(0, 1, 2),
            executor=CellExecutor(workers=workers, batch_size=batch_size),
        )
        campaign.add_scenario("spin", "clean_spin", tasks=2, total_steps=40)
        campaign.add_scenario("phil", "philosophers", op="cyclic")
        runs = CollectSink()
        return campaign.run(sink=runs).final_rows, runs

    def test_rows_identical_at_every_batch_setting(self):
        rows, baseline = self._run(workers=1)
        for workers, batch_size in [(2, None), (2, 1), (2, 3)]:
            actual_rows, runs = self._run(workers, batch_size)
            assert actual_rows == rows, (
                f"rows diverged at workers={workers}, batch_size={batch_size}"
            )
            assert runs.cells == baseline.cells
            expected, actual = baseline.results, runs.results
            assert [r.patterns for r in actual] == [r.patterns for r in expected]
            assert [r.found_bug for r in actual] == [r.found_bug for r in expected]
            assert [[a.kind for a in r.anomalies] for r in actual] == [
                [a.kind for a in r.anomalies] for r in expected
            ]
