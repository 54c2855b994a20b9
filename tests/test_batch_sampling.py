"""The vectorized batch sampler's bit-identity contract.

:class:`~repro.automata.batch.BatchSampler` promises that cell ``i``
of every draw equals ``PatternSampler(pfa, seed=seeds[i])`` having
drawn the same sequence — symbols, states, log-probability and
restarts all compare equal — on the numpy fast path and the scalar
fallback alike.  These tests sweep that promise over seed classes
(single-word, multi-word, negative, word-boundary), sizes, both
``on_final`` modes and multi-round continuations, then cover the
plumbing around it: the cached :func:`packed_rows` packing, the
``REPRO_NO_NUMPY`` escape hatch, the explicit-request
:class:`ConfigError`, the shared-batch generator bridge, and campaign
rows staying identical at every batch size.  Campaign sampling has one
path, so ``Campaign``/``CellExecutor`` take no sampling knob.
"""

from __future__ import annotations

import pickle

import pytest

from repro.automata.batch import (
    NO_NUMPY_ENV,
    BatchSampler,
    numpy_available,
    numpy_or_none,
    packed_rows,
    require_numpy,
)
from repro.automata.compiled import CompiledPFA
from repro.automata.sampling import PatternSampler
from repro.errors import ConfigError
from repro.ptest.campaign import Campaign
from repro.ptest.executor import CellExecutor
from repro.ptest.generator import SharedPatternBatch
from repro.ptest.pcore_model import pcore_pfa
from repro.ptest.pool import shutdown_pools

#: One seed per interesting RNG-seeding class: zero, small positive,
#: small negative (single 32-bit word, CPython-side draws), the 2**32
#: word boundary, a two-word value, a negative multi-word value and a
#: three-word value (numpy ``RandomState`` draws where available).
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


def assert_patterns_equal(actual, expected):
    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        assert got.symbols == want.symbols
        assert got.states == want.states
        assert got.log_probability == want.log_probability
        assert got.restarts == want.restarts


class TestBitIdentity:
    @pytest.mark.parametrize("on_final", ["stop", "restart"])
    @pytest.mark.parametrize("size", [1, 2, 7, 40])
    def test_matches_scalar_walks(self, compiled, on_final, size):
        scalars = [
            PatternSampler(compiled, seed=seed, on_final=on_final)
            for seed in SEED_MATRIX
        ]
        batch = BatchSampler(compiled, SEED_MATRIX, on_final=on_final)
        for _ in range(3):
            assert_patterns_equal(
                batch.sample(size),
                [sampler.sample(size) for sampler in scalars],
            )

    @pytest.mark.parametrize("on_final", ["stop", "restart"])
    def test_sample_many_continues_per_cell_streams(
        self, compiled, on_final
    ):
        seeds = SEED_MATRIX[:4]
        scalars = [
            PatternSampler(compiled, seed=seed, on_final=on_final)
            for seed in seeds
        ]
        batch = BatchSampler(compiled, seeds, on_final=on_final)
        many = batch.sample_many(6, 8)
        assert len(many) == len(seeds)
        for cell, sampler in enumerate(scalars):
            assert_patterns_equal(many[cell], sampler.sample_many(6, 8))
        # The streams keep continuing after sample_many, too.
        assert_patterns_equal(
            batch.sample(5), [sampler.sample(5) for sampler in scalars]
        )

    def test_varying_sizes_across_rounds(self, compiled):
        seeds = (2**40 + 1, 3, -(2**33))
        scalars = [PatternSampler(compiled, seed=seed) for seed in seeds]
        batch = BatchSampler(compiled, seeds)
        for size in (1, 12, 3, 40, 2):
            assert_patterns_equal(
                batch.sample(size),
                [sampler.sample(size) for sampler in scalars],
            )

    def test_accepts_plain_pfa_and_compiles_once(self):
        pfa = pcore_pfa()
        batch = BatchSampler(pfa, (7, 8))
        scalar = PatternSampler(batch.compiled, seed=7)
        assert_patterns_equal([batch.sample(9)[0]], [scalar.sample(9)])

    def test_none_seeds_run_but_are_not_replayable(self, compiled):
        # None cells get fresh entropy (exactly like the scalar
        # sampler's seed=None): nothing to compare bit-for-bit, but the
        # walks must still be valid prefix walks, and the *seeded*
        # cells in the same batch must stay on their scalar streams.
        batch = BatchSampler(compiled, (None, 2**40 + 9, None))
        scalar = PatternSampler(compiled, seed=2**40 + 9)
        for _ in range(2):
            drawn = batch.sample(10)
            assert_patterns_equal([drawn[1]], [scalar.sample(10)])
            for pattern in drawn:
                assert 1 <= len(pattern.symbols) <= 10
                walk = compiled.source.walk_probability(pattern.symbols)
                assert walk > 0.0


class TestScalarFallback:
    def test_env_var_forces_scalar_path(self, compiled, monkeypatch):
        monkeypatch.setenv(NO_NUMPY_ENV, "1")
        assert numpy_or_none() is None
        assert not numpy_available()
        batch = BatchSampler(compiled, SEED_MATRIX)
        assert batch.used_numpy is False
        scalars = [
            PatternSampler(compiled, seed=seed) for seed in SEED_MATRIX
        ]
        assert_patterns_equal(
            batch.sample(11), [sampler.sample(11) for sampler in scalars]
        )

    def test_env_var_zero_means_enabled(self, monkeypatch):
        monkeypatch.setenv(NO_NUMPY_ENV, "0")
        # "0" and "" are the documented falsy values for the kill
        # switch; whether numpy then loads depends on the machine.
        assert numpy_available() == (numpy_or_none() is not None)

    def test_use_numpy_false_forces_fallback(self, compiled):
        batch = BatchSampler(compiled, (5, 2**40), use_numpy=False)
        assert batch.used_numpy is False
        scalars = [
            PatternSampler(compiled, seed=seed) for seed in (5, 2**40)
        ]
        assert_patterns_equal(
            batch.sample(9), [sampler.sample(9) for sampler in scalars]
        )

    def test_explicit_request_raises_config_error(
        self, compiled, monkeypatch
    ):
        monkeypatch.setenv(NO_NUMPY_ENV, "1")
        with pytest.raises(ConfigError, match="requires numpy"):
            BatchSampler(compiled, (1, 2), use_numpy=True)
        with pytest.raises(ConfigError, match=NO_NUMPY_ENV):
            require_numpy("test context")

    def test_executor_rejects_explicit_batch_request(self):
        with pytest.raises(TypeError, match="batch_sampling"):
            CellExecutor(workers=2, batch_sampling=True)
        with pytest.raises(TypeError, match="merge_batch"):
            CellExecutor(workers=2, merge_batch=True)

    def test_campaign_rejects_explicit_batch_request(self):
        with pytest.raises(TypeError, match="batch_sampling"):
            Campaign(seeds=(0, 1), workers=2, batch_sampling=True)
        with pytest.raises(TypeError, match="merge_batch"):
            Campaign(seeds=(0, 1), workers=2, merge_batch=True)


@pytest.mark.skipif(not numpy_available(), reason="needs numpy")
class TestPackedRows:
    def test_cached_on_the_compiled_instance(self, compiled):
        assert packed_rows(compiled) is packed_rows(compiled)
        assert compiled.__dict__["_packed_rows"] is packed_rows(compiled)

    def test_pickle_excludes_the_packing(self, compiled):
        packed_rows(compiled)
        clone = pickle.loads(pickle.dumps(compiled))
        assert "_packed_rows" not in clone.__dict__
        assert clone.symbols == compiled.symbols
        assert clone.cumulative == compiled.cumulative

    def test_packing_mirrors_the_compiled_rows(self, compiled):
        np = numpy_or_none()
        packed = packed_rows(compiled)
        assert packed.num_states == compiled.num_states
        assert packed.start == compiled.start
        for state in range(compiled.num_states):
            count = compiled.arc_count(state)
            assert packed.arc_count[state] == count
            assert bool(packed.is_absorbing[state]) == (
                compiled.is_absorbing(state)
            )
            assert packed.multi_step[state] == (1 if count > 1 else 0)
            row = packed.cumulative[state]
            assert row[:count].tolist() == list(compiled.cumulative[state])
            assert np.isinf(row[count:]).all()
        # The restart fusion: chosen arc -> post-redirect state in one
        # take, with absorbing states redirected to start.
        redirected = packed.restart_redirect[packed.flat_targets]
        assert (packed.restart_targets == redirected).all()

    def test_fused_rows_match_per_state_accessors(self, compiled):
        for state in range(compiled.num_states):
            count, symbols, targets, cumulative, log_probs = (
                compiled.rows[state]
            )
            assert count == len(compiled.symbols[state])
            assert symbols == compiled.symbols[state]
            assert targets == compiled.targets[state]
            assert cumulative == compiled.cumulative[state]
            assert log_probs == compiled.log_probs[state]


class TestSharedBatchBridge:
    def test_size_mismatch_is_rejected(self, compiled):
        shared = SharedPatternBatch(pfa=compiled, seeds=(1, 2), size=6)
        with pytest.raises(
            ConfigError, match="built for size 6, cell requested 7"
        ):
            shared.next_pattern(0, 7)
        with pytest.raises(ConfigError, match="size must be >= 1"):
            SharedPatternBatch(pfa=compiled, seeds=(1,), size=0)

    def test_interleaved_cells_stay_on_their_scalar_streams(
        self, compiled
    ):
        seeds = (2**40 + 5, 11, -(2**35))
        shared = SharedPatternBatch(pfa=compiled, seeds=seeds, size=8)
        streams = [shared.stream(cell) for cell in range(len(seeds))]
        scalars = [PatternSampler(compiled, seed=seed) for seed in seeds]
        # Drain the cells in a deliberately unfair order: cell 0 far
        # ahead, then cell 2, then cell 1 catching up.  Each cell's
        # sequence must equal its own scalar sampler's regardless.
        order = [0, 0, 0, 2, 1, 0, 2, 2, 1, 1]
        expected = {
            cell: [
                scalars[cell].sample(8) for _ in range(order.count(cell))
            ]
            for cell in range(len(seeds))
        }
        progress = {cell: 0 for cell in range(len(seeds))}
        for cell in order:
            pattern = streams[cell].generate(8, pattern_id=progress[cell])
            want = expected[cell][progress[cell]]
            assert pattern.symbols == want.symbols
            assert pattern.states == want.states
            assert pattern.log_probability == want.log_probability
            progress[cell] += 1
        assert [stream.generated for stream in streams] == [
            order.count(cell) for cell in range(len(seeds))
        ]

    def test_prime_predraws_without_changing_output(self, compiled):
        seeds = (2**40 + 5, 11)
        primed = SharedPatternBatch(pfa=compiled, seeds=seeds, size=8)
        primed.prime(3)
        lazy = SharedPatternBatch(pfa=compiled, seeds=seeds, size=8)
        for cell in range(len(seeds)):
            for _ in range(3):
                drawn = primed.next_pattern(cell, 8)
                other = lazy.next_pattern(cell, 8)
                assert drawn.symbols == other.symbols
                assert drawn.log_probability == other.log_probability


class TestCampaignBitIdentity:
    @pytest.fixture(autouse=True)
    def _fresh_pools(self):
        shutdown_pools()
        yield
        shutdown_pools()

    def _campaign(self, workers, batch_size=None):
        campaign = Campaign(
            seeds=(0, 1, 2), workers=workers, batch_size=batch_size
        )
        campaign.add_scenario("spin", "clean_spin", tasks=2, total_steps=40)
        campaign.add_scenario("phil", "philosophers", op="cyclic")
        return campaign

    def test_rows_identical_at_every_batch_setting(self):
        baseline = self._campaign(workers=1)
        rows = baseline.run()
        for workers, batch_size in [(2, None), (2, 1), (2, 3)]:
            campaign = self._campaign(workers, batch_size)
            assert campaign.run() == rows, (
                f"rows diverged at workers={workers}, "
                f"batch_size={batch_size}"
            )
            for variant in baseline.results:
                expected = baseline.results[variant]
                actual = campaign.results[variant]
                assert [r.patterns for r in actual] == [
                    r.patterns for r in expected
                ]
                assert [r.found_bug for r in actual] == [
                    r.found_bug for r in expected
                ]
                assert [
                    [a.kind for a in r.anomalies] for r in actual
                ] == [[a.kind for a in r.anomalies] for r in expected]
