"""The merger's contract over the op × chunk × ragged-length matrix.

:class:`~repro.ptest.merger.PatternMerger` has one merge path.  These
tests hold it to a reference model written out below, op by op — the
documented order of each built-in op, including the stochastic ops'
one-draw-per-symbol RNG order against a fresh ``random.Random(seed)``
— over every op × chunk × ragged-length case (empty and singleton
patterns included), with numpy visible and masked by
``REPRO_NO_NUMPY`` (the ``auto``/``scalar`` ids; the merger must not
care).  Then the data types underneath: the frozen dataclass surface
of :class:`TestPattern` / :class:`MergedPattern` (eq/hash/repr,
``FrozenInstanceError``, ``len``, pickles of plain tuples), patterns
drawn through :class:`~repro.ptest.generator.SharedPatternBatch`, and
:meth:`PatternMerger.merge_batch`.
"""

from __future__ import annotations

import pickle
import random
from dataclasses import FrozenInstanceError

import pytest

from repro.automata.batch import NO_NUMPY_ENV
from repro.automata.compiled import CompiledPFA
from repro.errors import ConfigError
from repro.ptest.generator import PatternGenerator, SharedPatternBatch
from repro.ptest.merger import (
    MERGE_OPS,
    PatternMerger,
    register_merge_op,
)
from repro.ptest.patterns import MergedPattern, PatternCommand, TestPattern
from repro.ptest.pcore_model import pcore_pfa

ALPHABET = ("TC", "TS", "TR", "TD", "TCH")

#: Ragged length profiles: all-empty, singleton, empty-mixed-with-long,
#: equal lengths, a wide spread, and a lone short pattern.
LENGTH_SETS = (
    (0,),
    (1,),
    (0, 4, 1),
    (6, 6),
    (5, 3, 0, 2, 7),
    (2,),
)

CHUNKS = (1, 3, 7)

MERGE_SEED = 97


def make_patterns(lengths) -> list[TestPattern]:
    """Patterns with deterministic, per-pattern-distinct symbols."""
    return [
        TestPattern(
            pattern_id=i,
            symbols=tuple(
                ALPHABET[(i * 3 + j) % len(ALPHABET)] for j in range(n)
            ),
            log_probability=-0.5 * i,
        )
        for i, n in enumerate(lengths)
    ]


def reference_order(op, lengths, rng, chunk) -> list[int]:
    """Pattern ids in emission order, by each built-in op's rule."""
    left = list(lengths)
    longest = max(lengths)
    order: list[int] = []
    if op == "round_robin":
        for rank in range(longest):
            order += [k for k, n in enumerate(lengths) if n > rank]
    elif op == "cyclic":
        for start in range(0, longest, chunk):
            for k, n in enumerate(lengths):
                order += [k] * max(0, min(chunk, n - start))
    elif op == "burst":
        for k, n in enumerate(lengths):
            order += [k] * n
    elif op == "random":
        live = [k for k, n in enumerate(lengths) if n]
        while live:
            k = rng.choice(live)
            order.append(k)
            left[k] -= 1
            if not left[k]:
                live.remove(k)
    elif op == "weighted":
        while any(left):
            pick = rng.random() * sum(left)
            cumulative = 0.0
            for k, n in enumerate(left):
                cumulative += n
                if n and pick < cumulative:
                    break
            order.append(k)
            left[k] -= 1
    else:  # pragma: no cover - guards the parametrisation
        raise AssertionError(op)
    return order


def assemble(patterns, order) -> list[PatternCommand]:
    """The command list an emission order stands for."""
    taken = {pattern.pattern_id: 0 for pattern in patterns}
    by_id = {pattern.pattern_id: pattern for pattern in patterns}
    commands = []
    for position, pattern_id in enumerate(order):
        taken[pattern_id] += 1
        commands.append(
            PatternCommand(
                symbol=by_id[pattern_id].symbols[taken[pattern_id] - 1],
                pattern_id=pattern_id,
                sequence_in_pattern=taken[pattern_id],
                position=position,
            )
        )
    return commands


def merged_equal(a: MergedPattern, b: MergedPattern) -> None:
    assert a == b
    assert a.commands == b.commands
    assert a.per_pattern_counts() == b.per_pattern_counts()
    assert a.describe() == b.describe()
    a.validate()
    b.validate()


def assert_matches_reference(op, chunk, lengths, expected, monkeypatch):
    """The merge equals ``expected`` commands, numpy visible or masked."""
    results = []
    for masked in (False, True):
        if masked:
            monkeypatch.setenv(NO_NUMPY_ENV, "1")
        results.append(
            PatternMerger(op=op, seed=MERGE_SEED, chunk=chunk).merge(
                make_patterns(lengths)
            )
        )
        monkeypatch.delenv(NO_NUMPY_ENV, raising=False)
    visible, masked_result = results
    assert visible.commands == expected
    assert visible.op == op
    assert visible.sources == make_patterns(lengths)
    assert len(visible) == sum(lengths)
    merged_equal(visible, masked_result)


def _order_reversed_burst(patterns, rng, chunk):
    """Custom deterministic op: whole patterns, last source first."""
    del rng, chunk
    order = []
    for pattern in reversed(patterns):
        order.extend([pattern.pattern_id] * len(pattern))
    return order


def _order_rng_shuffled(patterns, rng, chunk):
    """Custom stochastic op: a round-robin order shuffled in place."""
    del chunk
    order = []
    for pattern in patterns:
        order.extend([pattern.pattern_id] * len(pattern))
    rng.shuffle(order)
    return order


@pytest.fixture
def custom_ops():
    names = ("reversed_burst_test", "rng_shuffled_test")
    register_merge_op(names[0], _order_reversed_burst)
    register_merge_op(names[1], _order_rng_shuffled)
    yield names
    for name in names:
        MERGE_OPS.pop(name, None)


@pytest.fixture(scope="module")
def compiled() -> CompiledPFA:
    return CompiledPFA.from_pfa(pcore_pfa())


def set_mask(monkeypatch, masked: bool) -> None:
    if masked:
        monkeypatch.setenv(NO_NUMPY_ENV, "1")
    else:
        monkeypatch.delenv(NO_NUMPY_ENV, raising=False)


class TestEquivalenceMatrix:
    @pytest.mark.parametrize("lengths", LENGTH_SETS)
    @pytest.mark.parametrize("chunk", CHUNKS)
    @pytest.mark.parametrize("op", sorted(MERGE_OPS))
    def test_builtin_ops(self, op, chunk, lengths, monkeypatch):
        order = reference_order(op, lengths, random.Random(MERGE_SEED), chunk)
        expected = assemble(make_patterns(lengths), order)
        assert_matches_reference(op, chunk, lengths, expected, monkeypatch)

    @pytest.mark.parametrize("lengths", LENGTH_SETS)
    @pytest.mark.parametrize("which", [0, 1])
    def test_custom_ops_route_through_array_assembly(
        self, custom_ops, which, lengths, monkeypatch
    ):
        """Custom ops assemble like built-ins: their order, drawn from
        a fresh ``Random(seed)``, becomes the command list."""
        op = custom_ops[which]
        patterns = make_patterns(lengths)
        order = MERGE_OPS[op](patterns, random.Random(MERGE_SEED), 2)
        expected = assemble(patterns, order)
        assert_matches_reference(op, 2, lengths, expected, monkeypatch)

    @pytest.mark.parametrize("op", ["round_robin", "cyclic", "burst"])
    def test_array_backed_inputs_merge_identically(self, compiled, op):
        """Patterns drawn through a shared lockstep batch equal the
        scalar generator's and merge to the same result."""
        seeds = (11, 12, 13, 14)
        shared = SharedPatternBatch(compiled, seeds, size=9)
        batched = [
            shared.stream(cell).generate(9, pattern_id=cell)
            for cell in range(len(seeds))
        ]
        scalar = [
            PatternGenerator.from_pfa(compiled, seed=seed).generate(
                9, pattern_id=cell
            )
            for cell, seed in enumerate(seeds)
        ]
        assert batched == scalar
        merger = PatternMerger(op=op, seed=MERGE_SEED, chunk=3)
        merged_equal(merger.merge(batched), merger.merge(scalar))


MASK_IDS = dict(argnames="masked", argvalues=[True, False], ids=["scalar", "auto"])


class TestArrayPathErrors:
    """Merge errors, raised the same with numpy visible or masked."""

    @pytest.mark.parametrize(**MASK_IDS)
    def test_over_consuming_op_raises_on_both_paths(
        self, custom_ops, masked, monkeypatch
    ):
        del custom_ops
        set_mask(monkeypatch, masked)

        def greedy(patterns, rng, chunk):
            del rng, chunk
            return [patterns[0].pattern_id] * (len(patterns[0]) + 1)

        register_merge_op("greedy_test", greedy)
        try:
            merger = PatternMerger(op="greedy_test")
            with pytest.raises(ConfigError, match="over-consumed"):
                merger.merge(make_patterns((3,)))
        finally:
            MERGE_OPS.pop("greedy_test", None)

    @pytest.mark.parametrize(**MASK_IDS)
    def test_under_consuming_op_raises_on_both_paths(self, masked, monkeypatch):
        set_mask(monkeypatch, masked)

        def lazy(patterns, rng, chunk):
            del rng, chunk
            return [patterns[0].pattern_id] * (len(patterns[0]) - 1)

        register_merge_op("lazy_test", lazy)
        try:
            merger = PatternMerger(op="lazy_test")
            with pytest.raises(ConfigError, match="only merged"):
                merger.merge(make_patterns((3,)))
        finally:
            MERGE_OPS.pop("lazy_test", None)

    @pytest.mark.parametrize(**MASK_IDS)
    def test_unknown_id_in_order_raises_on_both_paths(self, masked, monkeypatch):
        set_mask(monkeypatch, masked)

        def rogue(patterns, rng, chunk):
            del rng, chunk
            return [999] * len(patterns[0])

        register_merge_op("rogue_test", rogue)
        try:
            merger = PatternMerger(op="rogue_test")
            with pytest.raises(KeyError):
                merger.merge(make_patterns((2,)))
        finally:
            MERGE_OPS.pop("rogue_test", None)

    @pytest.mark.parametrize(**MASK_IDS)
    def test_cyclic_chunk_validation_on_both_paths(self, masked, monkeypatch):
        set_mask(monkeypatch, masked)
        merger = PatternMerger(op="cyclic", chunk=0)
        with pytest.raises(ConfigError, match="chunk must be >= 1"):
            merger.merge(make_patterns((2, 2)))

    def test_empty_list_and_duplicate_ids_rejected(self):
        merger = PatternMerger()
        with pytest.raises(ConfigError, match="empty pattern list"):
            merger.merge([])
        twin = make_patterns((2,))[0]
        with pytest.raises(ConfigError, match="ids must be unique"):
            merger.merge([twin, twin])


class TestTestPatternArrayBacked:
    """:class:`TestPattern`'s frozen dataclass surface."""

    def _pattern(self):
        return TestPattern(
            pattern_id=3,
            symbols=("TC", "TS", "TC"),
            states=(0, 1, 2),
            log_probability=-1.25,
        )

    def test_lazy_materialisation_and_o1_len(self):
        symbols = ("TC", "TS", "TC")
        pattern = TestPattern(pattern_id=3, symbols=symbols)
        assert pattern.symbols is symbols
        assert pattern.states == ()
        assert len(pattern) == 3
        assert len(TestPattern(pattern_id=0, symbols=())) == 0

    def test_eq_hash_repr_match_eager_twin(self):
        pattern = self._pattern()
        twin = TestPattern(3, ("TC", "TS", "TC"), (0, 1, 2), -1.25)
        assert pattern == twin
        assert hash(pattern) == hash(twin)
        assert repr(pattern) == (
            "TestPattern(pattern_id=3, symbols=('TC', 'TS', 'TC'), "
            "states=(0, 1, 2), log_probability=-1.25)"
        )
        assert pattern != TestPattern(4, ("TC", "TS", "TC"), (0, 1, 2), -1.25)
        assert pattern.describe() == "TC->TS->TC"
        assert pattern.subsequence_after(1) == ("TS", "TC")

    def test_pickle_is_numpy_free_and_round_trips(self):
        pattern = self._pattern()
        payload = pickle.dumps(pattern)
        assert b"numpy" not in payload
        assert pickle.loads(payload) == pattern
        # Earlier releases pickled the four fields as a tuple.
        legacy = TestPattern.__new__(TestPattern)
        legacy.__setstate__((3, ("TC", "TS", "TC"), (0, 1, 2), -1.25))
        assert legacy == pattern

    def test_frozen_surface(self):
        pattern = self._pattern()
        with pytest.raises(FrozenInstanceError, match="cannot assign"):
            pattern.pattern_id = 9
        with pytest.raises(FrozenInstanceError):
            del pattern.pattern_id

    def test_negative_id_rejected_by_both_constructors(self):
        with pytest.raises(ConfigError, match=">= 0"):
            TestPattern(pattern_id=-1, symbols=("TC",))
        with pytest.raises(ConfigError, match=">= 0"):
            TestPattern(-1, ("TC",))


class TestMergedPatternArrayBacked:
    """:class:`MergedPattern`'s dataclass surface."""

    def _merged(self):
        return PatternMerger().merge(make_patterns((2, 1)))

    def test_len_and_counts_without_materialising(self):
        merged = self._merged()
        assert len(merged) == len(merged.commands) == 3
        assert merged.per_pattern_counts() == {0: 2, 1: 1}
        assert list(merged) == merged.commands

    def test_validate_eq_and_pickle(self):
        merged = self._merged()
        merged.validate()
        twin = MergedPattern(
            commands=list(merged.commands),
            op="round_robin",
            sources=make_patterns((2, 1)),
        )
        assert merged == twin
        clone = pickle.loads(pickle.dumps(merged))
        assert clone == merged
        assert all(isinstance(c, PatternCommand) for c in clone.commands)


class TestMergeBatch:
    @pytest.mark.parametrize("op", ["cyclic", "random", "weighted"])
    def test_equals_independent_merges(self, op):
        groups = [make_patterns(lengths) for lengths in LENGTH_SETS]
        merger = PatternMerger(op=op, seed=MERGE_SEED, chunk=3)
        batched = merger.merge_batch(groups)
        assert len(batched) == len(groups)
        for group, got in zip(groups, batched):
            # Fresh RNG per group: each result equals a lone merge().
            want = PatternMerger(op=op, seed=MERGE_SEED, chunk=3).merge(
                list(group)
            )
            merged_equal(got, want)

    def test_empty_group_list_is_empty_result(self):
        assert PatternMerger().merge_batch([]) == []

    def test_rng_draw_order_is_per_merge(self):
        """Two stochastic merges in one batch must not share draws:
        the second group's result is what a fresh seed produces, not a
        continuation of the first group's stream."""
        group = make_patterns((4, 4))
        merger = PatternMerger(op="random", seed=5)
        first, second = merger.merge_batch(
            [make_patterns((4, 4)), make_patterns((4, 4))]
        )
        lone = PatternMerger(op="random", seed=5).merge(group)
        assert first.commands == lone.commands
        assert second.commands == lone.commands


def test_rng_contract_documented_ops_consume_identically():
    """The stochastic ops draw exactly what the reference model draws:
    after both, the next draw from each RNG agrees."""
    lengths = (3, 5, 2)
    patterns = make_patterns(lengths)
    for op in ("random", "weighted"):
        rng_op = random.Random(MERGE_SEED)
        order = MERGE_OPS[op](patterns, rng_op, 2)
        rng_ref = random.Random(MERGE_SEED)
        assert order == reference_order(op, lengths, rng_ref, 2)
        assert rng_op.random() == rng_ref.random()
