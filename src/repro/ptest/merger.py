"""The pattern merger (Algorithm 1's ``op`` parameter).

"The pattern merger extracts subsequences from each test pattern ... and
then systematically merges all subsequences into one final test pattern
... It is similar to a process scheduler."  Each merge *op* is a policy
for choosing which pattern contributes its next symbol(s):

``round_robin``
    One symbol from each live pattern in turn — a fair scheduler.
``random``
    A seeded uniform choice among live patterns each step — ConTest-style
    noise at the pattern level.
``cyclic``
    Chunks of ``chunk`` symbols from each pattern in a fixed rotation —
    "forced these tasks to complete several set of cyclic execution
    sequences", the op that drives test case 2's dining philosophers
    into the deadlock cycle.
``burst``
    Whole patterns back to back — the degenerate scheduler; useful as a
    control showing interleaving (not load alone) finds concurrency
    faults.
``weighted``
    Like ``random`` but biased towards the patterns with the most
    remaining symbols, keeping pair progress balanced.

Custom policies register via :func:`register_merge_op`.

The RNG-order contract
----------------------

Every merge starts a fresh ``random.Random(seed)``, and the stochastic
ops consume it one draw per emitted symbol, in emission order
(``rng.choice`` for ``random``, ``rng.random()`` for ``weighted``).
That draw order is part of the reproducibility surface: a seed names
one interleaving, the same in every process and release, so the order
functions below must keep it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Callable, Protocol, Sequence

from repro.errors import ConfigError
from repro.ptest.patterns import MergedPattern, PatternCommand, TestPattern


class MergePolicy(Protocol):
    """A merge op: repeatedly pick the pattern index to advance."""

    def __call__(
        self,
        remaining: list[int],
        cursor: dict[int, int],
        rng: random.Random,
        chunk: int,
    ) -> list[int]:
        """Return the full order of pattern ids (one entry per emitted
        symbol).  ``remaining`` maps position->pattern_id of live
        patterns; implementations below generate the order directly."""
        ...  # pragma: no cover - protocol


def _order_round_robin(
    patterns: list[TestPattern], rng: random.Random, chunk: int
) -> list[int]:
    del rng, chunk
    order: list[int] = []
    left = {p.pattern_id: len(p) for p in patterns}
    ids = [p.pattern_id for p in patterns]
    while any(left[i] > 0 for i in ids):
        for pattern_id in ids:
            if left[pattern_id] > 0:
                order.append(pattern_id)
                left[pattern_id] -= 1
    return order


def _order_random(
    patterns: list[TestPattern], rng: random.Random, chunk: int
) -> list[int]:
    del chunk
    order: list[int] = []
    left = {p.pattern_id: len(p) for p in patterns}
    live = [p.pattern_id for p in patterns if len(p) > 0]
    while live:
        pattern_id = rng.choice(live)
        order.append(pattern_id)
        left[pattern_id] -= 1
        if left[pattern_id] == 0:
            live.remove(pattern_id)
    return order


def _order_cyclic(
    patterns: list[TestPattern], rng: random.Random, chunk: int
) -> list[int]:
    del rng
    if chunk < 1:
        raise ConfigError(f"cyclic chunk must be >= 1, got {chunk}")
    order: list[int] = []
    left = {p.pattern_id: len(p) for p in patterns}
    ids = [p.pattern_id for p in patterns]
    while any(left[i] > 0 for i in ids):
        for pattern_id in ids:
            take = min(chunk, left[pattern_id])
            order.extend([pattern_id] * take)
            left[pattern_id] -= take
    return order


def _order_burst(
    patterns: list[TestPattern], rng: random.Random, chunk: int
) -> list[int]:
    del rng, chunk
    order: list[int] = []
    for pattern in patterns:
        order.extend([pattern.pattern_id] * len(pattern))
    return order


def _order_weighted(
    patterns: list[TestPattern], rng: random.Random, chunk: int
) -> list[int]:
    del chunk
    order: list[int] = []
    left = {p.pattern_id: len(p) for p in patterns}
    while True:
        live = [(i, n) for i, n in left.items() if n > 0]
        if not live:
            return order
        total = sum(n for _i, n in live)
        pick = rng.random() * total
        cumulative = 0.0
        chosen = live[-1][0]
        for pattern_id, weight in live:
            cumulative += weight
            if pick < cumulative:
                chosen = pattern_id
                break
        order.append(chosen)
        left[chosen] -= 1


OrderFunction = Callable[[list[TestPattern], random.Random, int], list[int]]

MERGE_OPS: dict[str, OrderFunction] = {
    "round_robin": _order_round_robin,
    "random": _order_random,
    "cyclic": _order_cyclic,
    "burst": _order_burst,
    "weighted": _order_weighted,
}


def register_merge_op(name: str, order_function: OrderFunction) -> None:
    """Add a custom merge policy usable by name in configs."""
    if name in MERGE_OPS:
        raise ConfigError(f"merge op {name!r} already registered")
    MERGE_OPS[name] = order_function


@dataclass
class PatternMerger:
    """Merges *n* test patterns into one interleaved pattern.

    Parameters
    ----------
    op:
        Name of the merge policy (key of :data:`MERGE_OPS`).
    seed:
        RNG seed for stochastic policies.
    chunk:
        Subsequence length for the ``cyclic`` policy.
    """

    op: str = "round_robin"
    seed: int | None = None
    chunk: int = 2

    def __post_init__(self) -> None:
        if self.op not in MERGE_OPS:
            raise ConfigError(
                f"unknown merge op {self.op!r}; known: {sorted(MERGE_OPS)}"
            )

    def merge(self, patterns: list[TestPattern]) -> MergedPattern:
        """Produce the merged pattern M of Algorithm 1."""
        if not patterns:
            raise ConfigError("cannot merge an empty pattern list")
        ids = [pattern.pattern_id for pattern in patterns]
        if len(set(ids)) != len(ids):
            raise ConfigError("pattern ids must be unique")
        # One fresh RNG per merge, consumed in emission order by the
        # stochastic order functions.
        rng = random.Random(self.seed)
        order = MERGE_OPS[self.op](patterns, rng, self.chunk)
        # Lengths and symbol tuples hoisted once per merge.
        length_of = {p.pattern_id: len(p) for p in patterns}
        symbols_of = {p.pattern_id: p.symbols for p in patterns}
        cursor = {pattern.pattern_id: 0 for pattern in patterns}
        commands: list[PatternCommand] = []
        for position, pattern_id in enumerate(order):
            index = cursor[pattern_id]
            if index >= length_of[pattern_id]:
                raise ConfigError(
                    f"merge op {self.op!r} over-consumed pattern {pattern_id}"
                )
            commands.append(
                PatternCommand(
                    symbol=symbols_of[pattern_id][index],
                    pattern_id=pattern_id,
                    sequence_in_pattern=index + 1,
                    position=position,
                )
            )
            cursor[pattern_id] = index + 1
        merged = MergedPattern(
            commands=commands, op=self.op, sources=list(patterns)
        )
        merged.validate()
        return merged

    # Unused; perfbench/traced.py wraps it (drop at re-cut).
    def merge_batch(
        self,
        pattern_groups: Sequence[Sequence[TestPattern]],
        seeds: Sequence[int | None] | None = None,
    ) -> list[MergedPattern]:
        """Merge each group as :meth:`merge` would; ``seeds`` (when
        given) overrides the merge seed per group."""
        if seeds is None:
            return [self.merge(list(group)) for group in pattern_groups]
        if len(seeds) != len(pattern_groups):
            raise ConfigError(
                f"merge_batch got {len(pattern_groups)} groups but "
                f"{len(seeds)} seeds"
            )
        return [
            replace(self, seed=seed).merge(list(group))
            for group, seed in zip(pattern_groups, seeds)
        ]

    def merge_symbols(
        self, symbol_lists: Sequence[Sequence[str]]
    ) -> MergedPattern:
        """Merge raw symbol sequences (pattern ids assigned by position).

        The re-merge entry point for recorded material: a run's
        ``TestRunResult.patterns`` or a parsed report's source symbols
        come back as plain tuples, and this wraps them in fresh
        :class:`TestPattern` values before merging — so an adaptive
        campaign can re-interleave yesterday's detecting patterns under
        a different op without reconstructing generator state.
        """
        patterns = [
            TestPattern(pattern_id=index, symbols=tuple(symbols))
            for index, symbols in enumerate(symbol_lists)
        ]
        return self.merge(patterns)
