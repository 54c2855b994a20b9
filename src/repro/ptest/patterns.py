"""Test-pattern data types.

A :class:`TestPattern` is one PFA walk destined for one master-thread /
slave-task pair.  The merger turns *n* of them into a
:class:`MergedPattern`: a single sequence of :class:`PatternCommand`
whose provenance (pattern id, per-pattern sequence number) is preserved
— the recorder needs it for Definition 2's SN and delta-S fields, and
bug reports need it to say *which* interleaving triggered the anomaly.

All three are slotted dataclasses holding plain tuples and lists, so
they pickle as such across the pool boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.errors import ConfigError


@dataclass(frozen=True, slots=True)
class TestPattern:
    """One generated pattern: services for a single slave task.

    Attributes
    ----------
    pattern_id:
        Index of this pattern within its batch (also the pair index).
    symbols:
        Service abbreviations in order (e.g. ``("TC", "TS", "TR", "TD")``).
    states:
        The PFA state path that produced the symbols.
    log_probability:
        Log-probability of the generating walk.
    """

    pattern_id: int
    symbols: tuple[str, ...]
    states: tuple[int, ...] = ()
    log_probability: float = 0.0

    #: Not a pytest test class despite the ``Test`` prefix.
    __test__ = False

    def __post_init__(self) -> None:
        if self.pattern_id < 0:
            raise ConfigError(f"pattern_id must be >= 0, got {self.pattern_id}")

    def __len__(self) -> int:
        return len(self.symbols)

    def subsequence_after(self, sequence_number: int) -> tuple[str, ...]:
        """Definition 2's delta-S: what remains after ``sequence_number``
        symbols have been issued (1-based, like the paper's SN)."""
        if sequence_number < 0:
            raise ConfigError(f"negative sequence number {sequence_number}")
        return self.symbols[sequence_number:]

    def describe(self) -> str:
        return "->".join(self.symbols)


@dataclass(frozen=True, slots=True)
class PatternCommand:
    """One element of a merged pattern.

    ``sequence_in_pattern`` is 1-based (the paper's SN counts states from
    1); ``position`` is the command's 0-based index in the merged
    sequence.  Slotted: large merges materialise one per symbol.
    """

    symbol: str
    pattern_id: int
    sequence_in_pattern: int
    position: int

    def describe(self) -> str:
        return f"{self.symbol}[p{self.pattern_id}#{self.sequence_in_pattern}]"


@dataclass(slots=True)
class MergedPattern:
    """The merger's output: an interleaving of the input patterns."""

    commands: list[PatternCommand]
    op: str
    sources: list[TestPattern] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.commands)

    def __iter__(self) -> Iterator[PatternCommand]:
        return iter(self.commands)

    def per_pattern_counts(self) -> dict[int, int]:
        counts: dict[int, int] = {}
        for command in self.commands:
            counts[command.pattern_id] = counts.get(command.pattern_id, 0) + 1
        return counts

    def validate(self) -> None:
        """Check the merge is a true interleaving: every source pattern
        appears exactly once, in order, with correct sequence numbers."""
        progress: dict[int, int] = {
            pattern.pattern_id: 0 for pattern in self.sources
        }
        by_id = {pattern.pattern_id: pattern for pattern in self.sources}
        for index, command in enumerate(self.commands):
            if command.position != index:
                raise ConfigError(
                    f"command at index {index} carries position "
                    f"{command.position}"
                )
            pattern = by_id.get(command.pattern_id)
            if pattern is None:
                raise ConfigError(
                    f"command references unknown pattern {command.pattern_id}"
                )
            expected_seq = progress[command.pattern_id] + 1
            if command.sequence_in_pattern != expected_seq:
                raise ConfigError(
                    f"pattern {command.pattern_id} out of order: expected "
                    f"seq {expected_seq}, got {command.sequence_in_pattern}"
                )
            expected_symbol = pattern.symbols[expected_seq - 1]
            if command.symbol != expected_symbol:
                raise ConfigError(
                    f"pattern {command.pattern_id} seq {expected_seq}: "
                    f"expected {expected_symbol}, got {command.symbol}"
                )
            progress[command.pattern_id] = expected_seq
        for pattern in self.sources:
            if progress[pattern.pattern_id] != len(pattern):
                raise ConfigError(
                    f"pattern {pattern.pattern_id} only merged "
                    f"{progress[pattern.pattern_id]}/{len(pattern)} symbols"
                )

    def describe(self) -> str:
        return " ".join(command.describe() for command in self.commands)
