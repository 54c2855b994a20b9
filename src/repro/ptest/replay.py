"""Replaying recorded interleavings as portable merged-pattern refs.

:class:`ReplayRef` is the one replay path: a picklable ``(scenario
ref, merged description)`` value object that is a campaign variant like
a :class:`~repro.workloads.registry.ScenarioRef`, so a recorded
interleaving — a bug report's merged pattern, rendered as
``"TC[p0#1] TS[p0#2] ..."`` and parsed back by
:func:`parse_merged_description` — rides the executor's deduped
batch-table wire format and the one cell path exactly like registry
scenarios do (see :mod:`repro.ptest.pool`).  The adaptive campaign's
``ReplayFocus`` policy emits these to re-drive detecting interleavings
across seeds.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.errors import ConfigError
from repro.ptest.patterns import MergedPattern, PatternCommand, TestPattern
from repro.workloads.registry import ScenarioRef

_COMMAND_RE = re.compile(r"^(?P<symbol>[A-Za-z0-9_]+)\[p(?P<pair>\d+)#(?P<seq>\d+)\]$")


def parse_merged_description(text: str) -> MergedPattern:
    """Parse ``"TC[p0#1] TC[p1#1] ..."`` back into a merged pattern."""
    commands: list[PatternCommand] = []
    per_pair: dict[int, list[str]] = {}
    for position, token in enumerate(text.split()):
        match = _COMMAND_RE.match(token)
        if match is None:
            raise ConfigError(f"unparseable merged-pattern token {token!r}")
        symbol = match.group("symbol")
        pair = int(match.group("pair"))
        sequence = int(match.group("seq"))
        expected = len(per_pair.setdefault(pair, [])) + 1
        if sequence != expected:
            raise ConfigError(
                f"token {token!r}: expected sequence {expected} for pair "
                f"{pair}, got {sequence}"
            )
        per_pair[pair].append(symbol)
        commands.append(
            PatternCommand(
                symbol=symbol,
                pattern_id=pair,
                sequence_in_pattern=sequence,
                position=position,
            )
        )
    sources = [
        TestPattern(pattern_id=pair, symbols=tuple(symbols))
        for pair, symbols in sorted(per_pair.items())
    ]
    merged = MergedPattern(commands=commands, op="replayed", sources=sources)
    merged.validate()
    return merged


@dataclass(frozen=True)
class ReplayRef:
    """A picklable merged-pattern replay cell.

    ``scenario`` names the base workload (platform config, programs,
    setup hook) through the default registry; ``description`` is a merged
    pattern rendered by :meth:`MergedPattern.describe` — both plain
    values, so a replay ref crosses a process boundary as cheaply as a
    :class:`~repro.workloads.registry.ScenarioRef` does.  A cell of the
    ref builds the base scenario for its seed and replays exactly the
    recorded interleaving over it via ``merged_override`` (generation
    and merging are skipped; the seed still drives noise, platform and
    detector randomness), so one recorded interleaving can be swept
    across seeds like any other campaign variant.

    Refs are value objects — equality/hash cover ``(scenario,
    description)`` — so equal replay cells collapse to one batch-table
    entry, and the parsed :class:`~repro.ptest.patterns.MergedPattern`
    is memoized on the ref (:meth:`merged`).  The description is
    validated at construction, not first dispatch, so a malformed
    rendering fails in the process that minted it.
    """

    scenario: ScenarioRef
    description: str
    #: Parsed eagerly in the minting process (validation), lazily after
    #: unpickling — a batch table carries one copy of the ref, so a
    #: worker parses it once per batch, not once per seed.
    _merged: MergedPattern | None = field(
        init=False, repr=False, compare=False, hash=False, default=None
    )

    def __post_init__(self) -> None:
        if not isinstance(self.scenario, ScenarioRef):
            raise ConfigError(
                f"ReplayRef.scenario must be a ScenarioRef, got "
                f"{type(self.scenario).__name__}"
            )
        object.__setattr__(
            self, "_merged", parse_merged_description(self.description)
        )

    def __getstate__(self) -> tuple[ScenarioRef, str]:
        return (self.scenario, self.description)

    def __setstate__(self, state: tuple[ScenarioRef, str]) -> None:
        object.__setattr__(self, "scenario", state[0])
        object.__setattr__(self, "description", state[1])
        object.__setattr__(self, "_merged", None)

    def merged(self) -> MergedPattern:
        """The recorded interleaving, parsed (and memoized) on demand."""
        if self._merged is None:
            object.__setattr__(
                self, "_merged", parse_merged_description(self.description)
            )
        return self._merged

    def describe(self) -> str:
        return f"replay({self.scenario.describe()}, {self.description!r})"


def replay_ref(
    scenario: ScenarioRef, merged: MergedPattern | str
) -> ReplayRef:
    """Build a :class:`ReplayRef` from a live merged pattern or its
    rendered description."""
    description = (
        merged if isinstance(merged, str) else merged.describe()
    )
    return ReplayRef(scenario=scenario, description=description)

