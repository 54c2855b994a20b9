"""State recording of concurrent processes (Definition 2).

A record is the five-tuple ``(qm, qs, TP, SN, delta_S)``:

1. ``qm`` — the state of the master process (the committer's virtual
   thread for the pair) when it last issued a remote command,
2. ``qs`` — the current state of the slave task,
3. ``TP`` — the test pattern assigned to the slave task,
4. ``SN`` — the 1-based sequence number of the pattern state currently
   being executed,
5. ``delta_S`` — the remaining subsequence of the pattern.

The recorder keeps one live record per master-thread/slave-task pair
(the paper assumes a one-to-one correspondence) and snapshots them for
bug reports — exactly the Fig. 4 presentation.

Lazy records
------------

:meth:`StateRecord.from_pattern` (what :meth:`ProcessStateRecorder.record`
builds) stores only the source pattern and SN — delta-S is the offset
``SN`` into TP — and slices the ``remaining`` tuple on first read.
Snapshotting therefore costs O(pairs) regardless of pattern size; only
rendering a :class:`~repro.ptest.report.BugReport` (``describe``,
``to_dict``, pickling across the pool boundary) builds the tuples.
Eagerly-constructed records (the classic keyword form) compare equal
to lazy ones over the same values.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass, field
from typing import Any

from repro.errors import DetectorError
from repro.pcore.tcb import TaskState
from repro.ptest.patterns import TestPattern


class StateRecord:
    """One CP record (Fig. 4).

    A hand-rolled frozen ``__slots__`` type (same surface as the former
    frozen dataclass: keyword/positional construction, ``eq``/``hash``/
    ``repr``, :class:`dataclasses.FrozenInstanceError` on assignment)
    so the :meth:`from_pattern` form can defer the ``pattern`` and
    ``remaining`` tuples behind the public fields.
    """

    __slots__ = (
        "pair_id",
        "master_state",
        "slave_state",
        "sequence_number",
        "_pattern",
        "_remaining",
        "_source",
    )

    def __init__(
        self,
        pair_id: int,
        master_state: str,
        slave_state: str,
        pattern: tuple[str, ...],
        sequence_number: int,
        remaining: tuple[str, ...],
    ) -> None:
        fill = object.__setattr__
        fill(self, "pair_id", pair_id)
        fill(self, "master_state", master_state)
        fill(self, "slave_state", slave_state)
        fill(self, "sequence_number", sequence_number)
        fill(self, "_pattern", pattern)
        fill(self, "_remaining", remaining)
        fill(self, "_source", None)

    @classmethod
    def from_pattern(
        cls,
        pair_id: int,
        master_state: str,
        slave_state: str,
        source: TestPattern,
        sequence_number: int,
    ) -> "StateRecord":
        """Lazy construction: TP is ``source`` and delta-S the offset
        ``sequence_number`` into it; the symbol tuples are built only
        when read (a bug report rendering)."""
        record = object.__new__(cls)
        fill = object.__setattr__
        fill(record, "pair_id", pair_id)
        fill(record, "master_state", master_state)
        fill(record, "slave_state", slave_state)
        fill(record, "sequence_number", sequence_number)
        fill(record, "_pattern", None)
        fill(record, "_remaining", None)
        fill(record, "_source", source)
        return record

    @property
    def pattern(self) -> tuple[str, ...]:
        value = self._pattern
        if value is None:
            value = self._source.symbols
            object.__setattr__(self, "_pattern", value)
        return value

    @property
    def remaining(self) -> tuple[str, ...]:
        value = self._remaining
        if value is None:
            value = self._source.subsequence_after(self.sequence_number)
            object.__setattr__(self, "_remaining", value)
        return value

    def __setattr__(self, name: str, value: Any) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def _astuple(self) -> tuple:
        return (
            self.pair_id,
            self.master_state,
            self.slave_state,
            self.pattern,
            self.sequence_number,
            self.remaining,
        )

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not StateRecord:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        return (
            f"StateRecord(pair_id={self.pair_id!r}, "
            f"master_state={self.master_state!r}, "
            f"slave_state={self.slave_state!r}, "
            f"pattern={self.pattern!r}, "
            f"sequence_number={self.sequence_number!r}, "
            f"remaining={self.remaining!r})"
        )

    def __getstate__(self) -> tuple:
        # Records cross the pool boundary inside bug reports:
        # materialise so the wire format stays identical to the
        # historical eager dataclass pickles.
        return (
            self.pair_id,
            self.master_state,
            self.slave_state,
            self.pattern,
            self.sequence_number,
            self.remaining,
        )

    def __setstate__(self, state: tuple) -> None:
        self.__init__(*state)

    def describe(self) -> str:
        """Render in the paper's notation, e.g.
        ``CP1 = (m2, s1, p1->p2->p3, 2, p3)``."""
        pattern_text = "->".join(self.pattern) if self.pattern else "(empty)"
        remaining_text = "->".join(self.remaining) if self.remaining else "(done)"
        return (
            f"CP{self.pair_id} = ({self.master_state}, {self.slave_state}, "
            f"{pattern_text}, {self.sequence_number}, {remaining_text})"
        )


@dataclass
class _PairTracking:
    pattern: TestPattern
    issued: int = 0
    master_state: str = "m:init"
    slave_state: str = "s:absent"
    slave_tid: int | None = None


@dataclass
class ProcessStateRecorder:
    """Tracks Definition 2 records for every pair in a run."""

    _pairs: dict[int, _PairTracking] = field(default_factory=dict)

    def register_pair(self, pattern: TestPattern) -> None:
        """Start tracking a master-thread/slave-task pair."""
        if pattern.pattern_id in self._pairs:
            raise DetectorError(
                f"pair {pattern.pattern_id} already registered"
            )
        self._pairs[pattern.pattern_id] = _PairTracking(pattern=pattern)

    def pairs(self) -> list[int]:
        return sorted(self._pairs)

    def note_issue(self, pair_id: int, master_state: str) -> None:
        """A remote command for ``pair_id`` was issued; advance SN.

        ``master_state`` is the master-side state label at issue time —
        "the last state of a master process before it enters a state that
        issues remote commands".
        """
        tracking = self._tracking(pair_id)
        tracking.issued += 1
        tracking.master_state = master_state

    def note_slave_state(
        self, pair_id: int, state: TaskState | str, tid: int | None = None
    ) -> None:
        """Update the observed slave-task state for the pair."""
        tracking = self._tracking(pair_id)
        tracking.slave_state = (
            state.value if isinstance(state, TaskState) else str(state)
        )
        if tid is not None:
            tracking.slave_tid = tid

    def slave_tid(self, pair_id: int) -> int | None:
        return self._tracking(pair_id).slave_tid

    def record(self, pair_id: int) -> StateRecord:
        """Snapshot the pair's current five-tuple — lazily: the record
        keeps the pattern and SN, and slices no tuple until read."""
        tracking = self._tracking(pair_id)
        return StateRecord.from_pattern(
            pair_id=pair_id,
            master_state=tracking.master_state,
            slave_state=tracking.slave_state,
            source=tracking.pattern,
            sequence_number=tracking.issued,
        )

    def snapshot(self) -> list[StateRecord]:
        """Records for every pair, ordered by pair id (the bug-report
        dump)."""
        return [self.record(pair_id) for pair_id in self.pairs()]

    def _tracking(self, pair_id: int) -> _PairTracking:
        try:
            return self._pairs[pair_id]
        except KeyError:
            raise DetectorError(f"unknown pair {pair_id}") from None
