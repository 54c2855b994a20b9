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
bug reports — exactly the Fig. 4 presentation.  A snapshot only happens
when a run ends in a detection, so each record is a plain value holding
its five tuple fields.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import DetectorError
from repro.pcore.tcb import STATE_LABELS, TaskState
from repro.ptest.patterns import TestPattern


@dataclass(frozen=True, slots=True)
class StateRecord:
    """One CP record (Fig. 4)."""

    pair_id: int
    master_state: str
    slave_state: str
    pattern: tuple[str, ...]
    sequence_number: int
    remaining: tuple[str, ...]

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
            STATE_LABELS[state] if isinstance(state, TaskState) else str(state)
        )
        if tid is not None:
            tracking.slave_tid = tid

    def slave_tid(self, pair_id: int) -> int | None:
        return self._tracking(pair_id).slave_tid

    def record(self, pair_id: int) -> StateRecord:
        """Snapshot the pair's current five-tuple."""
        tracking = self._tracking(pair_id)
        return StateRecord(
            pair_id=pair_id,
            master_state=tracking.master_state,
            slave_state=tracking.slave_state,
            pattern=tracking.pattern.symbols,
            sequence_number=tracking.issued,
            remaining=tracking.pattern.subsequence_after(tracking.issued),
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
