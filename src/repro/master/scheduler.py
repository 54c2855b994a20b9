"""Round-robin time-sharing over master threads.

Linux on the ARM core time-shares its threads; the model is a quantum
round-robin: the current thread runs ``quantum`` steps (or until it
blocks), then the next runnable thread takes over.  WAITING threads are
skipped until their reply arrives; STALLED threads (mailbox full) stay
runnable so they can retry.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SimulationError
from repro.master.thread import MasterThread


@dataclass
class TimeSharingScheduler:
    """Quantum round-robin over a thread list."""

    quantum: int = 4
    threads: list[MasterThread] = field(default_factory=list)
    _cursor: int = 0
    _slice_used: int = 0
    context_switches: int = 0

    def __post_init__(self) -> None:
        if self.quantum < 1:
            raise SimulationError(f"quantum must be >= 1, got {self.quantum}")

    def add(self, thread: MasterThread) -> None:
        self.threads.append(thread)

    def all_done(self) -> bool:
        return all(thread.done for thread in self.threads)

    def _advance_cursor(self) -> None:
        if self.threads:
            self._cursor = (self._cursor + 1) % len(self.threads)
        self._slice_used = 0
        self.context_switches += 1

    def pick(self) -> MasterThread | None:
        """Choose the thread to run this step (or ``None`` if all
        blocked/done).  Quantum exhaustion rotates the cursor."""
        if not self.threads:
            return None
        if self._slice_used >= self.quantum:
            self._advance_cursor()
        for _ in range(len(self.threads)):
            thread = self.threads[self._cursor]
            if thread.runnable:
                self._slice_used += 1
                return thread
            self._advance_cursor()
        return None

    def notify_blocked(self, thread: MasterThread) -> None:
        """The current thread blocked: rotate away from it."""
        if self.threads and self.threads[self._cursor] is thread:
            self._advance_cursor()
