"""Structured tracing of simulation runs.

The bug detector's reproduction story depends on knowing exactly what
happened and in what order: every interesting action (command issued,
service executed, task state change, mailbox post, kernel panic) is
recorded as a :class:`TraceEvent`.  The :class:`Tracer` keeps a bounded
ring of events with category filters; dumps are plain dicts so reports
can serialise them.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import islice
from typing import Iterable

from repro.errors import SimulationError

#: Well-known categories; free-form strings are allowed too.
CATEGORY_COMMAND = "command"
CATEGORY_SERVICE = "service"
CATEGORY_TASK = "task"
CATEGORY_MAILBOX = "mailbox"
CATEGORY_KERNEL = "kernel"
CATEGORY_DETECTOR = "detector"
CATEGORY_MASTER = "master"


@dataclass(slots=True)
class TraceEvent:
    """One timestamped event.

    ``core`` identifies where it happened (``"master"``, ``"slave"`` or a
    component name); ``payload`` is a small dict of primitives.

    A slotted value, compared by value and not hashable; nothing
    mutates one after construction.
    """

    time: int
    core: str
    category: str
    payload: dict

    def describe(self) -> str:
        """One-line human-readable rendering."""
        fields = " ".join(f"{k}={v}" for k, v in sorted(self.payload.items()))
        return f"[{self.time:>8}] {self.core:<6} {self.category:<8} {fields}"


@dataclass
class Tracer:
    """Bounded in-memory event recorder.

    Parameters
    ----------
    capacity:
        Ring size, at least 1; the oldest events are discarded beyond
        it.  Large enough by default to hold a whole stress-test run.
    """

    capacity: int = 100_000
    events: deque[TraceEvent] = field(default_factory=deque, repr=False)
    recorded: int = 0
    discarded: int = 0

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise SimulationError(f"tracer capacity must be >= 1, got {self.capacity}")

    def record(
        self, time: int, core: str, category: str, **payload: object
    ) -> None:
        """Append an event.

        ``payload`` is already a fresh dict per call, so the event keeps
        it as is."""
        if len(self.events) >= self.capacity:
            self.events.popleft()
            self.discarded += 1
        self.events.append(
            TraceEvent(time=time, core=core, category=category, payload=payload)
        )
        self.recorded += 1

    def filter(
        self,
        category: str | None = None,
        core: str | None = None,
        since: int | None = None,
    ) -> list[TraceEvent]:
        """Return recorded events matching all given criteria."""
        result = []
        for event in self.events:
            if category is not None and event.category != category:
                continue
            if core is not None and event.core != core:
                continue
            if since is not None and event.time < since:
                continue
            result.append(event)
        return result

    def tail(self, count: int = 50) -> list[TraceEvent]:
        """The most recent ``count`` events (for bug-report dumps)."""
        if count <= 0:
            return []
        newest = list(islice(reversed(self.events), count))
        newest.reverse()
        return newest

    def dump(self, events: Iterable[TraceEvent] | None = None) -> list[dict]:
        """Serialise events to plain dicts."""
        source = self.events if events is None else events
        return [
            {
                "time": event.time,
                "core": event.core,
                "category": event.category,
                **event.payload,
            }
            for event in source
        ]

    def clear(self) -> None:
        self.events.clear()
