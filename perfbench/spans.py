"""In-memory span recording with self-time accounting.

A span is one timed call into a layer: name, start, end, parent span
and the request it served.  :class:`SpanRecorder` keeps a per-thread
stack of open spans, so nesting is exact and cheap: when a span ends,
its duration is charged to its parent's *child* time, and its own
*self* time is its duration minus the time its children covered.
Recursion (a span nested inside a span of the same name) is handled
the same way — the inner span's self time is counted once, the outer
span's self time excludes it, and a name's inclusive total counts only
its outermost occurrences.

Spans that run on another thread on behalf of the request in flight (the
server thread executing a client's spec) attach to that request's
*anchor* span, so the anchor's self time excludes them too — this is
how ``serve.stream_ms`` becomes "client round trip minus the server's
``execute_spec`` span".

Per-name aggregates (calls, inclusive total, self time) are updated as
spans end, so memory stays bounded however long a run is; the raw spans
themselves are kept up to ``keep`` entries and written out at the end.

:class:`Instrumentation` installs span wrappers around attributes of
classes and modules (the layers' public entry points) and restores the
originals when it exits.  Nothing in the program under test changes.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable


@dataclass
class NameStats:
    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0


class _Frame:
    __slots__ = ("span_id", "parent", "name", "start", "child_ns", "request")

    def __init__(self, span_id, parent, name, start, request):
        self.span_id = span_id
        self.parent = parent
        self.name = name
        self.start = start
        self.child_ns = 0
        self.request = request


@dataclass(frozen=True)
class Span:
    span_id: int
    parent_id: int | None
    name: str
    start_ns: int
    end_ns: int
    request: Any

    def as_dict(self) -> dict[str, Any]:
        return {
            "id": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "request": self.request,
        }


@dataclass
class SpanRecorder:
    """Records spans; see the module docstring for the accounting."""

    keep: int = 50_000
    clock: Callable[[], int] = time.perf_counter_ns
    stats: dict[str, NameStats] = field(default_factory=dict)
    spans: list[Span] = field(default_factory=list)
    dropped: int = 0
    counters: dict[str, int] = field(default_factory=dict)
    #: The request in flight (closed loop: at most one at a time).
    request: Any = None

    def __post_init__(self) -> None:
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._anchor: _Frame | None = None

    def _state(self):
        local = self._local
        try:
            return local.stack, local.depth
        except AttributeError:
            local.stack, local.depth = [], {}
            return local.stack, local.depth

    def enter(self, name: str) -> _Frame:
        stack, depth = self._state()
        parent = stack[-1] if stack else self._anchor
        frame = _Frame(next(self._ids), parent, name, 0, self.request)
        stack.append(frame)
        depth[name] = depth.get(name, 0) + 1
        frame.start = self.clock()
        return frame

    def exit(self, frame: _Frame) -> None:
        end = self.clock()
        stack, depth = self._state()
        popped = stack.pop()
        if popped is not frame:
            raise RuntimeError(
                f"span {frame.name!r} ended out of order (open: {popped.name!r})"
            )
        duration = end - frame.start
        name = frame.name
        depth[name] -= 1
        stats = self.stats.get(name)
        if stats is None:
            stats = self.stats[name] = NameStats()
        stats.calls += 1
        stats.self_ns += duration - frame.child_ns
        if depth[name] == 0:
            stats.total_ns += duration
        parent = frame.parent
        if parent is not None:
            if stack and stack[-1] is parent:
                parent.child_ns += duration
            else:
                with self._lock:  # an anchor owned by another thread
                    parent.child_ns += duration
        if len(self.spans) < self.keep:
            self.spans.append(
                Span(
                    frame.span_id,
                    parent.span_id if parent is not None else None,
                    name,
                    frame.start,
                    end,
                    frame.request,
                )
            )
        else:
            self.dropped += 1

    def anchor(self, frame: _Frame | None) -> None:
        """Make ``frame`` the parent of spans opened on threads with no
        open span of their own (``None`` clears it)."""
        self._anchor = frame

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def self_ms(self, name: str) -> float:
        stats = self.stats.get(name)
        return stats.self_ns / 1e6 if stats else 0.0

    def calls(self, name: str) -> int:
        stats = self.stats.get(name)
        return stats.calls if stats else 0

    def total_self_ns(self) -> int:
        return sum(stats.self_ns for stats in self.stats.values())

    def write(self, path) -> None:
        """Write the kept spans as JSON lines (one span per line)."""
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span.as_dict()) + "\n")


def traced(recorder: SpanRecorder, name: str, fn: Callable) -> Callable:
    """``fn`` wrapped in a span named ``name``."""
    enter, exit_ = recorder.enter, recorder.exit

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            exit_(frame)

    return wrapper


class Instrumentation:
    """Temporarily replaces attributes with wrapped versions.

    ``targets`` are ``(owner, attribute, wrap)`` triples: ``owner`` is a
    class, module or (frozen) instance, and ``wrap`` maps the original
    callable to its replacement (``functools.partial(traced, recorder,
    name)`` for a plain span).  Use as a context manager: the originals
    are restored on exit, even after an error.
    """

    def __init__(self, targets: Iterable[tuple[Any, str, Callable]]):
        self.targets = list(targets)
        self._saved: list[tuple[Any, str, Any]] = []

    def __enter__(self) -> "Instrumentation":
        for owner, attr, wrap in self.targets:
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            _assign(owner, attr, wrap(original))
        return self

    def __exit__(self, *exc_info: object) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            _assign(owner, attr, original)


def _assign(owner: Any, attr: str, value: Any) -> None:
    try:
        setattr(owner, attr, value)
    except AttributeError:  # frozen dataclass instance
        object.__setattr__(owner, attr, value)
