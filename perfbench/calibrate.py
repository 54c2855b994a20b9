"""Host-speed calibration for the benchmark's timings.

The benchmark runs on a few cores of a shared host whose speed drifts:
a fixed pure-Python loop reads 30-40% slower from one minute to the
next, and the simulator's requests slow down with it.  Two sets of runs
of the same code then disagree by more than any useful bound, however
long each run is.

So every timed run interleaves a fixed *reference* computation with its
requests: a toy tick loop (message-passing nodes stepped by method
calls, deques and dicts, the same kind of interpreter work as the
simulator) that no code under ``src/`` touches.  A :class:`Calibration`
runs reference chunks between requests until they have taken
:data:`SHARE` of the elapsed time, and :meth:`Calibration.factor` is
:data:`NOMINAL_MS` over the mean chunk time.  Timings are reported
multiplied by it (rates divided by it): they read as on a host where one
chunk takes :data:`NOMINAL_MS`.  A change to the program moves the
calibrated numbers by the same factor as the raw ones; a change in the
host's speed moves the chunk time too and cancels out.  The reference
time is excluded from the measured wall time.

Throughput takes the factor of the whole run.  A latency median takes
each request's own :meth:`Calibration.local_factor`, from the chunks run
next to it: the host's speed also changes *within* a run, and the median
of the raw latencies moves with how that speed is spread over the run,
which a single factor does not cancel (measured over 8 runs of
``tick_heavy``: spread of ``request_ms_p50`` 0.068 with the run's
factor, 0.030 with local factors).
"""

from __future__ import annotations

import statistics
import time
from collections import deque

#: Ticks of one reference chunk (about 5.5 ms on a 2-vCPU x86 host).
CHUNK_TICKS = 1500
#: Mean chunk time, in ms, of the host the calibrated numbers refer to.
NOMINAL_MS = 5.5
#: Share of a timed run spent on reference chunks.
SHARE = 0.05
#: A request's local factor pools the chunks run after it and after the
#: this many requests either side of it.
LOCAL = 3


class _Node:
    __slots__ = ("ident", "state", "inbox", "peers")

    def __init__(self, ident: int):
        self.ident = ident
        self.state = 0
        self.inbox: deque[int] = deque()
        self.peers: tuple[_Node, ...] = ()

    def step(self, tick: int, log: dict[int, int]) -> int:
        if self.inbox:
            self.state = (self.state * 31 + self.inbox.popleft()) & 0xFFFFF
        if (tick + self.ident) % 3 == 0:
            self.peers[(tick >> 2) % len(self.peers)].inbox.append(self.state ^ tick)
        if self.state & 7 == 0:
            log[self.state & 63] = log.get(self.state & 63, 0) + 1
        return self.state


def reference_chunk(ticks: int = CHUNK_TICKS) -> int:
    """The fixed reference work: 8 nodes passing messages for ``ticks``."""
    nodes = [_Node(i) for i in range(8)]
    for node in nodes:
        node.peers = tuple(peer for peer in nodes if peer is not node)
    log: dict[int, int] = {}
    acc = 0
    for tick in range(ticks):
        for node in nodes:
            acc ^= node.step(tick, log)
    return acc ^ len(log)


#: ``reference_chunk()``'s result: a wrong one means the reference no
#: longer does the work its nominal time was set for.
EXPECTED = 192827


class Calibration:
    """Reference chunk times gathered over one timed run."""

    def __init__(self) -> None:
        self.samples_ns: list[int] = []
        #: The chunks of each :meth:`keep_up` call; the closed loop makes
        #: one call after each request, so ``groups[i]`` follows request i.
        self.groups: list[list[int]] = []

    @property
    def total_ns(self) -> int:
        return sum(self.samples_ns)

    def chunk(self) -> None:
        start = time.perf_counter_ns()
        result = reference_chunk()
        self.samples_ns.append(time.perf_counter_ns() - start)
        if result != EXPECTED:
            raise RuntimeError(f"reference chunk returned {result}, not {EXPECTED}")

    def keep_up(self, elapsed_ns: int) -> None:
        """Run chunks until they make up :data:`SHARE` of ``elapsed_ns``
        plus their own time (at least one chunk)."""
        first = len(self.samples_ns)
        self.chunk()
        while self.total_ns < SHARE * (elapsed_ns + self.total_ns):
            self.chunk()
        self.groups.append(self.samples_ns[first:])

    def mean_ms(self) -> float:
        return statistics.fmean(self.samples_ns) / 1e6

    def factor(self) -> float:
        """Multiply a time by this (divide a rate) to calibrate it."""
        return NOMINAL_MS / self.mean_ms()

    def local_factor(self, index: int) -> float:
        """:meth:`factor` from the groups of requests ``index - LOCAL``
        to ``index + LOCAL`` only."""
        window = self.groups[max(0, index - LOCAL) : index + LOCAL + 1]
        return NOMINAL_MS * 1e6 / statistics.fmean(ns for group in window for ns in group)
