"""Task bodies as generator coroutines.

A task program is a Python generator function taking a
:class:`TaskContext` and yielding :class:`Syscall` values.  The kernel
resumes the generator for one syscall at a time, so *every* interleaving
of task progress is an explicit scheduling decision — the substitution
this reproduction makes for real hardware nondeterminism (see DESIGN.md).

Example::

    def spin(ctx):
        for _ in range(3):
            yield Compute(5)     # burn 5 compute units
            yield YieldCpu()     # let equal-priority tasks run
        yield Exit(0)

Syscalls are small frozen dataclasses rather than an enum + payload so
that type checks in the kernel dispatcher stay obvious.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generator

from repro.errors import ServiceError


@dataclass(frozen=True)
class Syscall:
    """Base class for values a task program may yield."""


@dataclass(frozen=True)
class Compute(Syscall):
    """Consume ``units`` compute steps before the next syscall.

    The kernel charges one unit per scheduling step, so a task yielding
    ``Compute(5)`` occupies five steps (unless preempted between them).
    """

    units: int

    def __post_init__(self) -> None:
        if self.units < 1:
            raise ServiceError(f"Compute units must be >= 1, got {self.units}")


@dataclass(frozen=True)
class YieldCpu(Syscall):
    """Voluntarily give up the CPU (back of the ready queue).

    This is the ``yield()`` of the Fig. 1 example — *not* the TY kernel
    service, which terminates the running task.
    """


@dataclass(frozen=True)
class Sleep(Syscall):
    """Sleep for ``ticks`` simulated ticks."""

    ticks: int

    def __post_init__(self) -> None:
        if self.ticks < 1:
            raise ServiceError(f"Sleep ticks must be >= 1, got {self.ticks}")


@dataclass(frozen=True)
class Acquire(Syscall):
    """Acquire a named kernel synchronization object (blocking)."""

    resource: str


@dataclass(frozen=True)
class Release(Syscall):
    """Release a named kernel synchronization object."""

    resource: str


@dataclass(frozen=True)
class MemRead(Syscall):
    """Read a u16 from shared memory; the value is sent into the
    generator as the result of the ``yield``."""

    address: int


@dataclass(frozen=True)
class MemWrite(Syscall):
    """Write a u16 to shared memory."""

    address: int
    value: int


@dataclass(frozen=True)
class QSend(Syscall):
    """Send a word to a kernel message queue (blocks while full)."""

    queue: str
    value: int

    def __post_init__(self) -> None:
        if not 0 <= self.value < 2**32:
            raise ServiceError(f"QSend value {self.value} not a u32")


@dataclass(frozen=True)
class QRecv(Syscall):
    """Receive a word from a kernel message queue (blocks while empty).

    The received value arrives as the result of the ``yield``.
    """

    queue: str


@dataclass(frozen=True)
class Exit(Syscall):
    """Terminate the task normally with an exit value."""

    value: object = None


@dataclass
class TaskContext:
    """Facilities a task program may use besides syscalls.

    Only immutable identity and a scratch dict are exposed; everything
    with side effects goes through syscalls so the kernel sees it.
    """

    tid: int
    name: str
    priority: int
    #: Program-private scratch space (survives across yields).
    scratch: dict

    def __init__(self, tid: int, name: str, priority: int) -> None:
        self.tid = tid
        self.name = name
        self.priority = priority
        self.scratch = {}


#: Type of a task program: called with the context, returns the coroutine.
TaskProgram = Callable[[TaskContext], Generator[Syscall, object, None]]


#: Compute steps of the default task body.  Finite: pCore tasks "perform
#: sub-functions" and terminate; an immortal default would make lower
#: priority tasks starve by construction under strict priority
#: scheduling (see :func:`forever_program` when immortality is wanted).
IDLE_PROGRAM_STEPS = 24


def idle_program(ctx: TaskContext) -> Generator[Syscall, object, None]:
    """The default task body: a short polite compute loop, then exit.

    Tasks created by lifecycle-only stress patterns run this; it makes
    observable progress, yields at every step so the scheduler can
    interleave, and finishes on its own if no TD/TY arrives first.
    """
    del ctx
    for _ in range(IDLE_PROGRAM_STEPS):
        yield Compute(1)
        yield YieldCpu()
    yield Exit(0)


def forever_program(ctx: TaskContext) -> Generator[Syscall, object, None]:
    """A program that computes forever in small slices (never exits).

    For tests and scenarios that need the task alive until an explicit
    TD/TY — note that under preemptive priority scheduling an immortal
    task starves everything below its priority.
    """
    del ctx
    while True:
        yield Compute(1)
        yield YieldCpu()
