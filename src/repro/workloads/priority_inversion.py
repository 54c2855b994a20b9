"""Priority inversion: the classic three-task starvation pattern.

A low-priority task holds a mutex; a medium-priority compute hog
preempts it; a high-priority task blocks on the mutex and now waits on
the hog — effectively inverted priorities (the Mars Pathfinder bug).
With the kernel's ``priority_inheritance`` switch on, the blocked
high-priority waiter donates its priority to the low-priority owner,
which then outruns the hog and releases promptly.

Used by the ``priority_inversion`` scenario and the priority-inheritance
ablation (A2).
"""

from __future__ import annotations

from typing import Generator

from repro.errors import ReproError
from repro.pcore.programs import (
    Acquire,
    Compute,
    Exit,
    Release,
    Sleep,
    Syscall,
    TaskContext,
)

PI_LOCK = "pi_lock"


def make_low_locker_program(hold_steps: int = 120):
    """Low priority: take the lock, work under it, release, exit."""
    if hold_steps < 1:
        raise ReproError(f"hold_steps must be >= 1, got {hold_steps}")

    def program(ctx: TaskContext) -> Generator[Syscall, object, None]:
        del ctx
        yield Acquire(PI_LOCK)
        yield Compute(hold_steps)
        yield Release(PI_LOCK)
        yield Exit(0)

    return program


def make_hog_program(burn_steps: int = 3_000):
    """Medium priority: a long uninterruptible-ish compute burst."""
    if burn_steps < 1:
        raise ReproError(f"burn_steps must be >= 1, got {burn_steps}")

    def program(ctx: TaskContext) -> Generator[Syscall, object, None]:
        del ctx
        # Start slightly late so the low task can take the lock first.
        yield Sleep(8)
        yield Compute(burn_steps)
        yield Exit(0)

    return program


def make_high_waiter_program(start_delay: int = 16, work_steps: int = 10):
    """High priority: arrives last, needs the lock briefly."""
    if start_delay < 1:
        raise ReproError(f"start_delay must be >= 1, got {start_delay}")

    def program(ctx: TaskContext) -> Generator[Syscall, object, None]:
        del ctx
        yield Sleep(start_delay)
        yield Acquire(PI_LOCK)
        yield Compute(work_steps)
        yield Release(PI_LOCK)
        yield Exit(0)

    return program
