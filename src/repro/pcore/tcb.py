"""Task control blocks and the pCore task state machine.

A pCore task ("a thread in the POSIX standard" per the paper) is created
with a unique priority by a remote thread and moves through the states
below.  The detector reads these states directly — they are the ``qs``
field of the Definition 2 record.

A :class:`TaskControlBlock` compares (and hashes) by identity: two TCBs
with equal fields are still two tasks.  Ready-queue membership and
removal therefore cost a pointer comparison, not a field-by-field one.

:class:`TaskState` hashes by identity too, which agrees with an enum's
identity equality: the per-transition :data:`LEGAL_TRANSITIONS` lookup
and the recorder's :data:`STATE_LABELS` skip the Python-level
``Enum.__hash__``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Generator

from repro.errors import ServiceError


class TaskState(enum.Enum):
    """Lifecycle states of a pCore task."""

    #: Runnable, waiting for the CPU.
    READY = "ready"
    #: Currently executing on the DSP.
    RUNNING = "running"
    #: Suspended by task_suspend; only task_resume makes it READY again.
    SUSPENDED = "suspended"
    #: Blocked on a synchronization object (mutex/semaphore).
    BLOCKED = "blocked"
    #: Sleeping until a wakeup tick.
    SLEEPING = "sleeping"
    #: Finished (exited, yielded via TY, or deleted).
    TERMINATED = "terminated"

    __hash__ = object.__hash__


#: State -> its label (the enum value), precomputed for the per-change
#: recorder write: ``Enum.value`` is a Python-level descriptor.
STATE_LABELS: dict[TaskState, str] = {state: state.value for state in TaskState}


#: States from which a task can never run again.
DEAD_STATES = frozenset({TaskState.TERMINATED})

#: Legal state transitions; the kernel asserts each move against this map.
LEGAL_TRANSITIONS: dict[TaskState, frozenset[TaskState]] = {
    TaskState.READY: frozenset(
        {TaskState.RUNNING, TaskState.SUSPENDED, TaskState.TERMINATED}
    ),
    TaskState.RUNNING: frozenset(
        {
            TaskState.READY,
            TaskState.SUSPENDED,
            TaskState.BLOCKED,
            TaskState.SLEEPING,
            TaskState.TERMINATED,
        }
    ),
    # SUSPENDED -> BLOCKED: a task suspended while waiting on a resource
    # re-enters the wait queue when resumed and the resource is still held.
    TaskState.SUSPENDED: frozenset(
        {TaskState.READY, TaskState.BLOCKED, TaskState.TERMINATED}
    ),
    TaskState.BLOCKED: frozenset(
        {TaskState.READY, TaskState.SUSPENDED, TaskState.TERMINATED}
    ),
    TaskState.SLEEPING: frozenset(
        {TaskState.READY, TaskState.SUSPENDED, TaskState.TERMINATED}
    ),
    TaskState.TERMINATED: frozenset(),
}


@dataclass(eq=False)
class TaskControlBlock:
    """Bookkeeping for one pCore task (compared by identity).

    Attributes
    ----------
    tid:
        Task identifier, unique among *live* tasks.
    name:
        Human-readable name for traces (e.g. ``"qsort-3"``).
    priority:
        Scheduling priority; **higher value runs first**.  pCore forks
        each task "with a unique priority"; the kernel enforces
        uniqueness among live tasks.
    state:
        Current :class:`TaskState`.
    program:
        The task body as a generator (see :mod:`repro.pcore.programs`);
        ``None`` for pure service-target placeholder tasks.
    """

    tid: int
    name: str
    priority: int
    state: TaskState = TaskState.READY
    program: Generator | None = None
    stack_block: object | None = None  # MemoryBlock; kept loose to avoid cycle
    tcb_block: object | None = None
    created_at: int = 0
    terminated_at: int | None = None
    #: Simulation time of the last observable progress (ran a step).
    last_progress: int = 0
    #: Total scheduling steps this task has executed.
    steps_run: int = 0
    #: Resource the task is blocked on (``None`` unless BLOCKED).
    waiting_on: str | None = None
    #: Wakeup time when SLEEPING.
    wakeup_at: int | None = None
    #: Pending compute units for the current Compute syscall.
    compute_remaining: int = 0
    #: True when the task was suspended while BLOCKED: on resume it goes
    #: back to the blocked queue rather than READY.
    suspended_while_blocked: bool = False
    #: Original priority while boosted by priority inheritance
    #: (``None`` = not currently boosted).
    base_priority: int | None = None
    exit_value: object | None = None

    def transition(self, new_state: TaskState) -> None:
        """Move to ``new_state``, enforcing the legal-transition map."""
        if new_state is self.state:
            return
        if new_state not in LEGAL_TRANSITIONS[self.state]:
            raise ServiceError(
                f"task {self.tid} ({self.name}): illegal transition "
                f"{self.state.value} -> {new_state.value}"
            )
        self.state = new_state

    @property
    def alive(self) -> bool:
        return self.state not in DEAD_STATES

    @property
    def runnable(self) -> bool:
        return self.state is TaskState.READY

    def describe(self) -> str:
        """Short status line used in bug-report dumps."""
        extra = ""
        if self.state is TaskState.BLOCKED and self.waiting_on:
            extra = f" waiting_on={self.waiting_on}"
        return (
            f"tid={self.tid} name={self.name} prio={self.priority} "
            f"state={self.state.value} steps={self.steps_run}{extra}"
        )
