"""Preemptive priority-based scheduling, as in pCore.

pCore "always schedules the task with highest priority to run"; each
task has a unique priority.  The ready structure is therefore a simple
priority-ordered list; preemption happens whenever a higher-priority
task becomes READY while a lower one is RUNNING.  Equal priorities never
occur for live tasks (the kernel enforces uniqueness), but the scheduler
breaks hypothetical ties FIFO for robustness.

The ready list is always sorted by descending priority: ``enqueue``
bisect-inserts to the right of every task of equal or higher priority
(the order an append plus a stable sort would give), and nothing else
adds to the list or reorders it.  The kernel re-enqueues a READY task
whose priority changes.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field

from repro.errors import KernelError
from repro.pcore.tcb import TaskControlBlock, TaskState


def _descending_priority(task: TaskControlBlock) -> int:
    return -task.priority


@dataclass
class PriorityScheduler:
    """Ready-queue management for the pCore kernel.

    Higher ``priority`` value runs first.  The RUNNING task is tracked
    here; state transitions themselves are performed by the kernel so the
    scheduler stays a pure policy object.
    """

    _ready: list[TaskControlBlock] = field(default_factory=list)
    current: TaskControlBlock | None = None
    dispatches: int = 0
    preemptions: int = 0

    def enqueue(self, task: TaskControlBlock) -> None:
        """Add a READY task to the ready structure, keeping it sorted
        (bisect insertion after every task of equal or higher priority).

        A task already queued is rejected; TCBs compare by identity, so
        this membership check costs one pointer comparison per entry."""
        if task.state is not TaskState.READY:
            raise KernelError(
                f"cannot enqueue task {task.tid} in state {task.state.value}"
            )
        if task in self._ready:
            raise KernelError(f"task {task.tid} already queued")
        insort(self._ready, task, key=_descending_priority)

    def remove(self, task: TaskControlBlock) -> None:
        """Drop a task from the ready structure (suspend/delete paths)."""
        if task in self._ready:
            self._ready.remove(task)
        if self.current is task:
            self.current = None

    def peek(self) -> TaskControlBlock | None:
        """Highest-priority READY task without dispatching it."""
        return self._ready[0] if self._ready else None

    def should_preempt(self) -> bool:
        """True when a READY task outranks the RUNNING one."""
        if self.current is None:
            return bool(self._ready)
        head = self.peek()
        return head is not None and head.priority > self.current.priority

    def dispatch(self) -> TaskControlBlock | None:
        """Pop the highest-priority READY task and mark it current.

        The caller transitions states; ``dispatch`` only reorders the
        bookkeeping.  Returns ``None`` when the ready list is empty.
        """
        if not self._ready:
            return None
        task = self._ready.pop(0)
        self.current = task
        self.dispatches += 1
        return task

    def yield_current(self) -> None:
        """The RUNNING task gave up the CPU voluntarily."""
        self.current = None

    def ready_tasks(self) -> list[TaskControlBlock]:
        """Snapshot of the ready list, highest priority first."""
        return list(self._ready)

    def __len__(self) -> int:
        return len(self._ready)
