"""Table I: pCore kernel services for task management.

=============  ====  =====================================
task_create    TC    Create a task
task_delete    TD    Delete a task
task_suspend   TS    Suspend a task
task_resume    TR    Resume a task
task_chanprio  TCH   Change the priority of a task
task_yield     TY    Terminate the current running task
=============  ====  =====================================

Note TY's semantics per the paper's Table I: it terminates the *current
running* task (a voluntary-exit service), not a "give up the CPU" call —
that one is the :class:`~repro.pcore.programs.YieldCpu` syscall.

Each service is requested remotely by the master through the bridge; the
kernel validates the request against the task state machine (e.g.
"the task resuming operation can be performed only when the
corresponding task is suspended") and answers with a
:class:`ServiceResult`.

:class:`ServiceCode` and :class:`ServiceStatus` hash by identity, which
agrees with an enum's identity equality and keeps the per-command table
lookups (the codec's opcodes, the kernel's handlers, the labels below)
off the Python-level ``Enum.__hash__``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class ServiceCode(enum.Enum):
    """The six Table I services, keyed by the paper's abbreviations."""

    TC = "task_create"
    TD = "task_delete"
    TS = "task_suspend"
    TR = "task_resume"
    TCH = "task_chanprio"
    TY = "task_yield"

    __hash__ = object.__hash__

    @classmethod
    def from_abbreviation(cls, abbreviation: str) -> "ServiceCode":
        return cls[abbreviation]


#: Abbreviation -> full service name, exactly Table I.
SERVICE_ABBREVIATIONS: dict[str, str] = {
    code.name: code.value for code in ServiceCode
}

#: Service -> its abbreviation.  The per-request paths (reply trace,
#: :class:`ServiceStats`) read labels here: ``Enum.name`` is a
#: Python-level descriptor.
SERVICE_NAMES: dict[ServiceCode, str] = {code: code.name for code in ServiceCode}


class ServiceStatus(enum.Enum):
    """Outcome of a service invocation."""

    OK = "ok"
    #: Target task id does not exist (or is already terminated).
    NO_SUCH_TASK = "no_such_task"
    #: The task-state precondition failed (e.g. TR on a non-suspended task).
    ILLEGAL_STATE = "illegal_state"
    #: TC beyond the 16-task limit.
    TASK_LIMIT = "task_limit"
    #: TC could not allocate TCB/stack memory.
    NO_MEMORY = "no_memory"
    #: Priority already in use (pCore priorities are unique) or invalid.
    BAD_PRIORITY = "bad_priority"
    #: TY with no running task to terminate.
    NO_RUNNING_TASK = "no_running_task"
    #: The kernel has panicked; no services are possible.
    KERNEL_DOWN = "kernel_down"

    __hash__ = object.__hash__


#: Status -> its label (the enum value), precomputed like
#: :data:`SERVICE_NAMES`.
STATUS_LABELS: dict[ServiceStatus, str] = {
    status: status.value for status in ServiceStatus
}


@dataclass(slots=True)
class ServiceRequest:
    """A remote service invocation as carried by the bridge.

    ``target`` is the slave-side task id for TD/TS/TR/TCH; for TC it is
    the *requested* tid (the master names tasks so the one-to-one
    master-thread/slave-task correspondence holds); TY takes no target.

    A slotted value, compared by value and not hashable; nothing
    mutates one after construction.
    """

    service: ServiceCode
    target: int | None = None
    #: TC: priority for the new task; TCH: the new priority.
    priority: int | None = None
    #: TC: registered program name to run (see kernel program registry).
    program: str | None = None
    #: Issuing master thread (for state recording).
    issuer: int | None = None
    #: Sequence number within the merged test pattern.
    sequence: int | None = None

    def describe(self) -> str:
        parts = [self.service.name]
        if self.target is not None:
            parts.append(f"t{self.target}")
        if self.priority is not None:
            parts.append(f"prio={self.priority}")
        if self.program:
            parts.append(self.program)
        return ":".join(parts)


@dataclass(slots=True)
class ServiceResult:
    """The kernel's reply to one :class:`ServiceRequest`.

    A slotted value, compared by value and not hashable; nothing
    mutates one after construction.
    """

    request: ServiceRequest
    status: ServiceStatus
    #: TC: tid of the created task; TY: tid of the terminated task.
    value: int | None = None
    detail: str = ""
    completed_at: int = 0

    @property
    def ok(self) -> bool:
        return self.status is ServiceStatus.OK


@dataclass
class ServiceStats:
    """Per-service invocation counters kept by the kernel."""

    invoked: dict[str, int] = field(default_factory=dict)
    succeeded: dict[str, int] = field(default_factory=dict)
    failed: dict[str, int] = field(default_factory=dict)

    def note(self, result: ServiceResult) -> None:
        name = SERVICE_NAMES[result.request.service]
        self.invoked[name] = self.invoked.get(name, 0) + 1
        bucket = self.succeeded if result.ok else self.failed
        bucket[name] = bucket.get(name, 0) + 1

    def table(self) -> list[tuple[str, str, int, int, int]]:
        """Rows of (abbr, full name, invoked, ok, failed) — Table I plus
        live counters, used by the E1 bench."""
        rows = []
        for code in ServiceCode:
            name = code.name
            rows.append(
                (
                    name,
                    code.value,
                    self.invoked.get(name, 0),
                    self.succeeded.get(name, 0),
                    self.failed.get(name, 0),
                )
            )
        return rows
