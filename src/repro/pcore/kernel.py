"""The pCore kernel: a stepped core model running tasks and services.

Each :meth:`PCoreKernel.step` performs (in order):

1. wake due sleepers (skipped outright while no task is SLEEPING: the
   kernel keeps the set of sleeping tids wherever a task enters or
   leaves that state),
2. run the garbage collector when its interval elapses,
3. process **one** pending remote service request (commands interleave
   with task execution at step granularity — the interleaving pTest's
   merger manipulates),
4. dispatch and execute one scheduling step of the highest-priority
   READY task.

Two calls stand in for runs of steps.  :meth:`PCoreKernel.fast_forward`
applies a compute-only run (steps that only count down the RUNNING
task's ``compute_remaining``) at once.  :meth:`PCoreKernel.run_steps`
takes up to a given number of steps, each compute-only run through
``fast_forward`` and every other step through :meth:`PCoreKernel.step`,
and returns early after a step on which the kernel halted or
:meth:`PCoreKernel.parked` holds (every live task SUSPENDED).  Its first
compute-only run may go on past that number, to a second bound, and then
ends the call.

Crash semantics (test case 1): pCore sizes its internal memory so that
``max_tasks`` TCBs and stacks always fit.  If an allocation fails while
the live-task count is under the limit, the kernel's accounting has been
corrupted — with the buggy garbage collector this is exactly what the
accumulated leak produces — and the kernel **panics**: it halts, stops
answering the bridge, and records the panic reason for the bug detector.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import KernelError
from repro.pcore.memory import (
    DEFAULT_STACK_BYTES,
    GarbageCollector,
    GarbageItem,
    KernelMemory,
    PCORE_INTERNAL_MEMORY_BYTES,
    TCB_BYTES,
)
from repro.pcore.ipc import KMessageQueue
from repro.pcore.programs import (
    Acquire,
    Compute,
    Exit,
    MemRead,
    MemWrite,
    QRecv,
    QSend,
    Release,
    Sleep,
    Syscall,
    TaskContext,
    TaskProgram,
    YieldCpu,
    idle_program,
)
from repro.pcore.scheduler import PriorityScheduler
from repro.pcore.services import (
    SERVICE_NAMES,
    STATUS_LABELS,
    ServiceCode,
    ServiceRequest,
    ServiceResult,
    ServiceStats,
    ServiceStatus,
)
from repro.pcore.sync import KMutex, KSemaphore, SyncObject
from repro.pcore.tcb import TaskControlBlock, TaskState
from repro.sim.memory import SharedMemory
from repro.sim.trace import (
    CATEGORY_KERNEL,
    CATEGORY_SERVICE,
    CATEGORY_TASK,
    Tracer,
)


@dataclass(frozen=True)
class KernelConfig:
    """Static kernel parameters (paper defaults).

    ``memory_bytes`` can be shrunk in experiments to shorten the time to
    exhaustion under the GC fault without changing the fault itself.
    """

    max_tasks: int = 16
    memory_bytes: int = PCORE_INTERNAL_MEMORY_BYTES
    gc_interval: int = 32
    buggy_gc: bool = False
    #: Steps charged when the dispatcher switches to a different task.
    #: pCore's "multiset context switch" (reference [9] of the paper)
    #: exists to keep this small; the ablation bench sweeps it.
    context_switch_cost: int = 0
    #: Mutex priority inheritance: a blocked waiter donates its priority
    #: to the owner until release.  Off by default (classic pCore); the
    #: priority-inversion study toggles it.
    priority_inheritance: bool = False

    def __post_init__(self) -> None:
        if self.max_tasks < 1:
            raise KernelError("max_tasks must be >= 1")
        if self.context_switch_cost < 0:
            raise KernelError("context_switch_cost must be >= 0")
        needed = self.max_tasks * (DEFAULT_STACK_BYTES + TCB_BYTES)
        if needed > self.memory_bytes:
            raise KernelError(
                f"memory_bytes={self.memory_bytes} cannot hold "
                f"{self.max_tasks} tasks ({needed} bytes needed)"
            )


@dataclass
class PCoreKernel:
    """The slave runtime system (implements :class:`repro.sim.soc.Core`)."""

    config: KernelConfig = field(default_factory=KernelConfig)
    name: str = "pcore"
    tracer: Tracer | None = None
    shared_memory: SharedMemory | None = None
    reply_handler: Callable[[ServiceResult], None] | None = None

    tasks: dict[int, TaskControlBlock] = field(default_factory=dict)
    resources: dict[str, SyncObject] = field(default_factory=dict)
    msg_queues: dict[str, KMessageQueue] = field(default_factory=dict)
    scheduler: PriorityScheduler = field(default_factory=PriorityScheduler)
    stats: ServiceStats = field(default_factory=ServiceStats)
    memory: KernelMemory = field(init=False)
    gc: GarbageCollector = field(init=False)
    inbox: deque[ServiceRequest] = field(default_factory=deque)

    panic_reason: str | None = None
    panicked_at: int | None = None
    steps: int = 0
    idle_steps: int = 0
    now: int = 0
    #: Remaining dispatcher-switch penalty steps (context_switch_cost).
    _switch_penalty: int = 0
    _last_dispatched: int | None = None
    context_switches: int = 0
    _programs: dict[str, TaskProgram] = field(default_factory=dict)
    #: Values to send into a task generator at its next resume.
    _pending_send: dict[int, object] = field(default_factory=dict)
    #: Messages of senders parked on a full queue, completed at wake.
    _parked_sends: dict[int, tuple[str, int]] = field(default_factory=dict)
    #: Tids of the SLEEPING tasks (``_wake_sleepers`` skips its scan
    #: while this is empty).
    _sleepers: set[int] = field(default_factory=set)

    def __post_init__(self) -> None:
        self.memory = KernelMemory(capacity=self.config.memory_bytes)
        self.gc = GarbageCollector(self.memory, buggy=self.config.buggy_gc)
        self._programs["idle"] = idle_program

    # -- program registry -------------------------------------------------

    def register_program(self, name: str, program: TaskProgram) -> None:
        """Make a task body available to TC requests under ``name``."""
        self._programs[name] = program

    # -- Core protocol -----------------------------------------------------

    def is_halted(self) -> bool:
        return self.panic_reason is not None

    def panic(self, reason: str) -> None:
        """Halt the kernel; the crash is what the bug detector looks for."""
        if self.panic_reason is not None:
            return
        self.panic_reason = reason
        self.panicked_at = self.now
        self._trace(CATEGORY_KERNEL, event="panic", reason=reason)

    def step(self, now: int) -> bool:
        """One kernel scheduling step (see module docstring)."""
        if self.is_halted():
            return False
        self.now = now
        self.steps += 1
        try:
            self._wake_sleepers()
            if self.config.gc_interval and self.steps % self.config.gc_interval == 0:
                self.gc.collect()
            worked = self._process_one_request()
            worked |= self._run_one_task_step()
        except KernelError as error:
            # An internal invariant broke: that *is* a kernel crash.
            self.panic(f"kernel fault: {error}")
            return True
        if not worked:
            self.idle_steps += 1
        return worked

    def fast_forward(self, now: int, limit: int) -> int:
        """Apply up to ``limit`` compute-only steps in one call.

        The steps at ``now, now + 1, ...`` are compute-only while each
        would only decrement the RUNNING task's ``compute_remaining``:
        empty inbox, no switch penalty, no higher-priority READY task,
        no sleeper due and no GC pass with pending items.  The longest
        such run (at most ``limit``) is applied with exactly the
        counters, ``now`` and task fields that as many :meth:`step`
        calls would leave; returns its length, 0 when the next step must
        run normally.
        """
        task = self.scheduler.current
        if (
            self.is_halted()
            or self.inbox
            or self._switch_penalty
            or task is None
            or task.state is not TaskState.RUNNING
            or self.scheduler.should_preempt()
        ):
            return 0
        steps = min(limit, task.compute_remaining)
        for other in self.tasks.values():
            if other.state is TaskState.SLEEPING and other.wakeup_at is not None:
                steps = min(steps, other.wakeup_at - now)
        interval = self.config.gc_interval
        if interval and self.gc.pending:
            steps = min(steps, interval - 1 - self.steps % interval)
        if steps <= 0:
            return 0
        self.steps += steps
        self.now = now + steps - 1
        task.steps_run += steps
        task.last_progress = self.now
        task.compute_remaining -= steps
        return steps

    def run_steps(self, now: int, limit: int, reach: int | None = None) -> int:
        """Take up to ``limit`` steps at ``now, now + 1, ...``; returns
        how many were taken.

        The compute-only run from ``now`` is applied first through
        :meth:`fast_forward`, and may go on to ``reach`` steps (at least
        ``limit``; default ``limit``): a run that passes ``limit`` ends
        the call.  After that no step passes ``limit``: each step goes
        through :meth:`step`, and the compute-only run after it through
        :meth:`fast_forward`, since a run ends where its next step is
        not compute-only.  The call returns after a step on which the
        kernel halted or is :meth:`parked`.
        """
        taken = self.fast_forward(now, limit if reach is None else reach)
        while taken < limit:
            self.step(now + taken)
            taken += 1
            if taken == limit or self.panic_reason is not None or self.parked():
                break
            taken += self.fast_forward(now + taken, limit - taken)
        return taken

    def parked(self) -> bool:
        """Whether every live task is SUSPENDED (or none is live).

        A current or READY task answers ``False`` without a scan: the
        scheduler's current task is the RUNNING one, and its ready list
        holds only READY tasks."""
        scheduler = self.scheduler
        if scheduler.current is not None or len(scheduler):
            return False
        return all(task.state is TaskState.SUSPENDED for task in self.tasks.values())

    # -- remote interface --------------------------------------------------

    def submit(self, request: ServiceRequest) -> None:
        """Queue a remote service request (called by the bridge)."""
        self.inbox.append(request)

    def _reply(self, result: ServiceResult) -> None:
        self._trace(
            CATEGORY_SERVICE,
            service=SERVICE_NAMES[result.request.service],
            target=result.request.target,
            status=STATUS_LABELS[result.status],
            value=result.value,
        )
        if self.reply_handler is not None:
            self.reply_handler(result)

    def _process_one_request(self) -> bool:
        if not self.inbox:
            return False
        request = self.inbox.popleft()
        result = self.execute_service(request)
        self._reply(result)
        return True

    # -- service semantics ---------------------------------------------------

    def execute_service(self, request: ServiceRequest) -> ServiceResult:
        """Validate and apply one Table I service."""
        if self.is_halted():
            return self._result(request, ServiceStatus.KERNEL_DOWN)
        result = _SERVICE_HANDLERS[request.service](self, request)
        self.stats.note(result)
        return result

    def _result(
        self,
        request: ServiceRequest,
        status: ServiceStatus,
        value: int | None = None,
        detail: str = "",
    ) -> ServiceResult:
        return ServiceResult(
            request=request,
            status=status,
            value=value,
            detail=detail,
            completed_at=self.now,
        )

    def live_tasks(self) -> list[TaskControlBlock]:
        """Tasks that can still run.  :meth:`_terminate` removes a task
        from ``tasks`` as it marks it TERMINATED, so that is all of
        them."""
        return list(self.tasks.values())

    def _lookup(self, request: ServiceRequest) -> TaskControlBlock | None:
        if request.target is None:
            return None
        return self.tasks.get(request.target)

    def _svc_create(self, request: ServiceRequest) -> ServiceResult:
        if len(self.live_tasks()) >= self.config.max_tasks:
            return self._result(request, ServiceStatus.TASK_LIMIT)
        priority = request.priority
        if priority is None or priority < 0:
            return self._result(
                request, ServiceStatus.BAD_PRIORITY, detail="missing priority"
            )
        if any(t.priority == priority for t in self.live_tasks()):
            return self._result(
                request,
                ServiceStatus.BAD_PRIORITY,
                detail=f"priority {priority} already in use",
            )
        tcb_block = self.memory.allocate(TCB_BYTES, tag="tcb")
        stack_block = (
            self.memory.allocate(DEFAULT_STACK_BYTES, tag="stack")
            if tcb_block is not None
            else None
        )
        if tcb_block is None or stack_block is None:
            if tcb_block is not None:
                self.memory.free(tcb_block)
            # pCore's sizing invariant says this must always succeed for
            # a legal task count; failing here means the GC leak ate the
            # heap -> the crash of test case 1.
            self.panic(
                f"task_create allocation failed with "
                f"{len(self.live_tasks())} live tasks "
                f"(leaked={self.gc.leaked_bytes}B, "
                f"free={self.memory.free_bytes}B)"
            )
            return self._result(request, ServiceStatus.NO_MEMORY)
        tid = self._allocate_tid(request.target)
        program_name = request.program or "idle"
        program = self._programs.get(program_name, idle_program)
        context = TaskContext(
            tid=tid, name=f"{program_name}-{tid}", priority=priority
        )
        task = TaskControlBlock(
            tid=tid,
            name=context.name,
            priority=priority,
            program=program(context),
            stack_block=stack_block,
            tcb_block=tcb_block,
            created_at=self.now,
            last_progress=self.now,
        )
        self.tasks[tid] = task
        self.scheduler.enqueue(task)
        self._trace(CATEGORY_TASK, event="create", tid=tid, priority=priority)
        return self._result(request, ServiceStatus.OK, value=tid)

    def _allocate_tid(self, requested: int | None) -> int:
        # Smallest free tid, like pCore's fixed 16-entry task table; tids
        # recycle after termination (and stay within the bridge protocol's
        # 8-bit target field under any workload).
        if requested is not None and requested not in self.tasks:
            return requested
        tid = 1
        while tid in self.tasks:
            tid += 1
        return tid

    def _svc_delete(self, request: ServiceRequest) -> ServiceResult:
        task = self._lookup(request)
        if task is None or not task.alive:
            return self._result(request, ServiceStatus.NO_SUCH_TASK)
        # A remote delete kills the task mid-flight (it never finished on
        # its own) — the condition the buggy GC mishandles.
        self._terminate(task, reason="task_delete", midflight=True)
        return self._result(request, ServiceStatus.OK, value=task.tid)

    def _svc_suspend(self, request: ServiceRequest) -> ServiceResult:
        task = self._lookup(request)
        if task is None or not task.alive:
            return self._result(request, ServiceStatus.NO_SUCH_TASK)
        if task.state is TaskState.SUSPENDED:
            return self._result(
                request, ServiceStatus.ILLEGAL_STATE, detail="already suspended"
            )
        if task.state is TaskState.BLOCKED:
            task.suspended_while_blocked = True
            waiting_on = task.waiting_on or ""
            if waiting_on.startswith("q:"):
                queue = self.msg_queues.get(waiting_on[2:])
                if queue is not None:
                    queue.drop_waiter(task.tid)
            else:
                resource = self.resources.get(waiting_on)
                if resource is not None:
                    resource.drop_waiter(task.tid)
        elif task.state is TaskState.READY:
            self.scheduler.remove(task)
        elif task.state is TaskState.RUNNING:
            self.scheduler.remove(task)
        elif task.state is TaskState.SLEEPING:
            task.wakeup_at = None
            self._sleepers.discard(task.tid)
        task.transition(TaskState.SUSPENDED)
        self._trace(CATEGORY_TASK, event="suspend", tid=task.tid)
        return self._result(request, ServiceStatus.OK, value=task.tid)

    def _svc_resume(self, request: ServiceRequest) -> ServiceResult:
        task = self._lookup(request)
        if task is None or not task.alive:
            return self._result(request, ServiceStatus.NO_SUCH_TASK)
        if task.state is not TaskState.SUSPENDED:
            # "The task resuming operation can be performed only when the
            # corresponding task is suspended."
            return self._result(
                request,
                ServiceStatus.ILLEGAL_STATE,
                detail=f"cannot resume from {task.state.value}",
            )
        if task.suspended_while_blocked and task.waiting_on is not None:
            # The task was suspended mid-wait: re-attempt the operation
            # it was parked on; on failure it goes straight back to the
            # wait queue.
            task.suspended_while_blocked = False
            if not self._retry_parked_wait(task):
                task.transition(TaskState.BLOCKED)
                self._trace(
                    CATEGORY_TASK, event="resume_reblocked", tid=task.tid
                )
                return self._result(request, ServiceStatus.OK, value=task.tid)
            task.waiting_on = None
        task.transition(TaskState.READY)
        self.scheduler.enqueue(task)
        self._trace(CATEGORY_TASK, event="resume", tid=task.tid)
        return self._result(request, ServiceStatus.OK, value=task.tid)

    def _svc_chanprio(self, request: ServiceRequest) -> ServiceResult:
        task = self._lookup(request)
        if task is None or not task.alive:
            return self._result(request, ServiceStatus.NO_SUCH_TASK)
        priority = request.priority
        if priority is None or priority < 0:
            return self._result(
                request, ServiceStatus.BAD_PRIORITY, detail="missing priority"
            )
        if any(
            t.priority == priority and t.tid != task.tid
            for t in self.live_tasks()
        ):
            return self._result(
                request,
                ServiceStatus.BAD_PRIORITY,
                detail=f"priority {priority} already in use",
            )
        old = task.priority
        task.priority = priority
        if task.state is TaskState.READY:
            self.scheduler.remove(task)
            self.scheduler.enqueue(task)
        self._trace(
            CATEGORY_TASK,
            event="chanprio",
            tid=task.tid,
            old=old,
            new=priority,
        )
        return self._result(request, ServiceStatus.OK, value=task.tid)

    def _svc_yield(self, request: ServiceRequest) -> ServiceResult:
        # Table I: TY terminates the current running task.  A remote TY
        # carrying a target tid models that task invoking task_yield the
        # next time it runs (the committer uses this form so each pair's
        # TY ends its own task); without a target, the scheduler's
        # current task — or the one that would run next — terminates.
        if request.target is not None:
            task = self.tasks.get(request.target)
            if task is None or not task.alive:
                return self._result(request, ServiceStatus.NO_SUCH_TASK)
            self._terminate(task, reason="task_yield")
            return self._result(request, ServiceStatus.OK, value=task.tid)
        task = self.scheduler.current
        if task is None or not task.alive:
            task = self.scheduler.peek()
        if task is None or not task.alive:
            return self._result(request, ServiceStatus.NO_RUNNING_TASK)
        self._terminate(task, reason="task_yield")
        return self._result(request, ServiceStatus.OK, value=task.tid)

    # -- internal state changes ----------------------------------------------

    def _resource(self, name: str) -> SyncObject:
        if name not in self.resources:
            self.resources[name] = KMutex(name=name)
        return self.resources[name]

    def add_semaphore(self, name: str, count: int) -> KSemaphore:
        """Pre-register a counting semaphore (mutexes auto-create)."""
        semaphore = KSemaphore(name=name, count=count)
        self.resources[name] = semaphore
        return semaphore

    def add_message_queue(self, name: str, capacity: int = 8) -> KMessageQueue:
        """Pre-register a task-to-task message queue."""
        queue = KMessageQueue(name=name, capacity=capacity)
        self.msg_queues[name] = queue
        return queue

    def _queue(self, name: str) -> KMessageQueue:
        if name not in self.msg_queues:
            self.msg_queues[name] = KMessageQueue(name=name)
        return self.msg_queues[name]

    def _detach_everywhere(self, task: TaskControlBlock) -> None:
        """Remove a dying task from scheduler and sync structures."""
        self.scheduler.remove(task)
        for resource in self.resources.values():
            resource.drop_waiter(task.tid)
            promoted = resource.forfeit(task.tid)
            if promoted is not None:
                self._unblock(promoted, resource.name)
        for queue in self.msg_queues.values():
            queue.drop_waiter(task.tid)
        self._parked_sends.pop(task.tid, None)

    def _terminate(
        self, task: TaskControlBlock, reason: str, midflight: bool = False
    ) -> None:
        """Tear a task down: detach, mark TERMINATED, reap its memory.

        pCore reaps immediately on any termination path (task_delete,
        task_yield, or the program finishing); the blocks go to the
        garbage collector, whose buggy variant leaks the mid-flight
        kills.
        """
        self._detach_everywhere(task)
        self._sleepers.discard(task.tid)
        task.transition(TaskState.TERMINATED)
        task.terminated_at = self.now
        self.tasks.pop(task.tid, None)
        blocks = [
            block
            for block in (task.tcb_block, task.stack_block)
            if block is not None
        ]
        if blocks:
            self.gc.defer(
                GarbageItem(
                    tid=task.tid, blocks=blocks, killed_midflight=midflight
                )
            )
        self._trace(
            CATEGORY_TASK,
            event="terminate",
            tid=task.tid,
            reason=reason,
            midflight=midflight,
        )

    def _retry_parked_wait(self, task: TaskControlBlock) -> bool:
        """Re-attempt the blocking operation a resumed task was parked
        on; returns ``True`` when it now completes."""
        waiting_on = task.waiting_on or ""
        if waiting_on.startswith("q:"):
            queue = self._queue(waiting_on[2:])
            if task.tid in self._parked_sends:
                _name, value = self._parked_sends[task.tid]
                if not queue.try_send(task.tid, value):
                    return False
                del self._parked_sends[task.tid]
                self._wake_queue_receiver(queue)
                return True
            delivered, value = queue.try_recv(task.tid)
            if not delivered:
                return False
            self._pending_send[task.tid] = value
            self._wake_queue_sender(queue)
            return True
        return self._resource(waiting_on).try_acquire(task.tid)

    def _donate_priority(self, waiter: TaskControlBlock, resource) -> None:
        """Mutex priority inheritance: boost the owner to the waiter's
        priority so a medium-priority task cannot starve the owner (the
        classic priority-inversion fix)."""
        owner_tid = getattr(resource, "owner", None)
        if owner_tid is None:
            return
        owner = self.tasks.get(owner_tid)
        if owner is None or not owner.alive:
            return
        if owner.priority >= waiter.priority:
            return
        if owner.base_priority is None:
            owner.base_priority = owner.priority
        self._set_priority(owner, waiter.priority)
        self._trace(
            CATEGORY_TASK,
            event="priority_inherit",
            tid=owner.tid,
            boosted_to=waiter.priority,
        )

    def _set_priority(self, task: TaskControlBlock, priority: int) -> None:
        """Change a task's effective priority, keeping queues ordered."""
        task.priority = priority
        if task.state is TaskState.READY:
            self.scheduler.remove(task)
            self.scheduler.enqueue(task)

    def _unblock(self, tid: int, resource_name: str) -> None:
        task = self.tasks.get(tid)
        if task is None or task.state is not TaskState.BLOCKED:
            return
        if task.waiting_on != resource_name:
            return
        task.waiting_on = None
        task.transition(TaskState.READY)
        self.scheduler.enqueue(task)

    def _wake_sleepers(self) -> None:
        if not self._sleepers:
            return
        for task in self.tasks.values():
            if (
                task.state is TaskState.SLEEPING
                and task.wakeup_at is not None
                and task.wakeup_at <= self.now
            ):
                task.wakeup_at = None
                self._sleepers.discard(task.tid)
                task.transition(TaskState.READY)
                self.scheduler.enqueue(task)

    # -- task execution ----------------------------------------------------

    def _run_one_task_step(self) -> bool:
        if self._switch_penalty > 0:
            # The dispatcher is mid context switch: the step is consumed
            # saving/restoring task state, not running anything.
            self._switch_penalty -= 1
            return True
        current = self.scheduler.current
        if (
            current is None
            or current.state is not TaskState.RUNNING
            or self.scheduler.should_preempt()
        ):
            if current is not None and current.state is TaskState.RUNNING:
                self.scheduler.preemptions += 1
                current.transition(TaskState.READY)
                self.scheduler.yield_current()
                self.scheduler.enqueue(current)
            dispatched = self.scheduler.dispatch()
            if dispatched is None:
                return False
            dispatched.transition(TaskState.RUNNING)
            if dispatched.tid != self._last_dispatched:
                self.context_switches += 1
                self._last_dispatched = dispatched.tid
                if self.config.context_switch_cost > 0:
                    self._switch_penalty = self.config.context_switch_cost
                    return True  # this step starts the switch
            current = dispatched
        self._execute_step(current)
        return True

    def _execute_step(self, task: TaskControlBlock) -> None:
        task.steps_run += 1
        task.last_progress = self.now
        if task.compute_remaining > 0:
            task.compute_remaining -= 1
            return
        if task.program is None:
            return  # placeholder task: occupies the CPU harmlessly
        try:
            send_value = self._pending_send.pop(task.tid, None)
            syscall = task.program.send(send_value)
        except StopIteration:
            self._terminate(task, reason="returned")
            self.scheduler.yield_current()
            return
        self._apply_syscall(task, syscall)

    def _apply_syscall(self, task: TaskControlBlock, syscall: Syscall) -> None:
        if isinstance(syscall, Compute):
            task.compute_remaining = syscall.units - 1
        elif isinstance(syscall, YieldCpu):
            task.transition(TaskState.READY)
            self.scheduler.yield_current()
            self.scheduler.enqueue(task)
        elif isinstance(syscall, Sleep):
            task.wakeup_at = self.now + syscall.ticks
            task.transition(TaskState.SLEEPING)
            self._sleepers.add(task.tid)
            self.scheduler.yield_current()
        elif isinstance(syscall, Acquire):
            resource = self._resource(syscall.resource)
            if not resource.try_acquire(task.tid):
                task.waiting_on = syscall.resource
                task.transition(TaskState.BLOCKED)
                self.scheduler.yield_current()
                if self.config.priority_inheritance:
                    self._donate_priority(task, resource)
        elif isinstance(syscall, Release):
            resource = self._resource(syscall.resource)
            woken = resource.release(task.tid)
            if woken is not None:
                self._unblock(woken, syscall.resource)
            if task.base_priority is not None:
                # Boost ends with the release (single-level inheritance).
                self._set_priority(task, task.base_priority)
                task.base_priority = None
        elif isinstance(syscall, MemRead):
            if self.shared_memory is None:
                raise KernelError("no shared memory attached for MemRead")
            self._pending_send[task.tid] = self.shared_memory.read_u16(
                syscall.address
            )
        elif isinstance(syscall, MemWrite):
            if self.shared_memory is None:
                raise KernelError("no shared memory attached for MemWrite")
            self.shared_memory.write_u16(syscall.address, syscall.value)
        elif isinstance(syscall, QSend):
            queue = self._queue(syscall.queue)
            if queue.try_send(task.tid, syscall.value):
                self._wake_queue_receiver(queue)
            else:
                self._parked_sends[task.tid] = (syscall.queue, syscall.value)
                task.waiting_on = f"q:{syscall.queue}"
                task.transition(TaskState.BLOCKED)
                self.scheduler.yield_current()
        elif isinstance(syscall, QRecv):
            queue = self._queue(syscall.queue)
            delivered, value = queue.try_recv(task.tid)
            if delivered:
                self._pending_send[task.tid] = value
                self._wake_queue_sender(queue)
            else:
                task.waiting_on = f"q:{syscall.queue}"
                task.transition(TaskState.BLOCKED)
                self.scheduler.yield_current()
        elif isinstance(syscall, Exit):
            task.exit_value = syscall.value
            self._terminate(task, reason="exit")
            self.scheduler.yield_current()
        else:
            raise KernelError(f"unknown syscall {type(syscall).__name__}")

    def _wake_queue_receiver(self, queue: KMessageQueue) -> None:
        """An item arrived: complete one parked receiver's QRecv."""
        woken = queue.pop_recv_waiter()
        if woken is None:
            return
        delivered, value = queue.try_recv(woken)
        if not delivered:  # pragma: no cover - item was just enqueued
            raise KernelError(f"queue {queue.name}: wake without item")
        self._pending_send[woken] = value
        self._unblock_from_queue(woken, queue.name)
        self._wake_queue_sender(queue)

    def _wake_queue_sender(self, queue: KMessageQueue) -> None:
        """A slot freed: complete one parked sender's QSend."""
        woken = queue.pop_send_waiter()
        if woken is None:
            return
        parked = self._parked_sends.pop(woken, None)
        if parked is None:  # pragma: no cover - parked with its wait entry
            raise KernelError(f"queue {queue.name}: waiter without message")
        _name, value = parked
        if not queue.try_send(woken, value):  # pragma: no cover
            raise KernelError(f"queue {queue.name}: wake without slot")
        self._unblock_from_queue(woken, queue.name)
        self._wake_queue_receiver(queue)

    def _unblock_from_queue(self, tid: int, queue_name: str) -> None:
        task = self.tasks.get(tid)
        if task is None or task.state is not TaskState.BLOCKED:
            return
        if task.waiting_on != f"q:{queue_name}":
            return
        task.waiting_on = None
        task.transition(TaskState.READY)
        self.scheduler.enqueue(task)

    # -- introspection for the detector ---------------------------------------

    def wait_for_edges(self) -> list[tuple[int, int, str]]:
        """Edges ``(waiter_tid, owner_tid, resource)`` of the wait-for
        graph, from mutex ownership.  Semaphores are ownerless and add no
        edges."""
        edges = []
        for resource in self.resources.values():
            owner = getattr(resource, "owner", None)
            if owner is None:
                continue
            for waiter in resource.waiters:
                edges.append((waiter, owner, resource.name))
        return edges

    def task_states(self) -> dict[int, TaskState]:
        return {tid: task.state for tid, task in self.tasks.items()}

    def describe_tasks(self) -> list[str]:
        return [task.describe() for task in self.tasks.values()]

    def _trace(self, category: str, **payload: object) -> None:
        if self.tracer is not None:
            self.tracer.record(self.now, self.name, category, **payload)


#: Table I service -> handler, built once rather than as a dict of
#: bound methods on every request.
_SERVICE_HANDLERS = {
    ServiceCode.TC: PCoreKernel._svc_create,
    ServiceCode.TD: PCoreKernel._svc_delete,
    ServiceCode.TS: PCoreKernel._svc_suspend,
    ServiceCode.TR: PCoreKernel._svc_resume,
    ServiceCode.TCH: PCoreKernel._svc_chanprio,
    ServiceCode.TY: PCoreKernel._svc_yield,
}
