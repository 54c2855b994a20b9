"""Stateful property testing of the pCore kernel (hypothesis).

A random interleaving of Table I services and kernel steps — exactly
what pTest throws at the real kernel — must never violate the kernel's
own invariants, whatever the order:

* live tasks have unique tids and unique priorities,
* the ready queue holds exactly the READY tasks, sorted by priority,
* at most one task is RUNNING, and it is the scheduler's current,
* ``parked()`` (which answers from the scheduler while a task is
  current or READY) equals a scan for every live task SUSPENDED,
* memory accounting: allocated + free == capacity, never negative,
* with the correct GC, memory is fully reclaimed once all tasks die,
* the kernel only panics when the buggy GC is enabled,
* mutex owners are live tasks; waiters are BLOCKED on that resource.
"""

from __future__ import annotations

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.pcore.kernel import KernelConfig, PCoreKernel
from repro.pcore.services import ServiceCode, ServiceRequest
from repro.pcore.tcb import TaskState
from repro.sim.memory import SharedMemory

PRIORITIES = st.integers(min_value=0, max_value=40)
TIDS = st.integers(min_value=0, max_value=20)


class KernelMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.kernel = PCoreKernel(
            config=KernelConfig(max_tasks=8, gc_interval=4),
            shared_memory=SharedMemory(size=8 * 1024),
        )
        self.tick = 0

    # -- actions -----------------------------------------------------------

    @rule(priority=PRIORITIES)
    def create(self, priority: int) -> None:
        self.kernel.execute_service(
            ServiceRequest(service=ServiceCode.TC, priority=priority)
        )

    @rule(target_tid=TIDS)
    def delete(self, target_tid: int) -> None:
        self.kernel.execute_service(
            ServiceRequest(service=ServiceCode.TD, target=target_tid)
        )

    @rule(target_tid=TIDS)
    def suspend(self, target_tid: int) -> None:
        self.kernel.execute_service(
            ServiceRequest(service=ServiceCode.TS, target=target_tid)
        )

    @rule(target_tid=TIDS)
    def resume(self, target_tid: int) -> None:
        self.kernel.execute_service(
            ServiceRequest(service=ServiceCode.TR, target=target_tid)
        )

    @rule(target_tid=TIDS, priority=PRIORITIES)
    def change_priority(self, target_tid: int, priority: int) -> None:
        self.kernel.execute_service(
            ServiceRequest(
                service=ServiceCode.TCH, target=target_tid, priority=priority
            )
        )

    @rule()
    def yield_service(self) -> None:
        self.kernel.execute_service(ServiceRequest(service=ServiceCode.TY))

    @rule(steps=st.integers(min_value=1, max_value=20))
    def run_kernel(self, steps: int) -> None:
        for _ in range(steps):
            self.kernel.step(self.tick)
            self.tick += 1

    # -- invariants -----------------------------------------------------------

    @invariant()
    def no_panic_with_correct_gc(self) -> None:
        assert not self.kernel.is_halted(), self.kernel.panic_reason

    @invariant()
    def unique_priorities_among_live(self) -> None:
        live = self.kernel.live_tasks()
        priorities = [task.priority for task in live]
        assert len(priorities) == len(set(priorities))

    @invariant()
    def ready_queue_consistent(self) -> None:
        ready = self.kernel.scheduler.ready_tasks()
        # Sorted by descending priority.
        assert all(
            ready[i].priority >= ready[i + 1].priority
            for i in range(len(ready) - 1)
        )
        # Exactly the READY tasks, except a just-dispatched current.
        ready_set = {task.tid for task in ready}
        for task in self.kernel.tasks.values():
            if task.state is TaskState.READY:
                current = self.kernel.scheduler.current
                if current is not None and current.tid == task.tid:
                    continue
                assert task.tid in ready_set, task.describe()
            else:
                assert task.tid not in ready_set, task.describe()

    @invariant()
    def at_most_one_running(self) -> None:
        running = [
            task
            for task in self.kernel.tasks.values()
            if task.state is TaskState.RUNNING
        ]
        assert len(running) <= 1
        if running:
            current = self.kernel.scheduler.current
            assert current is not None and current.tid == running[0].tid

    @invariant()
    def parked_equals_the_scan(self) -> None:
        live = self.kernel.live_tasks()
        assert self.kernel.parked() == all(
            task.state is TaskState.SUSPENDED for task in live
        )

    @invariant()
    def memory_accounting_consistent(self) -> None:
        memory = self.kernel.memory
        assert 0 <= memory.allocated_bytes <= memory.capacity
        assert memory.free_bytes == memory.capacity - memory.allocated_bytes

    @invariant()
    def task_limit_respected(self) -> None:
        assert len(self.kernel.live_tasks()) <= self.kernel.config.max_tasks

    @invariant()
    def mutex_owners_and_waiters_consistent(self) -> None:
        for resource in self.kernel.resources.values():
            owner = getattr(resource, "owner", None)
            if owner is not None:
                assert owner in self.kernel.tasks
            for waiter in resource.waiters:
                task = self.kernel.tasks.get(waiter)
                assert task is not None
                assert task.state is TaskState.BLOCKED

    def teardown(self) -> None:
        # Kill everything; with the correct GC all memory must return.
        for tid in list(self.kernel.tasks):
            self.kernel.execute_service(
                ServiceRequest(service=ServiceCode.TD, target=tid)
            )
        self.kernel.gc.collect()
        assert self.kernel.memory.allocated_bytes == 0


KernelMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)
TestKernelStateMachine = KernelMachine.TestCase
