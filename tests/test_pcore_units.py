"""Unit tests for pCore building blocks: TCB, scheduler, memory, sync."""

from __future__ import annotations

import pytest

from repro.errors import KernelError, ServiceError
from repro.pcore.memory import (
    GarbageCollector,
    GarbageItem,
    KernelMemory,
    PCORE_INTERNAL_MEMORY_BYTES,
)
from repro.pcore.scheduler import PriorityScheduler
from repro.pcore.sync import KMutex, KSemaphore
from repro.pcore.tcb import TaskControlBlock, TaskState


def make_task(tid: int, priority: int, state=TaskState.READY) -> TaskControlBlock:
    return TaskControlBlock(tid=tid, name=f"t{tid}", priority=priority, state=state)


class TestTCB:
    def test_legal_transition(self):
        task = make_task(1, 5)
        task.transition(TaskState.RUNNING)
        assert task.state is TaskState.RUNNING

    def test_illegal_transition_raises(self):
        task = make_task(1, 5)
        with pytest.raises(ServiceError):
            task.transition(TaskState.BLOCKED)  # READY -> BLOCKED illegal

    def test_terminated_is_terminal(self):
        task = make_task(1, 5)
        task.transition(TaskState.TERMINATED)
        with pytest.raises(ServiceError):
            task.transition(TaskState.READY)

    def test_self_transition_is_noop(self):
        task = make_task(1, 5)
        task.transition(TaskState.READY)
        assert task.state is TaskState.READY

    def test_suspended_can_reblock(self):
        task = make_task(1, 5, state=TaskState.SUSPENDED)
        task.transition(TaskState.BLOCKED)
        assert task.state is TaskState.BLOCKED

    def test_describe_mentions_waiting_resource(self):
        task = make_task(1, 5, state=TaskState.SUSPENDED)
        task.transition(TaskState.BLOCKED)
        task.waiting_on = "fork1"
        assert "fork1" in task.describe()

    def test_alive_and_runnable(self):
        task = make_task(1, 5)
        assert task.alive and task.runnable
        task.transition(TaskState.TERMINATED)
        assert not task.alive

    def test_tcbs_compare_by_identity(self):
        task, twin = make_task(1, 5), make_task(1, 5)
        assert task == task and task != twin
        assert len({task, twin}) == 2


class TestPriorityScheduler:
    def test_dispatch_order_by_priority(self):
        scheduler = PriorityScheduler()
        for tid, priority in ((1, 3), (2, 9), (3, 5)):
            scheduler.enqueue(make_task(tid, priority))
        assert scheduler.dispatch().tid == 2
        assert scheduler.peek().tid == 3

    def test_enqueue_requires_ready(self):
        scheduler = PriorityScheduler()
        with pytest.raises(KernelError):
            scheduler.enqueue(make_task(1, 1, state=TaskState.SUSPENDED))

    def test_double_enqueue_rejected(self):
        scheduler = PriorityScheduler()
        task = make_task(1, 1)
        scheduler.enqueue(task)
        with pytest.raises(KernelError):
            scheduler.enqueue(task)

    def test_should_preempt(self):
        scheduler = PriorityScheduler()
        low = make_task(1, 1)
        scheduler.enqueue(low)
        current = scheduler.dispatch()
        current.transition(TaskState.RUNNING)
        assert not scheduler.should_preempt()
        scheduler.enqueue(make_task(2, 9))
        assert scheduler.should_preempt()

    def test_remove_clears_current(self):
        scheduler = PriorityScheduler()
        task = make_task(1, 1)
        scheduler.enqueue(task)
        scheduler.dispatch()
        scheduler.remove(task)
        assert scheduler.current is None

    def test_yield_current(self):
        scheduler = PriorityScheduler()
        task = make_task(1, 1)
        scheduler.enqueue(task)
        scheduler.dispatch()
        scheduler.yield_current()
        assert scheduler.current is None

    def test_len_counts_ready(self):
        scheduler = PriorityScheduler()
        scheduler.enqueue(make_task(1, 1))
        scheduler.enqueue(make_task(2, 2))
        assert len(scheduler) == 2

    def test_equal_priorities_dispatch_fifo(self):
        scheduler = PriorityScheduler()
        for tid, priority in ((1, 5), (2, 9), (3, 5), (4, 1), (5, 5), (6, 9)):
            scheduler.enqueue(make_task(tid, priority))
        assert [task.tid for task in scheduler.ready_tasks()] == [2, 6, 1, 3, 5, 4]
        assert [scheduler.dispatch().tid for _ in range(6)] == [2, 6, 1, 3, 5, 4]

    def test_equal_field_tcbs_are_two_entries(self):
        scheduler = PriorityScheduler()
        first, second = make_task(1, 5), make_task(1, 5)
        scheduler.enqueue(first)
        scheduler.enqueue(second)
        assert len(scheduler) == 2
        scheduler.remove(second)
        (left,) = scheduler.ready_tasks()
        assert left is first


class TestKernelMemory:
    def test_default_capacity_is_160k(self):
        assert KernelMemory().capacity == PCORE_INTERNAL_MEMORY_BYTES

    def test_allocate_and_free_roundtrip(self):
        memory = KernelMemory(capacity=1024)
        block = memory.allocate(100, tag="x")
        assert block is not None
        assert memory.allocated_bytes == 100
        memory.free(block)
        assert memory.allocated_bytes == 0
        assert memory.largest_hole() == 1024

    def test_exhaustion_returns_none(self):
        memory = KernelMemory(capacity=128)
        assert memory.allocate(128) is not None
        assert memory.allocate(1) is None
        assert memory.failures == 1

    def test_first_fit_reuses_holes(self):
        memory = KernelMemory(capacity=300)
        first = memory.allocate(100)
        memory.allocate(100)
        memory.free(first)
        third = memory.allocate(50)
        assert third.offset == 0  # reused the first hole

    def test_coalescing_adjacent_holes(self):
        memory = KernelMemory(capacity=300)
        blocks = [memory.allocate(100) for _ in range(3)]
        for block in blocks:
            memory.free(block)
        assert memory.largest_hole() == 300

    def test_double_free_rejected(self):
        memory = KernelMemory(capacity=100)
        block = memory.allocate(10)
        memory.free(block)
        with pytest.raises(KernelError):
            memory.free(block)

    def test_bad_sizes_rejected(self):
        memory = KernelMemory(capacity=100)
        with pytest.raises(KernelError):
            memory.allocate(0)
        with pytest.raises(KernelError):
            KernelMemory(capacity=0)


class TestGarbageCollector:
    def _item(self, memory: KernelMemory, midflight: bool) -> GarbageItem:
        block = memory.allocate(64)
        return GarbageItem(tid=1, blocks=[block], killed_midflight=midflight)

    def test_correct_collector_reclaims_everything(self):
        memory = KernelMemory(capacity=1024)
        gc = GarbageCollector(memory)
        gc.defer(self._item(memory, midflight=True))
        gc.defer(self._item(memory, midflight=False))
        reclaimed = gc.collect()
        assert reclaimed == 128
        assert memory.allocated_bytes == 0
        assert gc.leaked_bytes == 0

    def test_buggy_collector_leaks_midflight_kills(self):
        memory = KernelMemory(capacity=1024)
        gc = GarbageCollector(memory, buggy=True)
        gc.defer(self._item(memory, midflight=True))
        gc.defer(self._item(memory, midflight=False))
        reclaimed = gc.collect()
        assert reclaimed == 64  # only the natural death
        assert gc.leaked_bytes == 64
        assert gc.leaked_items == 1
        assert memory.allocated_bytes == 64  # the leak stays allocated

    def test_pending_bytes(self):
        memory = KernelMemory(capacity=1024)
        gc = GarbageCollector(memory)
        gc.defer(self._item(memory, midflight=False))
        assert gc.pending_bytes == 64
        gc.collect()
        assert gc.pending_bytes == 0


class TestKMutex:
    def test_acquire_free(self):
        mutex = KMutex(name="m")
        assert mutex.try_acquire(1)
        assert mutex.owner == 1

    def test_contention_queues_waiter(self):
        mutex = KMutex(name="m")
        mutex.try_acquire(1)
        assert not mutex.try_acquire(2)
        assert mutex.waiters == [2]
        assert mutex.contentions == 1

    def test_release_promotes_fifo(self):
        mutex = KMutex(name="m")
        mutex.try_acquire(1)
        mutex.try_acquire(2)
        mutex.try_acquire(3)
        promoted = mutex.release(1)
        assert promoted == 2
        assert mutex.owner == 2
        assert mutex.waiters == [3]

    def test_release_by_non_owner_raises(self):
        mutex = KMutex(name="m")
        mutex.try_acquire(1)
        with pytest.raises(KernelError):
            mutex.release(2)

    def test_recursive_acquire_raises(self):
        mutex = KMutex(name="m")
        mutex.try_acquire(1)
        with pytest.raises(KernelError):
            mutex.try_acquire(1)

    def test_forfeit_promotes(self):
        mutex = KMutex(name="m")
        mutex.try_acquire(1)
        mutex.try_acquire(2)
        assert mutex.forfeit(1) == 2
        assert mutex.owner == 2

    def test_forfeit_by_non_owner_is_noop(self):
        mutex = KMutex(name="m")
        mutex.try_acquire(1)
        assert mutex.forfeit(2) is None
        assert mutex.owner == 1

    def test_drop_waiter(self):
        mutex = KMutex(name="m")
        mutex.try_acquire(1)
        mutex.try_acquire(2)
        mutex.drop_waiter(2)
        assert mutex.waiters == []


class TestKSemaphore:
    def test_counting_behaviour(self):
        semaphore = KSemaphore(name="s", count=2)
        assert semaphore.try_acquire(1)
        assert semaphore.try_acquire(2)
        assert not semaphore.try_acquire(3)
        assert semaphore.waiters == [3]

    def test_release_hands_to_waiter_without_increment(self):
        semaphore = KSemaphore(name="s", count=1)
        semaphore.try_acquire(1)
        semaphore.try_acquire(2)
        woken = semaphore.release(1)
        assert woken == 2
        assert semaphore.count == 0  # handed over, not incremented

    def test_release_without_waiters_increments(self):
        semaphore = KSemaphore(name="s", count=0)
        assert semaphore.release(1) is None
        assert semaphore.count == 1

    def test_negative_count_rejected(self):
        with pytest.raises(KernelError):
            KSemaphore(name="s", count=-1)

    def test_forfeit_is_noop(self):
        semaphore = KSemaphore(name="s", count=1)
        assert semaphore.forfeit(1) is None
