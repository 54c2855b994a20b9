"""Tests for kernel task execution: scheduling, syscalls, GC fault."""

from __future__ import annotations

from repro.pcore.kernel import KernelConfig, PCoreKernel
from repro.pcore.memory import TCB_BYTES
from repro.pcore.programs import (
    Acquire,
    Compute,
    Exit,
    MemRead,
    MemWrite,
    Release,
    Sleep,
    YieldCpu,
)
from repro.pcore.services import ServiceCode
from repro.pcore.tcb import TaskState
from repro.sim.memory import SharedMemory

from repro.pcore.testkit import create_task, run_service


def run_steps(kernel: PCoreKernel, count: int, start: int = 0) -> int:
    for tick in range(start, start + count):
        kernel.step(tick)
    return start + count


class TestScheduling:
    def test_highest_priority_runs_first(self, kernel):
        low = create_task(kernel, priority=1).value
        high = create_task(kernel, priority=9).value
        kernel.step(0)
        assert kernel.tasks[high].state is TaskState.RUNNING
        assert kernel.tasks[low].state is TaskState.READY

    def test_new_higher_priority_preempts(self, kernel):
        def spin(ctx):
            while True:
                yield Compute(1)

        kernel.register_program("spin", spin)
        low = create_task(kernel, priority=1, program="spin").value
        kernel.step(0)
        assert kernel.tasks[low].state is TaskState.RUNNING
        high = create_task(kernel, priority=9, program="spin").value
        kernel.step(1)
        assert kernel.tasks[high].state is TaskState.RUNNING
        assert kernel.tasks[low].state is TaskState.READY
        assert kernel.scheduler.preemptions >= 1

    def test_task_finishes_and_lower_resumes(self, kernel):
        def quick(ctx):
            yield Compute(2)
            yield Exit(0)

        kernel.register_program("quick", quick)
        low = create_task(kernel, priority=1, program="quick").value
        high = create_task(kernel, priority=9, program="quick").value
        run_steps(kernel, 10)
        assert high not in kernel.tasks  # exited and reaped
        assert low not in kernel.tasks

    def test_idle_kernel_reports_no_work(self, kernel):
        assert kernel.step(0) is False
        assert kernel.idle_steps == 1


class TestSyscalls:
    def test_compute_charges_steps(self, kernel):
        def worker(ctx):
            yield Compute(5)
            yield Exit("done")

        kernel.register_program("worker", worker)
        tid = create_task(kernel, priority=1, program="worker").value
        run_steps(kernel, 5)
        assert tid in kernel.tasks  # still burning compute
        run_steps(kernel, 3, start=5)
        assert tid not in kernel.tasks

    def test_yieldcpu_requeues(self, kernel):
        order = []

        def polite(name):
            def program(ctx):
                for _ in range(2):
                    order.append(name)
                    yield YieldCpu()
                yield Exit(0)

            return program

        kernel.register_program("a", polite("a"))
        kernel.register_program("b", polite("b"))
        create_task(kernel, priority=2, program="a")
        create_task(kernel, priority=1, program="b")
        run_steps(kernel, 12)
        # Priority 2 runs to completion first (strict priority), then b.
        assert order == ["a", "a", "b", "b"]

    def test_sleep_wakes_after_ticks(self, kernel):
        def sleeper(ctx):
            yield Sleep(5)
            yield Exit("woke")

        kernel.register_program("sleeper", sleeper)
        tid = create_task(kernel, priority=1, program="sleeper").value
        run_steps(kernel, 3)
        assert kernel.tasks[tid].state is TaskState.SLEEPING
        run_steps(kernel, 8, start=3)
        assert tid not in kernel.tasks

    def test_mem_read_write(self, kernel):
        def writer(ctx):
            yield MemWrite(0x100, 1234)
            value = yield MemRead(0x100)
            yield MemWrite(0x102, value + 1)
            yield Exit(0)

        kernel.register_program("writer", writer)
        create_task(kernel, priority=1, program="writer")
        run_steps(kernel, 8)
        assert kernel.shared_memory.read_u16(0x100) == 1234
        assert kernel.shared_memory.read_u16(0x102) == 1235

    def test_memread_without_memory_panics(self):
        kernel = PCoreKernel(config=KernelConfig())  # no shared memory

        def reader(ctx):
            yield MemRead(0)

        kernel.register_program("reader", reader)
        create_task(kernel, priority=1, program="reader")
        run_steps(kernel, 3)
        assert kernel.is_halted()

    def test_acquire_release_uncontended(self, kernel):
        def locker(ctx):
            yield Acquire("lock")
            yield Compute(2)
            yield Release("lock")
            yield Exit(0)

        kernel.register_program("locker", locker)
        tid = create_task(kernel, priority=1, program="locker").value
        run_steps(kernel, 10)
        assert tid not in kernel.tasks
        assert kernel.resources["lock"].owner is None

    def test_contended_mutex_blocks_and_hands_over(self, kernel):
        def hold_long(ctx):
            yield Acquire("lock")
            yield Compute(6)
            yield Release("lock")
            yield Exit(0)

        def want_lock(ctx):
            yield Acquire("lock")
            yield Release("lock")
            yield Exit(0)

        kernel.register_program("holder", hold_long)
        kernel.register_program("waiter", want_lock)
        holder = create_task(kernel, priority=9, program="holder").value
        waiter = create_task(kernel, priority=1, program="waiter").value
        run_steps(kernel, 4)
        assert kernel.tasks[waiter].state in (TaskState.READY, TaskState.BLOCKED)
        run_steps(kernel, 20, start=4)
        assert holder not in kernel.tasks
        assert waiter not in kernel.tasks

    def test_generator_return_terminates(self, kernel):
        def returns(ctx):
            yield Compute(1)
            # falls off the end: StopIteration

        kernel.register_program("returns", returns)
        tid = create_task(kernel, priority=1, program="returns").value
        run_steps(kernel, 5)
        assert tid not in kernel.tasks


class TestWaitForEdges:
    def test_edges_reflect_mutex_waiters(self, kernel):
        def holder(ctx):
            yield Acquire("m")
            while True:
                yield Compute(1)
                yield YieldCpu()

        def waiter(ctx):
            yield Acquire("m")
            yield Exit(0)

        kernel.register_program("holder", holder)
        kernel.register_program("waiter", waiter)
        hold_tid = create_task(kernel, priority=9, program="holder").value
        wait_tid = create_task(kernel, priority=1, program="waiter").value
        # Suspend the holder so the waiter gets CPU and blocks.
        run_steps(kernel, 3)
        run_service(kernel, ServiceCode.TS, target=hold_tid)
        run_steps(kernel, 4, start=3)
        edges = kernel.wait_for_edges()
        assert (wait_tid, hold_tid, "m") in edges

    def test_deleting_owner_promotes_waiter(self, kernel):
        def holder(ctx):
            yield Acquire("m")
            while True:
                yield Compute(1)

        def waiter(ctx):
            yield Acquire("m")
            yield Release("m")
            yield Exit(0)

        kernel.register_program("holder", holder)
        kernel.register_program("waiter", waiter)
        hold_tid = create_task(kernel, priority=9, program="holder").value
        wait_tid = create_task(kernel, priority=1, program="waiter").value
        run_steps(kernel, 2)
        run_service(kernel, ServiceCode.TS, target=hold_tid)
        run_steps(kernel, 3, start=2)  # waiter blocks
        run_service(kernel, ServiceCode.TD, target=hold_tid)
        run_steps(kernel, 6, start=5)
        assert wait_tid not in kernel.tasks  # promoted, ran, exited


class TestGCFault:
    def _churn_kernel(self, buggy: bool) -> PCoreKernel:
        per_task = TCB_BYTES + 512
        # Room for 4 tasks plus two spare slots of slack.
        config = KernelConfig(
            max_tasks=4,
            memory_bytes=per_task * 6,
            gc_interval=4,
            buggy_gc=buggy,
        )
        return PCoreKernel(config=config, shared_memory=SharedMemory(1024))

    def _churn(self, kernel: PCoreKernel, cycles: int) -> None:
        tick = 0
        for _ in range(cycles):
            result = create_task(kernel, priority=1)
            if not result.ok:
                return
            tick = run_steps(kernel, 2, start=tick)
            run_service(kernel, ServiceCode.TD, target=result.value)
            tick = run_steps(kernel, 6, start=tick)

    def test_correct_gc_survives_churn(self):
        kernel = self._churn_kernel(buggy=False)
        self._churn(kernel, cycles=60)
        assert not kernel.is_halted()
        assert kernel.gc.leaked_bytes == 0

    def test_buggy_gc_leaks_and_panics(self):
        kernel = self._churn_kernel(buggy=True)
        self._churn(kernel, cycles=60)
        assert kernel.is_halted()
        assert "allocation failed" in kernel.panic_reason
        assert kernel.gc.leaked_bytes > 0

    def test_natural_exits_do_not_leak_even_with_buggy_gc(self):
        kernel = self._churn_kernel(buggy=True)

        def quick(ctx):
            yield Exit(0)

        kernel.register_program("quick", quick)
        tick = 0
        for _ in range(40):
            result = create_task(kernel, priority=1, program="quick")
            assert result.ok
            tick = run_steps(kernel, 8, start=tick)  # exits on its own
        assert not kernel.is_halted()
        assert kernel.gc.leaked_bytes == 0


class TestPanicBehaviour:
    def test_panic_is_sticky(self, kernel):
        kernel.panic("first")
        kernel.panic("second")
        assert kernel.panic_reason == "first"

    def test_halted_kernel_does_not_step(self, kernel):
        kernel.panic("down")
        assert kernel.step(0) is False

    def test_internal_kernel_error_becomes_panic(self, kernel):
        def bad(ctx):
            yield Release("never_acquired")

        kernel.register_program("bad", bad)
        create_task(kernel, priority=1, program="bad")
        run_steps(kernel, 3)
        assert kernel.is_halted()
        assert "kernel fault" in kernel.panic_reason
