"""Tests for the workload programs and the Fig. 1 example."""

from __future__ import annotations

import pytest

from repro.errors import ReproError
from repro.pcore.kernel import KernelConfig, PCoreKernel
from repro.pcore.tcb import TaskState
from repro.sim.memory import SharedMemory
from repro.workloads.fig1 import run_fig1
from repro.workloads.philosophers import fork_names, make_philosopher_program
from repro.workloads.producer_consumer import (
    ITEMS_SEM,
    SPACE_SEM,
    make_consumer_program,
    make_producer_program,
)
from repro.workloads.quicksort import (
    QSORT_ELEMENTS,
    make_quicksort_program,
    quicksort_steps,
)
from repro.workloads.readers_writers import (
    COUNTER_ADDR,
    make_reader_program,
    make_writer_program,
)

from repro.pcore.testkit import create_task


def fresh_kernel() -> PCoreKernel:
    return PCoreKernel(
        config=KernelConfig(), shared_memory=SharedMemory(size=64 * 1024)
    )


def run_until_empty(kernel: PCoreKernel, max_ticks: int) -> int:
    for tick in range(max_ticks):
        kernel.step(tick)
        if not kernel.tasks and not kernel.inbox:
            return tick
    return max_ticks


class TestQuicksortSteps:
    def test_sorts_correctly(self):
        data = [5, 3, 8, 1, 9, 2, 7]
        sorter = quicksort_steps(data)
        result = None
        while True:
            try:
                next(sorter)
            except StopIteration as stop:
                result = stop.value
                break
        assert result == sorted(data)

    def test_handles_duplicates_and_sorted_input(self):
        for data in ([2, 2, 2, 1], list(range(20)), list(range(20, 0, -1)), [7]):
            sorter = quicksort_steps(data)
            while True:
                try:
                    next(sorter)
                except StopIteration as stop:
                    assert stop.value == sorted(data)
                    break

    def test_yields_partition_costs(self):
        costs = list(_drain_costs(quicksort_steps([3, 1, 2])))
        assert all(cost >= 1 for cost in costs)


def _drain_costs(sorter):
    while True:
        try:
            yield next(sorter)
        except StopIteration:
            return


class TestQuicksortProgram:
    def test_runs_to_completion_in_kernel(self):
        kernel = fresh_kernel()
        kernel.register_program("qsort", make_quicksort_program(elements=32))
        tid = create_task(kernel, priority=1, program="qsort").value
        run_until_empty(kernel, max_ticks=5000)
        assert tid not in kernel.tasks  # sorted, verified, exited

    def test_sixteen_tasks_sort_concurrently(self):
        kernel = fresh_kernel()
        kernel.register_program(
            "qsort", make_quicksort_program(elements=QSORT_ELEMENTS)
        )
        for index in range(16):
            assert create_task(kernel, priority=index + 1, program="qsort").ok
        final = run_until_empty(kernel, max_ticks=60_000)
        assert final < 60_000  # all finished
        assert not kernel.is_halted()

    def test_parameter_validation(self):
        with pytest.raises(ReproError):
            make_quicksort_program(elements=0)
        with pytest.raises(ReproError):
            make_quicksort_program(compute_scale=0)


class TestPhilosophers:
    def test_fork_names(self):
        assert fork_names(3) == ["fork0", "fork1", "fork2"]

    def test_single_philosopher_eats_alone(self):
        kernel = fresh_kernel()
        kernel.register_program(
            "phil", make_philosopher_program(0, count=3, meals=2, hold_steps=3)
        )
        tid = create_task(kernel, priority=1, program="phil").value
        run_until_empty(kernel, max_ticks=2000)
        assert tid not in kernel.tasks

    def test_uncontended_trio_with_ordered_acquisition(self):
        kernel = fresh_kernel()
        for seat in range(3):
            kernel.register_program(
                f"phil{seat}",
                make_philosopher_program(
                    seat, count=3, meals=2, hold_steps=3, ordered=True
                ),
            )
            create_task(kernel, priority=seat + 1, program=f"phil{seat}")
        final = run_until_empty(kernel, max_ticks=5000)
        assert final < 5000
        assert not kernel.is_halted()

    def test_seat_validation(self):
        with pytest.raises(ReproError):
            make_philosopher_program(5, count=3)
        with pytest.raises(ReproError):
            make_philosopher_program(0, count=1)


class TestProducerConsumer:
    def _setup(self, kernel, ring_slots=4):
        kernel.add_semaphore(ITEMS_SEM, 0)
        kernel.add_semaphore(SPACE_SEM, ring_slots)

    def test_fifo_transfer(self):
        kernel = fresh_kernel()
        self._setup(kernel)
        kernel.register_program("prod", make_producer_program(10, ring_slots=4))
        kernel.register_program("cons", make_consumer_program(10, ring_slots=4))
        create_task(kernel, priority=2, program="prod")
        create_task(kernel, priority=1, program="cons")
        final = run_until_empty(kernel, max_ticks=5000)
        assert final < 5000  # both exited: order verified inside consumer

    def test_faulty_producer_strands_consumer(self):
        kernel = fresh_kernel()
        self._setup(kernel)
        kernel.register_program(
            "prod", make_producer_program(8, ring_slots=4, faulty=True)
        )
        kernel.register_program("cons", make_consumer_program(8, ring_slots=4))
        create_task(kernel, priority=2, program="prod")
        consumer = create_task(kernel, priority=1, program="cons").value
        for tick in range(5000):
            kernel.step(tick)
        assert consumer in kernel.tasks
        assert kernel.tasks[consumer].state is TaskState.BLOCKED


class TestReadersWriters:
    def test_counter_increments_monotonically(self):
        kernel = fresh_kernel()
        kernel.register_program("writer", make_writer_program(5))
        kernel.register_program("reader", make_reader_program(5))
        create_task(kernel, priority=2, program="writer")
        create_task(kernel, priority=1, program="reader")
        final = run_until_empty(kernel, max_ticks=5000)
        assert final < 5000
        assert kernel.shared_memory.read_u16(COUNTER_ADDR) == 5


class TestFig1:
    def test_good_order_terminates_with_all_states(self):
        result = run_fig1("good")
        assert result.terminated
        assert result.s1_exited and result.s2_exited
        assert result.unreachable == frozenset()
        assert {"a", "d", "e", "f", "i", "j"} <= result.reached

    def test_bad_order_wedges_with_unreachable_states(self):
        result = run_fig1("bad")
        assert result.wedged
        # The paper: "The state d, e, i, j are unreachable."
        assert {"d", "e", "i", "j"} <= result.unreachable
        assert not result.s1_exited
        assert not result.s2_exited

    def test_bad_order_flags_an_anomaly(self):
        result = run_fig1("bad")
        assert result.anomalies
        kinds = {a.kind.value for a in result.anomalies}
        assert "starvation" in kinds

    def test_good_order_flags_nothing(self):
        result = run_fig1("good")
        assert result.anomalies == []

    def test_runs_are_deterministic(self):
        first = run_fig1("bad")
        second = run_fig1("bad")
        assert first.ticks == second.ticks
        assert first.reached == second.reached
