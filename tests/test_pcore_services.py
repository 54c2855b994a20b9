"""Tests for the Table I kernel services (semantics and error paths)."""

from __future__ import annotations

import pytest

from repro.pcore.services import (
    SERVICE_ABBREVIATIONS,
    ServiceCode,
    ServiceStatus,
)
from repro.pcore.tcb import TaskState

from repro.pcore.testkit import create_task, run_service


class TestTableI:
    def test_all_six_services_exist(self):
        assert SERVICE_ABBREVIATIONS == {
            "TC": "task_create",
            "TD": "task_delete",
            "TS": "task_suspend",
            "TR": "task_resume",
            "TCH": "task_chanprio",
            "TY": "task_yield",
        }

    def test_abbreviation_lookup(self):
        assert ServiceCode.from_abbreviation("TCH") is ServiceCode.TCH
        with pytest.raises(KeyError):
            ServiceCode.from_abbreviation("XX")


class TestTaskCreate:
    def test_create_returns_tid_and_ready(self, kernel):
        result = create_task(kernel, priority=5)
        assert result.ok
        assert kernel.tasks[result.value].state is TaskState.READY

    def test_create_respects_requested_tid(self, kernel):
        result = create_task(kernel, priority=5, target=9)
        assert result.value == 9

    def test_sixteen_task_limit(self, kernel):
        for index in range(16):
            assert create_task(kernel, priority=index).ok
        overflow = create_task(kernel, priority=99)
        assert overflow.status is ServiceStatus.TASK_LIMIT

    def test_limit_frees_after_delete(self, kernel):
        tids = [create_task(kernel, priority=i).value for i in range(16)]
        run_service(kernel, ServiceCode.TD, target=tids[0])
        assert create_task(kernel, priority=99).ok

    def test_unique_priority_enforced(self, kernel):
        assert create_task(kernel, priority=7).ok
        duplicate = create_task(kernel, priority=7)
        assert duplicate.status is ServiceStatus.BAD_PRIORITY

    def test_priority_reusable_after_death(self, kernel):
        tid = create_task(kernel, priority=7).value
        run_service(kernel, ServiceCode.TD, target=tid)
        assert create_task(kernel, priority=7).ok

    def test_missing_priority_rejected(self, kernel):
        result = kernel.execute_service(
            __import__(
                "repro.pcore.services", fromlist=["ServiceRequest"]
            ).ServiceRequest(service=ServiceCode.TC)
        )
        assert result.status is ServiceStatus.BAD_PRIORITY

    def test_unknown_program_falls_back_to_idle(self, kernel):
        result = create_task(kernel, priority=3, program="no_such_program")
        assert result.ok

    def test_tids_recycle(self, kernel):
        first = create_task(kernel, priority=1).value
        run_service(kernel, ServiceCode.TD, target=first)
        second = create_task(kernel, priority=2).value
        assert second == first  # smallest free tid


class TestTaskDelete:
    def test_delete_live_task(self, kernel):
        tid = create_task(kernel, priority=1).value
        result = run_service(kernel, ServiceCode.TD, target=tid)
        assert result.ok
        assert tid not in kernel.tasks

    def test_delete_unknown_task(self, kernel):
        result = run_service(kernel, ServiceCode.TD, target=99)
        assert result.status is ServiceStatus.NO_SUCH_TASK

    def test_delete_removes_from_ready_queue(self, kernel):
        tid = create_task(kernel, priority=1).value
        run_service(kernel, ServiceCode.TD, target=tid)
        assert all(t.tid != tid for t in kernel.scheduler.ready_tasks())

    def test_double_delete_fails(self, kernel):
        tid = create_task(kernel, priority=1).value
        run_service(kernel, ServiceCode.TD, target=tid)
        second = run_service(kernel, ServiceCode.TD, target=tid)
        assert second.status is ServiceStatus.NO_SUCH_TASK


class TestSuspendResume:
    def test_suspend_ready_task(self, kernel):
        tid = create_task(kernel, priority=1).value
        result = run_service(kernel, ServiceCode.TS, target=tid)
        assert result.ok
        assert kernel.tasks[tid].state is TaskState.SUSPENDED

    def test_double_suspend_is_illegal(self, kernel):
        tid = create_task(kernel, priority=1).value
        run_service(kernel, ServiceCode.TS, target=tid)
        second = run_service(kernel, ServiceCode.TS, target=tid)
        assert second.status is ServiceStatus.ILLEGAL_STATE

    def test_resume_requires_suspended(self, kernel):
        # "The task resuming operation can be performed only when the
        # corresponding task is suspended."
        tid = create_task(kernel, priority=1).value
        result = run_service(kernel, ServiceCode.TR, target=tid)
        assert result.status is ServiceStatus.ILLEGAL_STATE

    def test_suspend_resume_roundtrip(self, kernel):
        tid = create_task(kernel, priority=1).value
        run_service(kernel, ServiceCode.TS, target=tid)
        result = run_service(kernel, ServiceCode.TR, target=tid)
        assert result.ok
        assert kernel.tasks[tid].state is TaskState.READY

    def test_suspend_running_task(self, kernel):
        tid = create_task(kernel, priority=1).value
        kernel.step(0)  # dispatches the task
        assert kernel.tasks[tid].state is TaskState.RUNNING
        result = run_service(kernel, ServiceCode.TS, target=tid)
        assert result.ok
        assert kernel.tasks[tid].state is TaskState.SUSPENDED

    def test_suspend_unknown(self, kernel):
        assert (
            run_service(kernel, ServiceCode.TS, target=42).status
            is ServiceStatus.NO_SUCH_TASK
        )

    def test_resume_unknown(self, kernel):
        assert (
            run_service(kernel, ServiceCode.TR, target=42).status
            is ServiceStatus.NO_SUCH_TASK
        )


class TestChangePriority:
    def test_chanprio_updates_priority(self, kernel):
        tid = create_task(kernel, priority=1).value
        result = run_service(kernel, ServiceCode.TCH, target=tid, priority=9)
        assert result.ok
        assert kernel.tasks[tid].priority == 9

    def test_chanprio_reorders_ready_queue(self, kernel):
        low = create_task(kernel, priority=1).value
        high = create_task(kernel, priority=5).value
        run_service(kernel, ServiceCode.TCH, target=low, priority=10)
        ready = kernel.scheduler.ready_tasks()
        assert ready[0].tid == low
        assert ready[1].tid == high

    def test_chanprio_uniqueness(self, kernel):
        first = create_task(kernel, priority=1).value
        create_task(kernel, priority=2)
        result = run_service(kernel, ServiceCode.TCH, target=first, priority=2)
        assert result.status is ServiceStatus.BAD_PRIORITY

    def test_chanprio_to_own_priority_allowed(self, kernel):
        tid = create_task(kernel, priority=4).value
        assert run_service(kernel, ServiceCode.TCH, target=tid, priority=4).ok

    def test_chanprio_unknown_task(self, kernel):
        result = run_service(kernel, ServiceCode.TCH, target=42, priority=1)
        assert result.status is ServiceStatus.NO_SUCH_TASK


class TestTaskYield:
    def test_yield_terminates_running_task(self, kernel):
        tid = create_task(kernel, priority=1).value
        kernel.step(0)
        result = run_service(kernel, ServiceCode.TY)
        assert result.ok
        assert result.value == tid
        assert tid not in kernel.tasks

    def test_yield_with_no_tasks(self, kernel):
        result = run_service(kernel, ServiceCode.TY)
        assert result.status is ServiceStatus.NO_RUNNING_TASK

    def test_yield_picks_next_runnable_when_none_running(self, kernel):
        create_task(kernel, priority=1)
        high = create_task(kernel, priority=9).value
        result = run_service(kernel, ServiceCode.TY)
        assert result.ok
        assert result.value == high  # the task that would run next

    def test_targeted_yield_terminates_that_task(self, kernel):
        tid = create_task(kernel, priority=1).value
        create_task(kernel, priority=9)
        result = run_service(kernel, ServiceCode.TY, target=tid)
        assert result.ok and result.value == tid
        assert tid not in kernel.tasks

    def test_targeted_yield_unknown(self, kernel):
        result = run_service(kernel, ServiceCode.TY, target=77)
        assert result.status is ServiceStatus.NO_SUCH_TASK


class TestKernelDown:
    def test_services_refused_after_panic(self, kernel):
        kernel.panic("test-induced")
        result = create_task(kernel, priority=1)
        assert result.status is ServiceStatus.KERNEL_DOWN

    def test_stats_table_counts(self, kernel):
        create_task(kernel, priority=1)
        create_task(kernel, priority=1)  # BAD_PRIORITY
        rows = {row[0]: row for row in kernel.stats.table()}
        assert rows["TC"][2] == 2  # invoked
        assert rows["TC"][3] == 1  # succeeded
        assert rows["TC"][4] == 1  # failed
