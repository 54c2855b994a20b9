"""Tests for the bug detector and Definition 2 state recording."""

from __future__ import annotations

import pytest

from repro.bridge.bridge import build_bridge
from repro.errors import DetectorError
from repro.pcore.kernel import KernelConfig, PCoreKernel
from repro.pcore.programs import Acquire, Compute, Exit
from repro.pcore.services import ServiceCode, ServiceRequest
from repro.pcore.tcb import TaskState
from repro.ptest.detector import AnomalyKind, BugDetector, DetectorConfig
from repro.ptest.patterns import TestPattern
from repro.ptest.recording import ProcessStateRecorder, StateRecord
from repro.sim.mailbox import MailboxBank

from repro.pcore.testkit import create_task, run_service


def make_detector(kernel=None, **config_kwargs):
    kernel = kernel or PCoreKernel(config=KernelConfig())
    bank = MailboxBank.omap5912()
    bridge_master, _slave = build_bridge(bank, kernel)
    detector = BugDetector(
        kernel=kernel,
        bridge=bridge_master,
        config=DetectorConfig(**config_kwargs),
    )
    return kernel, bridge_master, detector


class TestCrashMonitor:
    def test_panic_reported_once(self):
        kernel, _bridge, detector = make_detector()
        kernel.panic("boom")
        first = detector.sweep(10)
        second = detector.sweep(20)
        assert [a.kind for a in first] == [AnomalyKind.CRASH]
        assert second == []
        assert "boom" in detector.first(AnomalyKind.CRASH).description

    def test_healthy_kernel_silent(self):
        _kernel, _bridge, detector = make_detector()
        assert detector.sweep(10) == []
        assert not detector.triggered


class TestDeadlockMonitor:
    def _block_cycle(self, kernel):
        """Manufacture a 2-cycle: t1 owns a waits b; t2 owns b waits a."""

        def grab(first, second):
            def program(ctx):
                yield Acquire(first)
                yield Compute(30)
                yield Acquire(second)
                yield Exit(0)

            return program

        kernel.register_program("g1", grab("ra", "rb"))
        kernel.register_program("g2", grab("rb", "ra"))
        t1 = create_task(kernel, priority=1, program="g1").value
        t2 = create_task(kernel, priority=2, program="g2").value
        tick = 0
        for tick in range(3):
            kernel.step(tick)
        run_service(kernel, ServiceCode.TS, target=t2)  # t2 holds rb
        for tick in range(3, 40):
            kernel.step(tick)  # t1 acquires ra, then blocks on rb
        run_service(kernel, ServiceCode.TR, target=t2)
        for tick in range(40, 80):
            kernel.step(tick)  # t2 blocks on ra -> cycle
        return t1, t2

    def test_cycle_detected_after_confirmation(self):
        kernel, _bridge, detector = make_detector(deadlock_confirmations=2)
        t1, t2 = self._block_cycle(kernel)
        assert kernel.tasks[t1].state is TaskState.BLOCKED
        assert kernel.tasks[t2].state is TaskState.BLOCKED
        assert detector.sweep(100) == []  # first sighting: debounce
        found = detector.sweep(110)
        assert [a.kind for a in found] == [AnomalyKind.DEADLOCK]
        anomaly = found[0]
        assert set(anomaly.tids) == {t1, t2}
        assert set(anomaly.resources) == {"ra", "rb"}

    def test_transient_contention_not_reported(self):
        kernel, _bridge, detector = make_detector(deadlock_confirmations=2)

        def quick_lock(ctx):
            yield Acquire("m")
            yield Compute(2)
            yield Exit(0)  # exit releases via forfeit

        kernel.register_program("ql", quick_lock)
        create_task(kernel, priority=1, program="ql")
        create_task(kernel, priority=2, program="ql")
        for tick in range(30):
            kernel.step(tick)
            detector.sweep(tick)
        assert detector.first(AnomalyKind.DEADLOCK) is None


class TestStarvationMonitor:
    def test_ready_task_starving_is_reported(self):
        kernel, _bridge, detector = make_detector(progress_window=50)

        def hog(ctx):
            while True:
                yield Compute(10)

        kernel.register_program("hog", hog)
        create_task(kernel, priority=9, program="hog")
        starved = create_task(kernel, priority=1).value
        for tick in range(100):
            kernel.step(tick)
        found = detector.sweep(100)
        kinds = {a.kind for a in found}
        assert AnomalyKind.STARVATION in kinds
        starvation = detector.first(AnomalyKind.STARVATION)
        assert starved in starvation.tids

    def test_suspended_tasks_are_exempt(self):
        kernel, _bridge, detector = make_detector(progress_window=10)
        tid = create_task(kernel, priority=1).value
        run_service(kernel, ServiceCode.TS, target=tid)
        for tick in range(50):
            kernel.step(tick)
        assert detector.sweep(50) == []

    def test_progressing_tasks_not_reported(self):
        kernel, _bridge, detector = make_detector(progress_window=20)
        create_task(kernel, priority=1)  # idle program progresses
        for tick in range(15):
            kernel.step(tick)
            assert detector.sweep(tick) == []

    def test_each_task_reported_once(self):
        kernel, _bridge, detector = make_detector(progress_window=10)

        def hog(ctx):
            while True:
                yield Compute(10)

        kernel.register_program("hog", hog)
        create_task(kernel, priority=9, program="hog")
        create_task(kernel, priority=1)
        for tick in range(60):
            kernel.step(tick)
        first = detector.sweep(59)
        for tick in range(60, 70):
            kernel.step(tick)
        second = detector.sweep(69)
        assert len(first) == 1
        assert second == []


class TestHangMonitor:
    def test_unanswered_command_reported(self):
        kernel, bridge, detector = make_detector(reply_timeout=30)
        kernel.panic("silent death")
        detector._reported.add(("crash",))  # isolate the hang monitor
        bridge.now = 0
        bridge.issue(ServiceRequest(service=ServiceCode.TC, priority=1))
        bridge.now = 100
        found = detector.sweep(100)
        assert [a.kind for a in found] == [AnomalyKind.HANG]

    def test_answered_commands_do_not_hang(self):
        kernel, bridge, detector = make_detector(reply_timeout=30)
        bank = MailboxBank.omap5912()
        from repro.bridge.bridge import build_bridge as bb

        # use a fresh wired pair so replies actually flow
        kernel2 = PCoreKernel(config=KernelConfig())
        master, slave = bb(bank, kernel2)
        detector2 = BugDetector(
            kernel=kernel2, bridge=master, config=DetectorConfig(reply_timeout=30)
        )
        master.now = 0
        master.issue(ServiceRequest(service=ServiceCode.TC, priority=1))
        for tick in range(5):
            slave.step(tick)
        master.pump()
        master.now = 200
        assert detector2.sweep(200) == []


class TestStateRecording:
    def test_record_five_tuple(self):
        recorder = ProcessStateRecorder()
        pattern = TestPattern(pattern_id=1, symbols=("TC", "TS", "TR"))
        recorder.register_pair(pattern)
        recorder.note_issue(1, "m1.1")
        recorder.note_issue(1, "m1.2")
        recorder.note_slave_state(1, TaskState.SUSPENDED, tid=4)
        record = recorder.record(1)
        assert record == StateRecord(
            pair_id=1,
            master_state="m1.2",
            slave_state="suspended",
            pattern=("TC", "TS", "TR"),
            sequence_number=2,
            remaining=("TR",),
        )

    def test_describe_matches_fig4_notation(self):
        record = StateRecord(
            pair_id=1,
            master_state="m2",
            slave_state="s1",
            pattern=("p1", "p2", "p3"),
            sequence_number=2,
            remaining=("p3",),
        )
        assert record.describe() == "CP1 = (m2, s1, p1->p2->p3, 2, p3)"

    def test_duplicate_pair_rejected(self):
        recorder = ProcessStateRecorder()
        pattern = TestPattern(pattern_id=0, symbols=("TC",))
        recorder.register_pair(pattern)
        with pytest.raises(DetectorError):
            recorder.register_pair(pattern)

    def test_unknown_pair_rejected(self):
        recorder = ProcessStateRecorder()
        with pytest.raises(DetectorError):
            recorder.record(3)

    def test_snapshot_ordering(self):
        recorder = ProcessStateRecorder()
        for pair_id in (2, 0, 1):
            recorder.register_pair(
                TestPattern(pattern_id=pair_id, symbols=("TC",))
            )
        snapshot = recorder.snapshot()
        assert [record.pair_id for record in snapshot] == [0, 1, 2]

    def test_slave_tid_tracked(self):
        recorder = ProcessStateRecorder()
        recorder.register_pair(TestPattern(pattern_id=0, symbols=("TC",)))
        recorder.note_slave_state(0, TaskState.READY, tid=7)
        assert recorder.slave_tid(0) == 7
