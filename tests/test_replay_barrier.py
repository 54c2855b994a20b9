"""Tests for report replay and the barrier workload."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError, ReproError
from repro.pcore.kernel import KernelConfig, PCoreKernel
from repro.pcore.tcb import TaskState
from repro.ptest.detector import AnomalyKind
from repro.ptest.executor import CellExecutor, CollectSink, WorkCell
from repro.ptest.replay import parse_merged_description, replay_ref
from repro.sim.memory import SharedMemory
from repro.workloads.barrier import (
    make_barrier_program,
    setup_barrier,
)
from repro.workloads.registry import scenario_ref
from repro.workloads.scenarios import philosophers_case2

from repro.pcore.testkit import create_task


class TestParseMergedDescription:
    def test_roundtrip_through_describe(self):
        result = philosophers_case2(seed=0).run()
        text = result.report.merged_description
        merged = parse_merged_description(text)
        assert merged.describe().replace("]", "]") == text
        assert len(merged) == result.merged_length

    def test_bad_token_rejected(self):
        with pytest.raises(ConfigError):
            parse_merged_description("TC[p0#1] garbage")

    def test_out_of_order_sequence_rejected(self):
        with pytest.raises(ConfigError):
            parse_merged_description("TC[p0#2]")

    def test_empty_description(self):
        merged = parse_merged_description("")
        assert len(merged) == 0


class TestReplay:
    def test_replayed_report_refinds_the_deadlock(self):
        original = philosophers_case2(seed=3).run()
        assert original.found_bug
        # A "new process" replays from the recorded interleaving alone,
        # as a ReplayRef cell on the one cell path.
        ref = replay_ref(
            scenario_ref("philosophers"), original.report.merged_description
        )
        sink = CollectSink()
        CellExecutor(workers=1).run_cells(
            {"replay": ref}, [WorkCell("replay", 3)], sink
        )
        [replayed] = sink.results
        assert replayed.found_bug
        assert replayed.report.primary.kind is AnomalyKind.DEADLOCK
        assert (
            replayed.report.primary.detected_at
            == original.report.primary.detected_at
        )


def fresh_kernel() -> PCoreKernel:
    return PCoreKernel(
        config=KernelConfig(), shared_memory=SharedMemory(size=32 * 1024)
    )


def run_until_empty(kernel: PCoreKernel, max_ticks: int) -> int:
    for tick in range(max_ticks):
        kernel.step(tick)
        if not kernel.tasks:
            return tick
    return max_ticks


class TestBarrier:
    def _spawn_group(self, kernel, parties, phases, faulty):
        setup_barrier(kernel)
        program = make_barrier_program(parties, phases=phases, faulty=faulty)
        kernel.register_program("barrier", program)
        return [
            create_task(kernel, priority=i + 1, program="barrier").value
            for i in range(parties)
        ]

    def test_healthy_barrier_completes_all_phases(self):
        kernel = fresh_kernel()
        self._spawn_group(kernel, parties=4, phases=3, faulty=False)
        final = run_until_empty(kernel, max_ticks=20_000)
        assert final < 20_000
        assert not kernel.is_halted()
        assert kernel.shared_memory.read_u16(0x0D00) == 0  # reset each phase

    def test_two_parties_minimum(self):
        with pytest.raises(ReproError):
            make_barrier_program(parties=1)

    def test_faulty_barrier_wedges_the_group(self):
        kernel = fresh_kernel()
        tids = self._spawn_group(kernel, parties=4, phases=6, faulty=True)
        run_until_empty(kernel, max_ticks=20_000)
        # The dropped release on phase 3 strands at least one task.
        survivors = [tid for tid in tids if tid in kernel.tasks]
        assert survivors
        assert any(
            kernel.tasks[tid].state is TaskState.BLOCKED for tid in survivors
        )

    def test_faulty_barrier_detected_as_starvation(self):
        from repro.bridge.bridge import build_bridge
        from repro.ptest.detector import BugDetector, DetectorConfig
        from repro.sim.mailbox import MailboxBank

        kernel = fresh_kernel()
        self._spawn_group(kernel, parties=3, phases=6, faulty=True)
        bridge_master, _ = build_bridge(MailboxBank.omap5912(), kernel)
        detector = BugDetector(
            kernel=kernel,
            bridge=bridge_master,
            config=DetectorConfig(progress_window=500),
        )
        for tick in range(5_000):
            kernel.step(tick)
            if tick % 8 == 0:
                detector.sweep(tick)
            if detector.triggered:
                break
        starvation = detector.first(AnomalyKind.STARVATION)
        assert starvation is not None
