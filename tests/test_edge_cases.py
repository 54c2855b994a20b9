"""Edge cases across modules: error hierarchy, detector debounce,
sampler restarts, merger chunks, trace rendering."""

from __future__ import annotations

import pytest

from repro import errors
from repro.bridge.bridge import build_bridge
from repro.pcore.kernel import KernelConfig, PCoreKernel
from repro.pcore.programs import Acquire, Compute, Exit
from repro.pcore.services import ServiceCode
from repro.ptest.detector import AnomalyKind, BugDetector, DetectorConfig
from repro.ptest.merger import PatternMerger
from repro.ptest.patterns import TestPattern
from repro.sim.mailbox import MailboxBank

from repro.pcore.testkit import create_task, run_service


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "subclass",
        [
            errors.RegexSyntaxError,
            errors.AutomatonError,
            errors.DistributionError,
            errors.SamplingError,
            errors.SimulationError,
            errors.MailboxError,
            errors.MemoryError_,
            errors.KernelError,
            errors.ServiceError,
            errors.TaskLimitError,
            errors.KernelPanicError,
            errors.BridgeError,
            errors.ConfigError,
            errors.DetectorError,
        ],
    )
    def test_all_derive_from_repro_error(self, subclass):
        assert issubclass(subclass, errors.ReproError)

    def test_one_catch_at_api_boundary(self):
        with pytest.raises(errors.ReproError):
            raise errors.MailboxError("boom")

    def test_regex_error_carries_position(self):
        error = errors.RegexSyntaxError("bad", position=7)
        assert error.position == 7


class TestDetectorDebounce:
    def _cycle_kernel(self):
        kernel = PCoreKernel(config=KernelConfig())

        def grab(first, second):
            def program(ctx):
                yield Acquire(first)
                yield Compute(30)
                yield Acquire(second)
                yield Exit(0)

            return program

        kernel.register_program("g1", grab("ra", "rb"))
        kernel.register_program("g2", grab("rb", "ra"))
        create_task(kernel, priority=1, program="g1")
        t2 = create_task(kernel, priority=2, program="g2").value
        for tick in range(3):
            kernel.step(tick)
        run_service(kernel, ServiceCode.TS, target=t2)
        for tick in range(3, 40):
            kernel.step(tick)
        run_service(kernel, ServiceCode.TR, target=t2)
        for tick in range(40, 80):
            kernel.step(tick)
        return kernel

    def test_confirmation_one_fires_on_first_sweep(self):
        kernel = self._cycle_kernel()
        bridge, _ = build_bridge(MailboxBank.omap5912(), kernel)
        detector = BugDetector(
            kernel=kernel,
            bridge=bridge,
            config=DetectorConfig(deadlock_confirmations=1),
        )
        found = detector.sweep(100)
        assert [a.kind for a in found] == [AnomalyKind.DEADLOCK]

    def test_high_confirmation_needs_repeat_sightings(self):
        kernel = self._cycle_kernel()
        bridge, _ = build_bridge(MailboxBank.omap5912(), kernel)
        detector = BugDetector(
            kernel=kernel,
            bridge=bridge,
            config=DetectorConfig(deadlock_confirmations=4),
        )
        for sweep in range(3):
            assert detector.sweep(100 + sweep) == []
        assert detector.sweep(104) != []


class TestSamplerRestart:
    def test_restart_counts_restarts(self, fig3_pfa):
        from repro.automata.sampling import PatternSampler

        sampled = PatternSampler(fig3_pfa, seed=0, on_final="restart").sample(60)
        # Expected lifecycle ~2 symbols; 60 symbols mean many restarts.
        assert sampled.restarts >= 10
        assert len(sampled.states) == len(sampled.symbols) + 1 + sampled.restarts


class TestMergerChunks:
    def test_chunk_larger_than_pattern_degenerates_to_burst(self):
        patterns = [
            TestPattern(pattern_id=0, symbols=("A1", "A2")),
            TestPattern(pattern_id=1, symbols=("B1", "B2")),
        ]
        cyclic = PatternMerger(op="cyclic", chunk=99).merge(patterns)
        burst = PatternMerger(op="burst").merge(patterns)
        assert [c.symbol for c in cyclic] == [c.symbol for c in burst]

    def test_chunk_one_equals_round_robin(self):
        patterns = [
            TestPattern(pattern_id=0, symbols=("A1", "A2")),
            TestPattern(pattern_id=1, symbols=("B1", "B2")),
        ]
        cyclic = PatternMerger(op="cyclic", chunk=1).merge(patterns)
        rr = PatternMerger(op="round_robin").merge(patterns)
        assert [c.symbol for c in cyclic] == [c.symbol for c in rr]

    def test_single_pattern_merge_is_identity(self):
        pattern = TestPattern(pattern_id=0, symbols=("TC", "TS", "TR"))
        for op in ("round_robin", "random", "cyclic", "burst", "weighted"):
            merged = PatternMerger(op=op, seed=1).merge([pattern])
            assert [c.symbol for c in merged] == ["TC", "TS", "TR"]


class TestKernelTracing:
    def test_kernel_events_reach_the_tracer(self):
        from repro.sim.trace import Tracer

        tracer = Tracer()
        kernel = PCoreKernel(config=KernelConfig(), tracer=tracer)
        tid = create_task(kernel, priority=1).value
        run_service(kernel, ServiceCode.TS, target=tid)
        run_service(kernel, ServiceCode.TR, target=tid)
        run_service(kernel, ServiceCode.TD, target=tid)
        events = [e.payload.get("event") for e in tracer.filter(category="task")]
        assert "create" in events
        assert "suspend" in events
        assert "resume" in events
        assert "terminate" in events

    def test_panic_traced(self):
        from repro.sim.trace import Tracer

        tracer = Tracer()
        kernel = PCoreKernel(config=KernelConfig(), tracer=tracer)
        kernel.panic("boom")
        kernel_events = tracer.filter(category="kernel")
        assert any(e.payload.get("event") == "panic" for e in kernel_events)


class TestWaitForDot:
    def test_deadlock_report_includes_wait_for_graph(self):
        from repro.workloads.scenarios import philosophers_case2

        result = philosophers_case2(seed=0).run()
        dot = result.report.wait_for_dot
        assert dot.startswith("digraph wait_for")
        for fork in ("fork0", "fork1", "fork2"):
            assert fork in dot
        for phil in ("phil0", "phil1", "phil2"):
            assert phil in dot
        assert result.report.to_dict()["wait_for_dot"] == dot

    def test_empty_graph_renders(self):
        kernel = PCoreKernel(config=KernelConfig())
        bridge, _ = build_bridge(MailboxBank.omap5912(), kernel)
        detector = BugDetector(kernel=kernel, bridge=bridge)
        dot = detector.wait_for_dot()
        assert dot.startswith("digraph wait_for")
        assert "->" not in dot
