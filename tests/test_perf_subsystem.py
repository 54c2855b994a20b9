"""Tests for the execution-speed subsystem: compiled sampling, the
parallel campaign executor, and incremental deadlock detection.

The compiled sampler must be *bit-for-bit* seed-compatible with the
legacy dict-walking sampler, and the incremental wait-for graph must
agree with the networkx rebuild the detector used to do on every
sweep; both frozen references live in
:mod:`repro.automata.reference`, shared with the perf bench.
"""

from __future__ import annotations

import math
import random
from functools import partial

import pytest

from repro.automata.compiled import CompiledPFA
from repro.automata.reference import legacy_sample, networkx_cycle_tids
from repro.automata.sampling import PatternSampler
from repro.errors import ConfigError, SamplingError
from repro.ptest.adaptive import AdaptiveCampaign
from repro.ptest.executor import CellExecutor, CollectSink, WorkCell
from repro.ptest.detector import AnomalyKind
from repro.ptest.pcore_model import pcore_pfa
from repro.ptest.waitgraph import IncrementalWaitForGraph, find_cycle_edges
from repro.workloads.registry import scenario_ref
from repro.workloads.scenarios import philosophers_case2


# -- compiled sampling ---------------------------------------------------------


class TestCompiledPFA:
    def test_rows_mirror_outgoing(self, fig3_pfa):
        compiled = CompiledPFA.from_pfa(fig3_pfa)
        for state in range(fig3_pfa.num_states):
            arcs = fig3_pfa.outgoing(state)
            assert compiled.symbols[state] == tuple(a.symbol for a in arcs)
            assert compiled.targets[state] == tuple(a.target for a in arcs)
            count, *_rest = compiled.rows[state]
            assert count == len(arcs)

    def test_cumulative_rows_sum_to_one(self, fig3_pfa):
        compiled = CompiledPFA.from_pfa(fig3_pfa)
        for state in range(compiled.num_states):
            if compiled.cumulative[state]:
                assert compiled.cumulative[state][-1] == pytest.approx(1.0)

    def test_transition_shim_round_trips(self, fig3_pfa):
        compiled = CompiledPFA.from_pfa(fig3_pfa)
        for state in range(compiled.num_states):
            for index, arc in enumerate(fig3_pfa.outgoing(state)):
                assert compiled.transition(state, index) == arc

    def test_sampler_accepts_prebuilt_compiled(self, fig3_pfa):
        compiled = CompiledPFA.from_pfa(fig3_pfa)
        via_compiled = PatternSampler(compiled, seed=11).sample(12)
        via_pfa = PatternSampler(fig3_pfa, seed=11).sample(12)
        assert via_compiled == via_pfa


class TestSeededEquivalence:
    """Compiled sampling reproduces the legacy walk bit for bit."""

    @pytest.mark.parametrize("on_final", ["stop", "restart"])
    def test_fig3_equivalence(self, fig3_pfa, on_final):
        for seed in range(120):
            sampled = PatternSampler(
                fig3_pfa, seed=seed, on_final=on_final
            ).sample(30)
            reference = legacy_sample(fig3_pfa, seed, 30, on_final=on_final)
            assert (
                sampled.symbols,
                sampled.states,
                sampled.log_probability,
                sampled.restarts,
            ) == reference

    @pytest.mark.parametrize("on_final", ["stop", "restart"])
    def test_fig5_equivalence(self, on_final):
        pfa = pcore_pfa()
        for seed in range(120):
            sampled = PatternSampler(
                pfa, seed=seed, on_final=on_final
            ).sample(40)
            reference = legacy_sample(pfa, seed, 40, on_final=on_final)
            assert (
                sampled.symbols,
                sampled.states,
                sampled.log_probability,
                sampled.restarts,
            ) == reference

    def test_sample_many_shares_one_rng_stream(self):
        pfa = pcore_pfa()
        batch = PatternSampler(pfa, seed=5).sample_many(20, 10)
        rng_clone = random.Random(5)
        reference = []
        for _ in range(20):
            # Replay the same stream through the legacy walk.
            state_seed_rng = rng_clone  # shared stream, not reseeded
            symbols, states = [], [pfa.start]
            state = pfa.start
            while len(symbols) < 10 and pfa.transitions.get(state):
                arcs = [
                    pfa.transitions[state][s]
                    for s in sorted(pfa.transitions[state])
                ]
                if len(arcs) == 1:
                    transition = arcs[0]
                else:
                    pick = state_seed_rng.random()
                    cumulative = 0.0
                    transition = arcs[-1]
                    for candidate in arcs:
                        cumulative += candidate.probability
                        if pick < cumulative:
                            transition = candidate
                            break
                symbols.append(transition.symbol)
                state = transition.target
                states.append(state)
            reference.append(tuple(symbols))
        assert [p.symbols for p in batch] == reference

    def test_sample_to_final_matches_walk_probability(self):
        pfa = pcore_pfa()
        for seed in range(40):
            sampled = PatternSampler(pfa, seed=seed).sample_to_final()
            walk = pfa.walk_probability(sampled.symbols)
            assert sampled.log_probability == pytest.approx(math.log(walk))

    def test_absorbing_start_still_rejected(self, fig3_pfa):
        compiled = CompiledPFA.from_pfa(fig3_pfa)
        bad = object.__new__(CompiledPFA)
        # A compiled automaton whose start row is empty must be refused.
        object.__setattr__(bad, "source", fig3_pfa)
        object.__setattr__(bad, "num_states", 1)
        object.__setattr__(bad, "start", 0)
        object.__setattr__(bad, "symbols", ((),))
        object.__setattr__(bad, "targets", ((),))
        object.__setattr__(bad, "probabilities", ((),))
        object.__setattr__(bad, "cumulative", ((),))
        object.__setattr__(bad, "log_probs", ((),))
        object.__setattr__(bad, "rows", ((0, (), (), (), ()),))
        with pytest.raises(SamplingError):
            PatternSampler(bad, seed=0)
        assert compiled.is_absorbing(2)


# -- parallel campaigns --------------------------------------------------------


def _record_build(calls: list, seed: int):  # pragma: no cover - never run
    calls.append(seed)
    return philosophers_case2(seed=seed)


class TestCellExecutor:
    def test_unknown_variant_rejected(self):
        executor = CellExecutor(workers=1)
        with pytest.raises(KeyError):
            executor.run_cells(
                {}, [WorkCell(variant="ghost", seed=0)], CollectSink()
            )

    def test_serial_sink_receives_every_cell_in_order(self):
        builders = {"cyclic": scenario_ref("philosophers", op="cyclic")}
        cells = [WorkCell(variant="cyclic", seed=s) for s in (0, 1)]
        sink = CollectSink()
        CellExecutor(workers=1).run_cells(builders, cells, sink)
        assert sink.cells == cells
        assert all(r.found_bug for r in sink.results)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("kind", ["lambda", "partial"])
    def test_non_ref_variant_rejected_before_any_cell(self, kind, workers):
        # Only refs are campaign variants: a raw callable is named in a
        # ConfigError before a single cell runs — the valid variant
        # ahead of it included — at every worker count.
        calls: list[int] = []
        if kind == "lambda":
            bad = lambda seed: _record_build(calls, seed)  # noqa: E731
        else:
            bad = partial(_record_build, calls)
        variants = {
            "good": scenario_ref("clean_spin", tasks=2, total_steps=40),
            "bad": bad,
        }
        cells = [
            WorkCell(variant=name, seed=seed)
            for name in variants
            for seed in (0, 1)
        ]
        sink = CollectSink()
        executor = CellExecutor(workers=workers)
        with pytest.raises(ConfigError, match="variant 'bad' is a "):
            executor.run_cells(variants, cells, sink=sink)
        assert sink.cells == [] and calls == []
        assert executor.batches_submitted == 0


class TestParallelCampaignDeterminism:
    def _campaign(self, workers):
        return AdaptiveCampaign(
            seeds=(0, 1, 2),
            variants={
                "cyclic": scenario_ref("philosophers", op="cyclic"),
                "ordered": scenario_ref("philosophers", ordered=True),
            },
            executor=CellExecutor(workers=workers),
        )

    def test_parallel_rows_equal_serial_rows(self):
        serial_runs, parallel_runs = CollectSink(), CollectSink()
        serial_rows = self._campaign(workers=1).run(sink=serial_runs).final_rows
        parallel = self._campaign(workers=2).run(sink=parallel_runs)
        assert serial_rows == parallel.final_rows
        # Per-run outcomes agree too, not just the summaries.
        assert serial_runs.cells == parallel_runs.cells
        serial_results, parallel_results = serial_runs.results, parallel_runs.results
        assert [r.found_bug for r in serial_results] == [
            r.found_bug for r in parallel_results
        ]
        assert [r.ticks for r in serial_results] == [
            r.ticks for r in parallel_results
        ]
        assert [r.commands_issued for r in serial_results] == [
            r.commands_issued for r in parallel_results
        ]

    def test_swapped_executor_runs_on_the_pool(self):
        # The fabric is one value: swapping the executor between runs
        # moves the next run onto the pool.
        campaign = self._campaign(workers=1)
        campaign.executor = CellExecutor(workers=2)
        result = campaign.run()
        assert result.final_rows[0].detections == 3
        assert result.pool_ids[0] is not None


# -- incremental deadlock detection --------------------------------------------


class TestFindCycleEdges:
    def test_no_cycle(self):
        assert find_cycle_edges([(1, 2), (2, 3)]) is None

    def test_two_cycle(self):
        cycle = find_cycle_edges([(1, 2), (2, 1), (3, 1)])
        assert cycle == [(1, 2), (2, 1)]

    def test_deterministic_start(self):
        # Two disjoint cycles: the lowest-numbered one is returned.
        edges = [(7, 8), (8, 7), (2, 3), (3, 2)]
        assert find_cycle_edges(edges) == [(2, 3), (3, 2)]
        assert find_cycle_edges(list(reversed(edges))) == [(2, 3), (3, 2)]

    def test_agrees_with_networkx_on_random_graphs(self):
        rng = random.Random(123)
        for _ in range(60):
            edges = {
                (rng.randrange(8), rng.randrange(8)) for _ in range(10)
            }
            edges = [(u, v) for u, v in edges if u != v]
            ours = find_cycle_edges(edges)
            reference = networkx_cycle_tids(
                [(u, v, "r") for u, v in edges]
            )
            if reference is None:
                assert ours is None
            else:
                assert ours is not None
                # Same verdict; the specific cycle may differ when the
                # graph holds several.
                cycle_nodes = {u for u, _ in ours}
                assert cycle_nodes  # non-empty closed walk
                assert ours[0][0] == ours[-1][1]


class TestIncrementalWaitGraph:
    def test_sweeps_skip_when_versions_static(self):
        from repro.pcore.sync import KMutex

        mutex = KMutex(name="m")
        mutex.try_acquire(1)
        mutex.try_acquire(2)  # 2 now waits on 1
        graph = IncrementalWaitForGraph()
        assert graph.refresh({"m": mutex}) is True
        searches_before = graph.searches
        graph.find_cycle()
        for _ in range(50):
            assert graph.refresh({"m": mutex}) is False
            graph.find_cycle()
        assert graph.searches == searches_before + 1
        assert graph.edges() == [(2, 1, "m")]

    def test_semaphores_contribute_no_edges(self):
        from repro.pcore.sync import KSemaphore

        semaphore = KSemaphore(name="s", count=0)
        semaphore.try_acquire(4)
        graph = IncrementalWaitForGraph()
        graph.refresh({"s": semaphore})
        assert graph.edges() == []

    def test_stale_resources_dropped(self):
        from repro.pcore.sync import KMutex

        mutex = KMutex(name="m")
        mutex.try_acquire(1)
        mutex.try_acquire(2)
        graph = IncrementalWaitForGraph()
        graph.refresh({"m": mutex})
        assert graph.edges()
        assert graph.refresh({}) is True
        assert graph.edges() == []
        assert graph.find_cycle() is None

    def test_versionless_resource_edges_tracked_and_dropped(self):
        class BareLock:  # duck-typed: owner/waiters but no version
            def __init__(self):
                self.owner = 1
                self.waiters = [2]

        graph = IncrementalWaitForGraph()
        assert graph.refresh({"bare": BareLock()}) is True
        assert graph.edges() == [(2, 1, "bare")]
        # Versionless rows re-derive every refresh instead of caching...
        assert graph.refresh({"bare": BareLock()}) is False
        # ...and do not leak once the resource disappears.
        assert graph.refresh({}) is True
        assert graph.edges() == []
        assert graph.find_cycle() is None

    def test_stale_version_cannot_mask_same_name_replacement(self):
        from repro.pcore.sync import KMutex

        # First life of "m": reaches version 3 with no wait-for edges.
        first = KMutex(name="m")
        first.try_acquire(1)
        first.release(1)
        first.try_acquire(1)
        assert first.version == 3 and not first.waiters
        graph = IncrementalWaitForGraph()
        graph.refresh({"m": first})
        graph.refresh({})  # resource vanishes; its version must go too
        # Second life of "m": same version number but with real edges.
        second = KMutex(name="m")
        second.try_acquire(2)
        second.try_acquire(3)
        second.try_acquire(4)
        assert second.version == first.version
        graph.refresh({"m": second})
        assert graph.edges() == [(3, 2, "m"), (4, 2, "m")]


class TestIncrementalDetectorEquivalence:
    def test_philosophers_deadlock_replay_is_stable(self):
        result = philosophers_case2(seed=0, op="cyclic").run()
        assert result.found_bug
        anomaly = result.report.primary
        assert anomaly.kind is AnomalyKind.DEADLOCK
        assert len(anomaly.tids) == 3  # all three philosophers
        assert len(set(anomaly.resources)) == 3  # over all three forks
        assert result.report.wait_for_dot  # the DOT dump still renders
        replay = philosophers_case2(seed=0, op="cyclic").run()
        assert replay.report.primary.tids == anomaly.tids
        assert replay.report.primary.resources == anomaly.resources

    def test_detector_cycle_equals_networkx_cycle(self, kernel):
        from repro.bridge.bridge import build_bridge
        from repro.pcore.programs import Acquire, Compute, Exit
        from repro.pcore.services import ServiceCode
        from repro.pcore.testkit import create_task, run_service
        from repro.ptest.detector import BugDetector, DetectorConfig
        from repro.sim.mailbox import MailboxBank

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

        bridge_master, _slave = build_bridge(MailboxBank.omap5912(), kernel)
        detector = BugDetector(
            kernel=kernel,
            bridge=bridge_master,
            config=DetectorConfig(deadlock_confirmations=1),
        )
        found = detector.sweep(100)
        assert [a.kind for a in found] == [AnomalyKind.DEADLOCK]
        reference = networkx_cycle_tids(kernel.wait_for_edges())
        assert found[0].tids == reference
        assert set(found[0].resources) == {"ra", "rb"}
