#!/usr/bin/env python
"""Performance baseline for the three hot-path layers.

Times, on this machine:

1. **Compiled sampling** — patterns/sec of the legacy dict-walking
   sampler (faithfully re-implemented here, per-step re-sort included)
   vs. the :class:`CompiledPFA`-backed sampler, on the Fig. 5 pCore
   PFA in restart mode.
2. **Campaign throughput** — (variant, seed) cells/sec of the
   philosophers sweep run serially vs. through the process-pool
   executor (``--workers``, default 4).
3. **Batched campaign dispatch** — cells/sec of the process-pool
   executor submitting one cell per future vs. batching many cells per
   worker submission (the sub-10ms-cell amortisation lever), on the
   registry's ``clean_spin`` workload.
4. **Warm-pool dispatch** — cells/sec of a campaign dispatched through
   a cold (freshly spawned) worker pool vs. the second run on a warm
   persistent pool whose workers already hold their scenario/PFA
   caches (the ``WorkerPool`` reuse lever).
5. **Adaptive rounds** — rounds/sec of a multi-round
   :class:`AdaptiveCampaign` on one persistent pool: the cold first
   round (pool spawn inside the timed window) vs. the mean warm round
   2+ — certifying, via pool telemetry, that refinement rounds never
   pay pool spawn (``pool.spawns`` stays 1 however many rounds run).
6. **Composed pipelines + pre-warming** — round-start latency (round
   dispatch to first delivered result) of a staged
   :class:`PolicyPipeline` whose rounds each introduce brand-new refs,
   with cross-round worker-cache pre-warming off vs on; the composed
   schedule must hold ``pool.spawns == 1`` and pre-warming must never
   start a round slower than cold.
7. **Deadlock detection** — detector sweeps/sec of the legacy
   networkx-rebuild check vs. the incremental wait-for graph, in the
   steady state where mutex ownership is not changing (the common case
   between interleavings).

Single-core machines cannot show a process-parallel speedup, so the
``campaign`` and ``pool`` sections carry a ``skipped_parallel_floor``
flag at ``cpu_count == 1`` — raw numbers stay in the JSON, but the
ratios are startup noise there and CI floors skip them.

Results are printed and persisted as machine-readable JSON at
``benchmarks/out/bench_perf_hotpaths.json`` (same directory as the text
artifacts of the paper-figure benches) so future PRs have a trajectory
to compare against.  ``--quick`` shrinks every layer for CI smoke runs.

Run:  PYTHONPATH=src python benchmarks/bench_perf_hotpaths.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.automata.batch import BatchSampler, numpy_or_none
from repro.automata.reference import LegacySampler, networkx_cycle_tids
from repro.automata.sampling import PatternSampler
from repro.pcore.kernel import KernelConfig, PCoreKernel
from repro.pcore.programs import Acquire, Compute, Exit
from repro.pcore.services import ServiceCode
from repro.pcore.testkit import create_task, run_service
from repro.ptest.campaign import Campaign
from repro.ptest.chaos import ChaosSpec
from repro.ptest.executor import CellExecutor, WorkCell
from repro.ptest.pcore_model import pcore_pfa
from repro.ptest.pool import WorkerPool, shutdown_pools
from repro.ptest.waitgraph import IncrementalWaitForGraph
from repro.workloads.registry import scenario_ref

OUT_PATH = Path(__file__).parent / "out" / "bench_perf_hotpaths.json"


# -- layer 1: sampling ---------------------------------------------------------
# LegacySampler (imported above) is the frozen pre-PR walk shared with
# tests/test_perf_subsystem.py via repro.automata.reference.


def bench_sampling(quick: bool) -> dict:
    pfa = pcore_pfa()
    # Restart mode models continuous stress (test case 1); 100 symbols
    # keeps per-pattern fixed costs from masking the per-step win.
    size = 100
    count = 400 if quick else 2000
    reps = 3 if quick else 5

    def rate(sampler_factory) -> float:
        best = 0.0
        for _ in range(reps):
            sampler = sampler_factory()
            start = time.perf_counter()
            for _ in range(count):
                sampler.sample(size)
            best = max(best, count / (time.perf_counter() - start))
        return best

    legacy = rate(lambda: LegacySampler(pfa, seed=0, on_final="restart"))
    compiled = rate(
        lambda: PatternSampler(pfa, seed=0, on_final="restart")
    )
    # Correctness guard: the two paths must stay bit-identical.
    check = PatternSampler(pfa, seed=17, on_final="restart").sample(40)
    reference = LegacySampler(pfa, seed=17, on_final="restart").sample(40)
    assert (
        check.symbols,
        check.states,
        check.log_probability,
        check.restarts,
    ) == reference, "compiled sampler diverged from the legacy walk"
    return {
        "pattern_size": size,
        "patterns_timed": count,
        "legacy_patterns_per_sec": round(legacy, 1),
        "compiled_patterns_per_sec": round(compiled, 1),
        "speedup": round(compiled / legacy, 2),
    }


# -- layer 1b: batched sampling ------------------------------------------------


def bench_sampling_batch(quick: bool) -> dict:
    """Scalar per-cell walks vs one vectorized lockstep batch.

    The baseline is the *compiled* scalar path (layer 1's winner): N
    independent ``PatternSampler(seed=...)`` walks.  The batch draws
    the same N patterns in one ``BatchSampler.sample`` call.  Restart
    mode, 100 symbols, 4096 cells — the vectorized win grows with
    batch width, and per-cell fixed costs dominate below ~1k cells, so
    quick mode keeps the full width and trims repetitions instead.
    Multi-word seeds route every cell through the ``RandomState`` fast
    path, which is what campaign-scale sha256-derived seeds look like.
    Each rep makes one *untimed* warm-up draw per path before the timed
    draw: the batch path's first call fills its per-cell draw-block
    buffers (a one-time cost a campaign amortises over its many draws
    per cell), so the timed call is the steady state both paths run at
    campaign scale.  Bit-identity is asserted over warm-up and timed
    draws alike.  The reported speedup is the best *paired* ratio —
    each rep times the two paths back to back and the ratio is taken
    within the rep — because on a busy single-core box load drift is
    time-correlated, and cross-rep ratios (best batch over best
    scalar from different moments) mix load conditions the paired
    measurement cancels.
    """
    pfa = pcore_pfa()
    size = 100
    cells = 4096
    reps = 5 if quick else 8
    seeds = [(1 << 40) + 977 * index for index in range(cells)]
    skipped_numpy = numpy_or_none() is None

    best_ratio = 0.0
    scalar_rate = batch_rate = 0.0
    for _ in range(reps):
        samplers = [
            PatternSampler(pfa, seed=seed, on_final="restart")
            for seed in seeds
        ]
        scalar_warm = [sampler.sample(size) for sampler in samplers]
        start = time.perf_counter()
        scalar_patterns = [sampler.sample(size) for sampler in samplers]
        scalar_elapsed = time.perf_counter() - start
        batch = BatchSampler(pfa, seeds, on_final="restart")
        batch_warm = batch.sample(size)
        start = time.perf_counter()
        batch_patterns = batch.sample(size)
        batch_elapsed = time.perf_counter() - start
        # Correctness guard: both draws of the whole batch must be
        # bit-identical to the scalar walks.
        assert batch_warm == scalar_warm, (
            "batch sampling diverged from the scalar walks (draw 1)"
        )
        assert batch_patterns == scalar_patterns, (
            "batch sampling diverged from the scalar walks (draw 2)"
        )
        if scalar_elapsed / batch_elapsed > best_ratio:
            best_ratio = scalar_elapsed / batch_elapsed
            scalar_rate = cells / scalar_elapsed
            batch_rate = cells / batch_elapsed
    return {
        "pattern_size": size,
        "cells": cells,
        "scalar_patterns_per_sec": round(scalar_rate, 1),
        "batch_patterns_per_sec": round(batch_rate, 1),
        "speedup": round(best_ratio, 2),
        # Without numpy the batch *is* the scalar loop (bit-identical
        # fallback) — the ratio is meaningless, so the CI floor skips,
        # mirroring the skipped_parallel_floor convention.
        "skipped_numpy": skipped_numpy,
    }


def _traced_peak_kib(task) -> float:
    """Peak tracemalloc allocation of ``task()``, in KiB."""
    tracemalloc.start()
    try:
        task()
    finally:
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    return round(peak / 1024.0, 1)


def _sampling_batch_memory_pass() -> None:
    """One steady-state materialised batch draw (the sampling_batch
    shape at reduced width): what a campaign round allocates per
    lockstep draw, slotted patterns included."""
    pfa = pcore_pfa()
    seeds = [(1 << 40) + 977 * index for index in range(1024)]
    sampler = BatchSampler(pfa, seeds, on_final="restart")
    sampler.sample(100)  # warm-up fills the draw-block buffers
    sampler.sample(100)


# -- layer 2: campaigns --------------------------------------------------------


def _philosophers_campaign(seeds, workers) -> Campaign:
    campaign = Campaign(seeds=tuple(seeds), workers=workers)
    campaign.add_scenario("cyclic", "philosophers", op="cyclic")
    campaign.add_scenario("round_robin", "philosophers", op="round_robin")
    campaign.add_scenario("ordered", "philosophers", ordered=True)
    return campaign


def bench_campaign(quick: bool, workers: int) -> dict:
    seeds = range(8) if quick else range(60)
    cells = 3 * len(seeds)

    def wall(n_workers: int) -> float:
        campaign = _philosophers_campaign(seeds, n_workers)
        start = time.perf_counter()
        campaign.run()
        return time.perf_counter() - start

    serial = wall(1)
    parallel = wall(workers)
    return {
        "cells": cells,
        "workers": workers,
        "serial_cells_per_sec": round(cells / serial, 2),
        "parallel_cells_per_sec": round(cells / parallel, 2),
        "speedup": round(serial / parallel, 2),
        # On a single core a process pool cannot beat serial for long
        # cells — the ratio is pure pool-startup noise, so the CI floor
        # skips it (the raw numbers above stay for the record).
        "skipped_parallel_floor": os.cpu_count() == 1,
    }


# -- layer 2b: batched dispatch ------------------------------------------------


def bench_campaign_batched(quick: bool, workers: int) -> dict:
    """Per-cell vs batched pool submission on sub-10ms clean cells.

    Uses the registry's ``clean_spin`` scenario (tiny, detection-free
    cells) so the submission overhead — what batching amortises — is
    the dominant cost either way.
    """
    cell_count = 64 if quick else 192
    reps = 3
    # Tiny cells (sub-2ms) so submission overhead — what batching
    # amortises — dominates; larger cells would just hide the effect.
    variants = {
        "spin": scenario_ref(
            "clean_spin", tasks=2, total_steps=40 if quick else 80
        )
    }
    cells = [WorkCell(variant="spin", seed=seed) for seed in range(cell_count)]

    def timed(executor: CellExecutor) -> tuple[float, list]:
        start = time.perf_counter()
        results = executor.run_cells(variants, cells)
        return cell_count / (time.perf_counter() - start), results

    per_cell = CellExecutor(workers=workers, batch_size=1)
    batched = CellExecutor(workers=workers)
    per_cell_rate = batched_rate = 0.0
    per_cell_results = batched_results = []
    # Interleave the reps so machine-load drift hits both paths alike.
    for _ in range(reps):
        rate, per_cell_results = timed(per_cell)
        per_cell_rate = max(per_cell_rate, rate)
        rate, batched_results = timed(batched)
        batched_rate = max(batched_rate, rate)
    batch_size = batched.last_batch_size or 1
    # Correctness guard: batching must not change any cell's outcome.
    assert [r.ticks for r in batched_results] == [
        r.ticks for r in per_cell_results
    ], "batched execution diverged from per-cell execution"
    assert not any(r.found_bug for r in batched_results)
    return {
        "cells": cell_count,
        "workers": workers,
        "batch_size": batch_size,
        "per_cell_cells_per_sec": round(per_cell_rate, 2),
        "batched_cells_per_sec": round(batched_rate, 2),
        "speedup": round(batched_rate / per_cell_rate, 2),
    }


# -- layer 2d: fault-recovery overhead -----------------------------------------


def bench_faults(quick: bool, workers: int) -> dict:
    """Campaign throughput under injected worker kills vs clean.

    The same philosophers campaign runs twice: once clean, once under
    ``ChaosSpec(kill_rate=0.10)`` with the watchdog and quarantine
    armed.  Injected kills are transient (resubmission re-draws the
    fate), so the chaos leg must deliver *bit-identical rows* — the
    asserted correctness guard — and the wall-clock ratio is the pure
    price of detection + respawn + resubmission.  An untimed clean
    pass first warms the pool so neither leg pays cold spawn.
    """
    seeds = range(6) if quick else range(24)
    cells = 3 * len(seeds)

    def run_once(chaos: "ChaosSpec | None") -> tuple[float, list]:
        campaign = Campaign(
            seeds=tuple(seeds),
            workers=workers,
            chaos=chaos,
            cell_timeout=60.0 if chaos else None,
            quarantine=chaos is not None,
        )
        campaign.add_scenario("cyclic", "philosophers", op="cyclic")
        campaign.add_scenario("round_robin", "philosophers", op="round_robin")
        campaign.add_scenario("ordered", "philosophers", ordered=True)
        start = time.perf_counter()
        rows = campaign.run()
        elapsed = time.perf_counter() - start
        if chaos is not None:
            report = campaign.last_quarantine
            assert report is not None and report.quarantined == 0, (
                "transient-only chaos must never quarantine"
            )
        return elapsed, rows

    run_once(None)  # warm-up: pool spawn out of both timed legs
    clean_time, clean_rows = run_once(None)
    chaos_time, chaos_rows = run_once(ChaosSpec(seed=2, kill_rate=0.10))
    signature = [
        (r.variant, r.runs, r.detections, r.kinds) for r in clean_rows
    ]
    bit_identical = signature == [
        (r.variant, r.runs, r.detections, r.kinds) for r in chaos_rows
    ]
    assert bit_identical, "chaos recovery changed campaign results"
    return {
        "cells": cells,
        "workers": workers,
        "kill_rate": 0.10,
        "clean_cells_per_sec": round(cells / clean_time, 2),
        "chaos_cells_per_sec": round(cells / chaos_time, 2),
        "overhead": round(chaos_time / clean_time, 2),
        "bit_identical": bit_identical,
        # Respawns serialise against the work on one core, so the
        # overhead ratio there measures scheduling contention, not
        # recovery cost — the floor skips, the numbers stay.
        "skipped_parallel_floor": os.cpu_count() == 1,
    }


# -- layer 2c: warm-pool dispatch ----------------------------------------------


def bench_pool(quick: bool, workers: int) -> dict:
    """Cold-pool vs warm-pool dispatch over a 2-run campaign sequence.

    The cold run pays worker-process startup and per-variant scenario
    resolution/PFA compilation inside the timed window — what every
    ``Campaign.run`` paid before the persistent pool existed.  The warm
    run times the *second* dispatch through one reused
    :class:`WorkerPool`, whose workers already exist and already hold
    their caches.  Cell outcomes must be identical either way.
    """
    cell_count = 32 if quick else 96
    reps = 3
    variants = {
        "spin": scenario_ref(
            "clean_spin", tasks=2, total_steps=40 if quick else 80
        )
    }
    cells = [WorkCell(variant="spin", seed=seed) for seed in range(cell_count)]

    def dispatch(executor: CellExecutor) -> tuple[float, list]:
        start = time.perf_counter()
        results = executor.run_cells(variants, cells)
        return time.perf_counter() - start, results

    cold_best = warm_best = float("inf")
    cold_results = warm_results = []
    pool_reused = True
    # Interleave the reps so machine-load drift hits both paths alike.
    for _ in range(reps):
        with WorkerPool(workers) as pool:  # spawn inside the timing
            elapsed, cold_results = dispatch(
                CellExecutor(workers=workers, pool=pool)
            )
        cold_best = min(cold_best, elapsed)
        with WorkerPool(workers) as pool:
            executor = CellExecutor(workers=workers, pool=pool)
            dispatch(executor)  # warms workers + worker-side caches
            first_pool_id = executor.last_pool_id
            elapsed, warm_results = dispatch(executor)
            pool_reused = pool_reused and (
                executor.last_pool_id == first_pool_id
            )
        warm_best = min(warm_best, elapsed)
    # Correctness guard: warm reuse must not change any cell's outcome.
    assert [r.ticks for r in warm_results] == [
        r.ticks for r in cold_results
    ], "warm-pool execution diverged from cold-pool execution"
    assert pool_reused, "second dispatch did not reuse the warm pool"
    return {
        "cells": cell_count,
        "workers": workers,
        "runs_per_sequence": 2,
        "cold_dispatch_cells_per_sec": round(cell_count / cold_best, 2),
        "warm_dispatch_cells_per_sec": round(cell_count / warm_best, 2),
        "speedup": round(cold_best / warm_best, 2),
        "pool_reused": pool_reused,
        # One core serialises the workers themselves; the warm/cold
        # ratio still mostly holds (startup is the term being removed)
        # but the CI floor only gates multi-core machines.
        "skipped_parallel_floor": os.cpu_count() == 1,
    }


# -- layer 2d: adaptive rounds -------------------------------------------------


def bench_adaptive(quick: bool, workers: int) -> dict:
    """Round dispatch cost of the multi-round adaptive engine.

    Runs an :class:`AdaptiveCampaign` under the identity ``Repeat``
    policy (rows must not drift round over round) on ``clean_spin``
    cells, timing each round separately: round 1 pays the pool spawn,
    rounds 2+ must ride the warm pool — ``pool.spawns == 1`` after the
    whole run is the deterministic CI floor (a respawn mid-sequence
    means refinement left the warm pool, the exact regression the
    adaptive engine exists to prevent).
    """
    from repro.ptest.adaptive import AdaptiveCampaign, Repeat

    rounds = 3
    seeds = tuple(range(8 if quick else 24))
    round_times: list[float] = []

    class _TimedRepeat(Repeat):
        """Repeat, plus a round-boundary timestamp per refinement."""

        def refine(self, observation):
            round_times.append(time.perf_counter())
            return super().refine(observation)

    with WorkerPool(workers) as pool:
        campaign = AdaptiveCampaign(
            seeds=seeds,
            rounds=rounds,
            policy=_TimedRepeat(),
            workers=workers,
            pool=pool,
        )
        campaign.add_scenario(
            "spin", "clean_spin", tasks=2, total_steps=40 if quick else 80
        )
        start = time.perf_counter()
        result = campaign.run()
        end = time.perf_counter()
        spawns = pool.spawns
    # refine() fires between rounds, so the timestamps split the run
    # into per-round segments: [start, t1], [t1, t2], [t2, end].
    bounds = [start, *round_times, end]
    segments = [b - a for a, b in zip(bounds, bounds[1:])]
    cold_round = segments[0]
    warm_rounds = segments[1:]
    warm_mean = sum(warm_rounds) / len(warm_rounds)
    # Correctness guard: identical variants must yield identical rows
    # on every warm round (the adaptive determinism contract).
    first_rows = result.rounds[0].rows
    for observation in result.rounds[1:]:
        assert observation.rows == first_rows, (
            "warm adaptive round diverged from the cold round"
        )
    return {
        "rounds": rounds,
        "cells_per_round": len(seeds),
        "workers": workers,
        "cold_round_sec": round(cold_round, 4),
        "warm_round_sec_mean": round(warm_mean, 4),
        "cold_rounds_per_sec": round(1.0 / cold_round, 2),
        "warm_rounds_per_sec": round(1.0 / warm_mean, 2),
        "speedup": round(cold_round / warm_mean, 2),
        "pool_spawns": spawns,
        "pool_stable": result.pool_stable,
        # Timing ratios are noise on one core, but the spawn count is
        # exact everywhere — the CI floor gates on it unconditionally.
        "skipped_parallel_floor": os.cpu_count() == 1,
    }


# -- layer 2e: composed pipelines + pre-warming --------------------------------


class _ShiftedSpinGrid:
    """Bench policy: a fresh ``clean_spin`` grid every round.

    Pure in ``observation.index`` (the adaptive determinism contract),
    and deliberately adversarial for caching: every round's variants
    carry *new* cache keys, so each round pays scenario resolution and
    PFA compilation somewhere — inside the round when cold, overlapped
    with round setup when pre-warmed.  ``base`` offsets the step grid
    so two composed stages emit disjoint key ranges.
    """

    def __init__(self, base: int):
        self.base = base

    def refine(self, observation):
        from repro.ptest.campaign import grid_variants

        start = self.base + 10 * (observation.index + 1)
        return grid_variants(
            "spin",
            "clean_spin",
            {"total_steps": [start, start + 2, start + 4]},
            tasks=2,
        )


def bench_pipeline(quick: bool, workers: int) -> dict:
    """Round-start latency of a composed pipeline, prewarmed vs cold.

    Runs a two-stage :class:`PolicyPipeline` (each stage a
    :class:`_ShiftedSpinGrid`, so every round introduces brand-new
    refs) twice on fresh pools: once with cross-round pre-warming
    disabled (round N+1's workers resolve/compile inside the round)
    and once enabled (refs ship to workers the moment the policy
    refines).  The metric is *round-start latency* — dispatch of a
    warm round to its first delivered result — meaned over rounds 2+.
    Pre-warming must never lose (CI floor: prewarmed >= cold on
    multi-core) and the whole composed schedule must ride one pool
    spawn, prewarm traffic included.
    """
    from repro.ptest.adaptive import AdaptiveCampaign
    from repro.ptest.pipeline import PipelineStage, PolicyPipeline

    rounds = 4
    seeds = tuple(range(8 if quick else 24))
    steps = 40 if quick else 80
    reps = 3

    class _TimedPipeline(PolicyPipeline):
        """Pipeline plus a round-boundary timestamp per refinement."""

        def __init__(self, stages, times):
            super().__init__(stages)
            self._times = times

        def refine(self, observation):
            refined = super().refine(observation)
            self._times.append(time.perf_counter())
            return refined

    class _AcceptTimes:
        """Sink recording each delivery's timestamp, in order."""

        def __init__(self):
            self.times: list[float] = []

        def accept(self, cell, result):
            self.times.append(time.perf_counter())

    def run_once(prewarm: bool) -> tuple[list[float], object, int]:
        refine_times: list[float] = []
        pipeline = _TimedPipeline(
            (
                PipelineStage(_ShiftedSpinGrid(steps), rounds=2),
                PipelineStage(_ShiftedSpinGrid(steps + 1000), rounds=2),
            ),
            refine_times,
        )
        sink = _AcceptTimes()
        with WorkerPool(workers) as pool:
            campaign = AdaptiveCampaign(
                seeds=seeds,
                rounds=rounds,
                policy=pipeline,
                workers=workers,
                pool=pool,
                prewarm=prewarm,
            )
            campaign.add_grid(
                "spin",
                "clean_spin",
                {"total_steps": [steps, steps + 2, steps + 4]},
                tasks=2,
            )
            start = time.perf_counter()
            result = campaign.run(sink=sink)
            spawns = pool.spawns
        # Segment the accept stream into rounds (cells per round =
        # variants x seeds) and pair each round's first delivery with
        # its start: the run start for round 1, the policy's refine
        # return for every later round.
        starts = [start, *refine_times]
        latencies = []
        cursor = 0
        for index, observation in enumerate(result.rounds):
            latencies.append(sink.times[cursor] - starts[index])
            cursor += len(observation.variants) * len(seeds)
        return latencies, result, spawns

    cold_best = prewarmed_best = float("inf")
    cold_result = prewarmed_result = None
    spawn_counts = set()
    # Interleave the reps so machine-load drift hits both paths alike.
    for _ in range(reps):
        latencies, cold_result, spawns = run_once(prewarm=False)
        spawn_counts.add(spawns)
        cold_best = min(cold_best, sum(latencies[1:]) / (rounds - 1))
        latencies, prewarmed_result, spawns = run_once(prewarm=True)
        spawn_counts.add(spawns)
        prewarmed_best = min(
            prewarmed_best, sum(latencies[1:]) / (rounds - 1)
        )
    # Correctness guard: pre-warming must not change any round's rows.
    # (Spawn counts are *reported*, not asserted — the no-respawn gate
    # lives in the criteria block so a regression fails the CI check
    # with the telemetry in hand instead of dying mid-bench.)
    assert [o.rows for o in cold_result.rounds] == [
        o.rows for o in prewarmed_result.rounds
    ], "prewarmed pipeline rounds diverged from cold rounds"
    assert prewarmed_result.prewarmed_refs > 0
    assert cold_result.prewarmed_refs == 0
    return {
        "rounds": rounds,
        "cells_per_round": 3 * len(seeds),
        "workers": workers,
        "stages": "shift:2 -> shift:2",
        "prewarmed_refs": prewarmed_result.prewarmed_refs,
        "cold_round_start_ms": round(cold_best * 1_000, 3),
        "prewarmed_round_start_ms": round(prewarmed_best * 1_000, 3),
        "speedup": round(cold_best / prewarmed_best, 2),
        "pool_spawns": max(spawn_counts),
        # One core serialises prewarm tasks and round batches, so the
        # overlap the ratio measures cannot exist; raw numbers stay.
        "skipped_parallel_floor": os.cpu_count() == 1,
    }


# -- layer 2f: campaign-as-a-service -------------------------------------------


def bench_serve(quick: bool, workers: int) -> dict:
    """Warm-server request throughput vs cold-process campaign runs.

    The serve tentpole's number: a long-lived ``repro serve`` process
    answers campaign requests from concurrent clients on shared warm
    worker pools, so request N never pays interpreter start, imports,
    pool spawn or worker-cache warm-up.  The warm leg times ``requests``
    identical small clean_spin campaigns issued by ``clients``
    concurrent socket clients against one in-process server (one
    untimed warm-up request first — the server's pool spawn, paid once
    per process, is the cost being amortised); the cold leg times the
    same spec dispatched as fresh ``python -m repro campaign --spec``
    processes.  Rows must be bit-identical between the two paths.
    """
    import subprocess
    import tempfile
    import threading

    from repro.client import Client
    from repro.ptest.spec import CampaignSpec, execute_spec
    from repro.serve import start_server_thread

    clients = 3
    per_client = 2 if quick else 5
    requests = clients * per_client
    cold_runs = 2 if quick else 3
    spec = CampaignSpec(
        scenario="clean_spin",
        params=(("tasks", "2"), ("total_steps", "40")),
        seeds=(0, 1),
        workers=workers,
        batch_size=2,
    )

    direct = execute_spec(spec)

    def percentile(sorted_values: list[float], q: float) -> float:
        index = min(
            len(sorted_values) - 1, round(q * (len(sorted_values) - 1))
        )
        return sorted_values[index]

    handle = start_server_thread(max_concurrent=clients)
    latencies: list[float] = []
    mismatches: list[str] = []
    lock = threading.Lock()
    try:
        with Client(*handle.address) as warmup:
            warmup.run(spec)  # pool spawn + worker caches, untimed

        def client_loop() -> None:
            with Client(*handle.address) as client:
                for _ in range(per_client):
                    start = time.perf_counter()
                    remote = client.run(spec)
                    elapsed = time.perf_counter() - start
                    with lock:
                        latencies.append(elapsed)
                        if remote.rounds != direct.rounds:
                            mismatches.append("rounds diverged")

        threads = [
            threading.Thread(target=client_loop) for _ in range(clients)
        ]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        warm_wall = time.perf_counter() - start
    finally:
        handle.close()
    assert not mismatches, (
        "served rows diverged from direct execution: " + mismatches[0]
    )

    # Cold baseline: what each request costs without the service —
    # a fresh interpreter, fresh imports, fresh pool, cold caches.
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    with tempfile.NamedTemporaryFile(
        "w", suffix=".json", delete=False
    ) as handle_file:
        handle_file.write(spec.to_json())
        spec_path = handle_file.name
    cold_best = float("inf")
    try:
        for _ in range(cold_runs):
            start = time.perf_counter()
            completed = subprocess.run(
                [sys.executable, "-m", "repro", "campaign", "--spec", spec_path],
                capture_output=True,
                text=True,
                env=env,
            )
            elapsed = time.perf_counter() - start
            assert completed.returncode == 0, completed.stdout
            cold_best = min(cold_best, elapsed)
    finally:
        os.unlink(spec_path)

    ordered = sorted(latencies)
    warm_mean = sum(latencies) / len(latencies)
    return {
        "requests": requests,
        "clients": clients,
        "workers": workers,
        "requests_per_sec": round(requests / warm_wall, 2),
        "warm_request_ms_mean": round(warm_mean * 1_000, 2),
        "warm_request_ms_p50": round(percentile(ordered, 0.50) * 1_000, 2),
        "warm_request_ms_p95": round(percentile(ordered, 0.95) * 1_000, 2),
        "cold_process_ms": round(cold_best * 1_000, 2),
        "speedup": round(cold_best / warm_mean, 2),
        # Concurrent clients contend with the worker pool itself on one
        # core, so the ratio there mixes scheduling noise into the
        # startup-amortisation claim — the floor skips, numbers stay.
        "skipped_parallel_floor": os.cpu_count() == 1,
    }


# -- layer 3: detection --------------------------------------------------------


def _deadlocked_kernel() -> PCoreKernel:
    """A kernel wedged in the classic two-task / two-mutex cycle."""
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


def bench_detector(quick: bool) -> dict:
    kernel = _deadlocked_kernel()
    sweeps = 2_000 if quick else 20_000

    def legacy_sweep() -> tuple | None:
        return networkx_cycle_tids(kernel.wait_for_edges())

    start = time.perf_counter()
    for _ in range(sweeps):
        legacy_cycle = legacy_sweep()
    legacy_rate = sweeps / (time.perf_counter() - start)

    waitgraph = IncrementalWaitForGraph()
    resources = kernel.resources
    start = time.perf_counter()
    for _ in range(sweeps):
        waitgraph.refresh(resources)
        incremental_cycle = waitgraph.find_cycle()
    incremental_rate = sweeps / (time.perf_counter() - start)

    assert incremental_cycle is not None and legacy_cycle is not None
    assert (
        tuple(sorted({edge[0] for edge in incremental_cycle}))
        == legacy_cycle
    ), "incremental cycle diverged from the networkx rebuild"
    return {
        "sweeps_timed": sweeps,
        "rebuild_sweeps_per_sec": round(legacy_rate, 1),
        "incremental_sweeps_per_sec": round(incremental_rate, 1),
        "speedup": round(incremental_rate / legacy_rate, 2),
        "cycle_searches_run": waitgraph.searches,
    }


# -- layer 3b: batched detection -----------------------------------------------


def bench_detector_batch(quick: bool) -> dict:
    """Per-snapshot cycle search vs one batched screen-and-confirm.

    The workload models a campaign audit: ~1000 recorded wait-graph
    snapshots, most of them acyclic (chains and fans of various sizes),
    a few percent holding the real deadlock cycle captured from a
    wedged kernel.  The baseline runs the scalar
    :func:`find_cycle_edges` per snapshot; the batch path screens all
    snapshots with one vectorized Kahn peel and confirms only the
    cyclic survivors through the very same scalar search.
    """
    from repro.ptest.batchdetect import find_cycles_batch
    from repro.ptest.waitgraph import find_cycle_edges

    kernel = _deadlocked_kernel()
    cycle_edges = tuple(
        (waiter, owner) for waiter, owner, _ in kernel.wait_for_edges()
    )
    snapshots: list[tuple[tuple[int, int], ...]] = []
    for index in range(1_000):
        if index % 20 == 0:  # 5% cyclic, like a detecting campaign
            snapshots.append(cycle_edges)
        else:  # acyclic chain + fan, varying size and node ids
            base = index % 7
            chain = [
                (base + hop, base + hop + 1) for hop in range(2 + index % 5)
            ]
            chain.extend((base, base + 10 + hop) for hop in range(index % 3))
            snapshots.append(tuple(chain))
    reps = 3 if quick else 6
    skipped_numpy = numpy_or_none() is None

    scalar_best = batch_best = 0.0
    scalar_cycles = batch_cycles = None
    for _ in range(reps):
        start = time.perf_counter()
        scalar_cycles = [find_cycle_edges(edges) for edges in snapshots]
        scalar_best = max(
            scalar_best, len(snapshots) / (time.perf_counter() - start)
        )
        start = time.perf_counter()
        batch_cycles = find_cycles_batch(snapshots)
        batch_best = max(
            batch_best, len(snapshots) / (time.perf_counter() - start)
        )
    # Correctness guard: same first cycle (edge order included) per
    # snapshot — the screen is exact and the confirm is the baseline.
    assert batch_cycles == scalar_cycles, (
        "batched cycle detection diverged from the per-snapshot search"
    )
    return {
        "snapshots": len(snapshots),
        "cyclic_snapshots": sum(1 for c in scalar_cycles if c),
        "scalar_snapshots_per_sec": round(scalar_best, 1),
        "batch_snapshots_per_sec": round(batch_best, 1),
        "speedup": round(batch_best / scalar_best, 2),
        "skipped_numpy": skipped_numpy,
    }


# -- entry point ---------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small iteration counts for CI smoke runs",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=4,
        help="process-pool width for the campaign layer (default 4)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=OUT_PATH,
        help="where to write the JSON artifact",
    )
    args = parser.parse_args(argv)

    results = {
        "bench": "perf_hotpaths",
        "quick": args.quick,
        "machine": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
            # None = absent or disabled via REPRO_NO_NUMPY; the batch
            # sections fall back to scalar (and skip their floors) then.
            "numpy": getattr(numpy_or_none(), "__version__", None),
            # Peak allocation (KiB) of one representative batch-sampling
            # pass; honest in no-numpy mode too (the pass then profiles
            # the scalar fallback).
            "tracemalloc_peak_kib": {
                "sampling_batch": _traced_peak_kib(
                    _sampling_batch_memory_pass
                ),
            },
        },
        "sampling": bench_sampling(args.quick),
        "sampling_batch": bench_sampling_batch(args.quick),
        "campaign": bench_campaign(args.quick, args.workers),
        "campaign_batched": bench_campaign_batched(args.quick, args.workers),
        "faults": bench_faults(args.quick, args.workers),
        "pool": bench_pool(args.quick, args.workers),
        "adaptive": bench_adaptive(args.quick, args.workers),
        "pipeline": bench_pipeline(args.quick, args.workers),
        "serve": bench_serve(args.quick, args.workers),
        "detector": bench_detector(args.quick),
        "detector_batch": bench_detector_batch(args.quick),
    }
    single_core = os.cpu_count() == 1
    # Targets are the PR-1 acceptance goals; floors are what CI
    # (.github/workflows/ci.yml) actually gates on — keep them in sync.
    # Floors recorded as met=None were skipped (single-core machine).
    results["criteria"] = {
        "sampling_speedup_target": 5.0,
        "sampling_speedup_met": results["sampling"]["speedup"] >= 5.0,
        "sampling_ci_floor": 3.0,
        # The batch tier stacks on the compiled scalar path; without
        # numpy it degenerates (bit-identically) to that path, so the
        # floor skips there — like skipped_parallel_floor on one core.
        "sampling_batch_ci_floor": 2.0,
        "sampling_batch_floor_met": (
            None
            if results["sampling_batch"]["skipped_numpy"]
            else results["sampling_batch"]["speedup"] >= 2.0
        ),
        "campaign_speedup_target": 2.0,
        "campaign_speedup_met": (
            None
            if single_core
            else results["campaign"]["speedup"] >= 2.0
        ),
        "campaign_ci_floor": None,  # not gated: needs multi-core hardware
        # Batching amortises per-submission overhead, so it must never
        # be slower than per-cell dispatch, core count regardless.
        "campaign_batched_ci_floor": 1.0,
        "campaign_batched_floor_met": (
            results["campaign_batched"]["speedup"] >= 1.0
        ),
        # Recovery from 10% injected worker kills may cost at most 1.5x
        # clean throughput; bit-identity of the recovered rows is exact
        # on any hardware and gates everywhere.
        "faults_recovery_ci_floor": 1.5,
        "faults_recovery_floor_met": (
            None
            if single_core
            else results["faults"]["overhead"] <= 1.5
        ),
        "faults_bit_identical_met": results["faults"]["bit_identical"],
        # Warm-pool reuse removes pool startup + re-resolution from the
        # dispatch path; on multi-core the second run of a sequence
        # must be clearly faster than a cold-pool run.
        "pool_warm_ci_floor": 1.5,
        "pool_floor_met": (
            None if single_core else results["pool"]["speedup"] >= 1.5
        ),
        # Adaptive rounds 2+ must never pay pool spawn: exactly one
        # executor creation across the whole multi-round sequence, and
        # one pool generation in the telemetry.  Spawn counting is
        # exact on any hardware, so this floor never skips.
        "adaptive_no_respawn_floor": 1,
        "adaptive_no_respawn_met": (
            results["adaptive"]["pool_spawns"] == 1
            and results["adaptive"]["pool_stable"]
        ),
        # Cross-round pre-warming moves scenario resolution and PFA
        # compilation out of a round's first batches, so a prewarmed
        # round must start at least as fast as a cold one (parity is
        # the floor; the overlap win rides on top).  Meaningless where
        # one core serialises the overlap — skipped there, like pool.
        "pipeline_prewarm_ci_floor": 1.0,
        "pipeline_prewarm_floor_met": (
            None
            if single_core
            else results["pipeline"]["speedup"] >= 1.0
        ),
        # The composed schedule's spawn floor is exact everywhere.
        "pipeline_no_respawn_met": (
            results["pipeline"]["pool_spawns"] == 1
        ),
        # A warm-server request must clearly beat paying interpreter
        # start + imports + pool spawn per campaign (the serve claim);
        # skipped where one core makes concurrent clients contend with
        # the workers themselves.
        "serve_ci_floor": 2.0,
        "serve_floor_met": (
            None if single_core else results["serve"]["speedup"] >= 2.0
        ),
        "detector_ci_floor": 5.0,
        "detector_floor_met": results["detector"]["speedup"] >= 5.0,
        "detector_batch_ci_floor": 1.5,
        "detector_batch_floor_met": (
            None
            if results["detector_batch"]["skipped_numpy"]
            else results["detector_batch"]["speedup"] >= 1.5
        ),
        "note": (
            "campaign/pool speedups need >= workers physical cores; "
            f"this machine has {os.cpu_count()}"
        ),
    }

    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(results, indent=2) + "\n")
    shutdown_pools()  # deterministic teardown of the shared warm pool

    sampling, campaign, batched, pool, adaptive, pipeline, detector = (
        results["sampling"],
        results["campaign"],
        results["campaign_batched"],
        results["pool"],
        results["adaptive"],
        results["pipeline"],
        results["detector"],
    )
    print("== perf hot paths ==")
    print(
        f"sampling:  {sampling['legacy_patterns_per_sec']:>10.0f} -> "
        f"{sampling['compiled_patterns_per_sec']:>10.0f} patterns/s  "
        f"({sampling['speedup']}x)"
    )
    campaign_note = (
        "  [floor skipped: 1 core]"
        if campaign["skipped_parallel_floor"]
        else ""
    )
    print(
        f"campaign:  {campaign['serial_cells_per_sec']:>10.2f} -> "
        f"{campaign['parallel_cells_per_sec']:>10.2f} cells/s     "
        f"({campaign['speedup']}x at workers={campaign['workers']})"
        f"{campaign_note}"
    )
    print(
        f"batching:  {batched['per_cell_cells_per_sec']:>10.2f} -> "
        f"{batched['batched_cells_per_sec']:>10.2f} cells/s     "
        f"({batched['speedup']}x at batch_size={batched['batch_size']})"
    )
    faults = results["faults"]
    faults_note = (
        "  [floor skipped: 1 core]"
        if faults["skipped_parallel_floor"]
        else ""
    )
    print(
        f"faults:    {faults['clean_cells_per_sec']:>10.2f} -> "
        f"{faults['chaos_cells_per_sec']:>10.2f} cells/s     "
        f"({faults['overhead']}x overhead at kill_rate="
        f"{faults['kill_rate']}, rows bit-identical){faults_note}"
    )
    pool_note = (
        "  [floor skipped: 1 core]"
        if pool["skipped_parallel_floor"]
        else ""
    )
    print(
        f"pool:      {pool['cold_dispatch_cells_per_sec']:>10.2f} -> "
        f"{pool['warm_dispatch_cells_per_sec']:>10.2f} cells/s     "
        f"({pool['speedup']}x warm vs cold){pool_note}"
    )
    adaptive_note = (
        "  [timing floor skipped: 1 core]"
        if adaptive["skipped_parallel_floor"]
        else ""
    )
    print(
        f"adaptive:  {adaptive['cold_rounds_per_sec']:>10.2f} -> "
        f"{adaptive['warm_rounds_per_sec']:>10.2f} rounds/s    "
        f"({adaptive['speedup']}x warm vs cold, "
        f"pool_spawns={adaptive['pool_spawns']}){adaptive_note}"
    )
    pipeline_note = (
        "  [floor skipped: 1 core]"
        if pipeline["skipped_parallel_floor"]
        else ""
    )
    print(
        f"pipeline:  {pipeline['cold_round_start_ms']:>10.3f} -> "
        f"{pipeline['prewarmed_round_start_ms']:>10.3f} ms/round-start "
        f"({pipeline['speedup']}x prewarmed vs cold, "
        f"pool_spawns={pipeline['pool_spawns']}){pipeline_note}"
    )
    serve = results["serve"]
    serve_note = (
        "  [floor skipped: 1 core]"
        if serve["skipped_parallel_floor"]
        else ""
    )
    print(
        f"serve:     {serve['cold_process_ms']:>10.2f} -> "
        f"{serve['warm_request_ms_mean']:>10.2f} ms/request  "
        f"({serve['speedup']}x warm server vs cold process, "
        f"{serve['requests_per_sec']} req/s, "
        f"p50={serve['warm_request_ms_p50']} "
        f"p95={serve['warm_request_ms_p95']}){serve_note}"
    )
    print(
        f"detector:  {detector['rebuild_sweeps_per_sec']:>10.0f} -> "
        f"{detector['incremental_sweeps_per_sec']:>10.0f} sweeps/s   "
        f"({detector['speedup']}x)"
    )
    sampling_batch = results["sampling_batch"]
    detector_batch = results["detector_batch"]
    numpy_note = (
        "  [floor skipped: no numpy]"
        if sampling_batch["skipped_numpy"]
        else ""
    )
    print(
        f"batch-smp: {sampling_batch['scalar_patterns_per_sec']:>10.0f} -> "
        f"{sampling_batch['batch_patterns_per_sec']:>10.0f} patterns/s  "
        f"({sampling_batch['speedup']}x at cells="
        f"{sampling_batch['cells']}){numpy_note}"
    )
    numpy_note = (
        "  [floor skipped: no numpy]"
        if detector_batch["skipped_numpy"]
        else ""
    )
    print(
        f"batch-det: {detector_batch['scalar_snapshots_per_sec']:>10.0f} -> "
        f"{detector_batch['batch_snapshots_per_sec']:>10.0f} snapshots/s "
        f"({detector_batch['speedup']}x, "
        f"{detector_batch['cyclic_snapshots']} cyclic){numpy_note}"
    )
    print(f"json: {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
