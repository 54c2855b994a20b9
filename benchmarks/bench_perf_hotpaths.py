#!/usr/bin/env python
"""Performance baseline for the hot paths, one section per layer.

Every section times the one path a campaign runs against a legacy or
unbatched baseline; there are no numpy twins to compare.  Times, on
this machine:

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
   persistent pool whose workers already exist (the ``WorkerPool``
   reuse lever).
5. **Adaptive rounds** — rounds/sec of a multi-round
   :class:`AdaptiveCampaign` on one persistent pool: the cold first
   round (pool spawn inside the timed window) vs. the mean warm round
   2+ — certifying, via pool telemetry, that refinement rounds never
   pay pool spawn (``pool.spawns`` stays 1 however many rounds run).
6. **Deadlock detection** — detector sweeps/sec of the legacy
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
to compare against.  ``--quick`` shrinks every layer for CI smoke runs
and writes ``bench_perf_hotpaths.quick.json`` beside it instead, so a
smoke run never overwrites the committed full-run artifact; ``--out``
overrides either path.

Run:  PYTHONPATH=src python benchmarks/bench_perf_hotpaths.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.automata.reference import LegacySampler, networkx_cycle_tids
from repro.automata.sampling import PatternSampler
from repro.pcore.kernel import KernelConfig, PCoreKernel
from repro.pcore.programs import Acquire, Compute, Exit
from repro.pcore.services import ServiceCode
from repro.pcore.testkit import create_task, run_service
from repro.ptest.adaptive import AdaptiveCampaign, Repeat
from repro.ptest.chaos import ChaosSpec
from repro.ptest.executor import CellExecutor, CollectSink, WorkCell
from repro.ptest.pcore_model import pcore_pfa
from repro.ptest.pool import WorkerPool, shutdown_pools
from repro.ptest.waitgraph import IncrementalWaitForGraph
from repro.workloads.registry import scenario_ref

OUT_PATH = Path(__file__).parent / "out" / "bench_perf_hotpaths.json"
#: Where ``--quick`` writes without ``--out``: beside the committed
#: full-run artifact, never over it (and gitignored).
QUICK_OUT_PATH = OUT_PATH.with_suffix(".quick.json")

#: Interleaved clean/chaos pairs timed by :func:`bench_faults`.
FAULT_PAIRS = 5


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


# -- layer 2: campaigns --------------------------------------------------------


def _philosophers_campaign(seeds, executor: CellExecutor) -> AdaptiveCampaign:
    campaign = AdaptiveCampaign(seeds=tuple(seeds), executor=executor)
    campaign.add_scenario("cyclic", "philosophers", op="cyclic")
    campaign.add_scenario("round_robin", "philosophers", op="round_robin")
    campaign.add_scenario("ordered", "philosophers", ordered=True)
    return campaign


def bench_campaign(quick: bool, workers: int) -> dict:
    seeds = range(8) if quick else range(60)
    cells = 3 * len(seeds)

    def wall(n_workers: int) -> float:
        campaign = _philosophers_campaign(seeds, CellExecutor(workers=n_workers))
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
        sink = CollectSink()
        start = time.perf_counter()
        executor.run_cells(variants, cells, sink)
        return cell_count / (time.perf_counter() - start), sink.results

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

    The same philosophers campaign runs clean and under
    ``ChaosSpec(kill_rate=0.10)`` with the watchdog and quarantine
    armed.  Injected kills are transient (resubmission re-draws the
    fate), so every chaos leg must deliver *bit-identical rows* — the
    asserted correctness guard — and the wall-clock ratio is the pure
    price of detection + respawn + resubmission.  An untimed clean
    pass first warms the pool so no leg pays cold spawn.  Each leg
    takes tens of milliseconds, so one pair's ratio swings with
    machine load: :data:`FAULT_PAIRS` clean/chaos pairs run
    interleaved, the order flipped per pair, and the overhead is the
    median of the per-pair ratios.
    """
    seeds = range(6) if quick else range(24)
    cells = 3 * len(seeds)

    def run_once(chaos: "ChaosSpec | None") -> tuple[float, list]:
        executor = CellExecutor(
            workers=workers,
            chaos=chaos,
            cell_timeout=60.0 if chaos else None,
            quarantine=chaos is not None,
        )
        campaign = _philosophers_campaign(seeds, executor)
        start = time.perf_counter()
        [observation] = campaign.run().rounds
        elapsed = time.perf_counter() - start
        rows = observation.rows
        if chaos is not None:
            report = observation.quarantine
            assert report is not None and report.quarantined == 0, (
                "transient-only chaos must never quarantine"
            )
        return elapsed, [(r.variant, r.runs, r.detections, r.kinds) for r in rows]

    # Warm-up: pool spawn out of every timed leg.
    _, reference = run_once(None)
    chaos = ChaosSpec(seed=2, kill_rate=0.10)
    times: dict[bool, list[float]] = {False: [], True: []}
    signatures = []
    for pair in range(FAULT_PAIRS):
        # Flip the order per pair so load drift hits both legs alike.
        for chaotic in (False, True) if pair % 2 == 0 else (True, False):
            elapsed, signature = run_once(chaos if chaotic else None)
            times[chaotic].append(elapsed)
            signatures.append(signature)
    bit_identical = all(signature == reference for signature in signatures)
    assert bit_identical, "chaos recovery changed campaign results"
    clean_times, chaos_times = times[False], times[True]
    ratios = [slow / fast for fast, slow in zip(clean_times, chaos_times)]
    return {
        "cells": cells,
        "workers": workers,
        "kill_rate": 0.10,
        "pairs": FAULT_PAIRS,
        "clean_cells_per_sec": round(cells / statistics.median(clean_times), 2),
        "chaos_cells_per_sec": round(cells / statistics.median(chaos_times), 2),
        "overhead": round(statistics.median(ratios), 2),
        "bit_identical": bit_identical,
        # Respawns serialise against the work on one core, so the
        # overhead ratio there measures scheduling contention, not
        # recovery cost — the floor skips, the numbers stay.
        "skipped_parallel_floor": os.cpu_count() == 1,
    }


# -- layer 2c: warm-pool dispatch ----------------------------------------------


def bench_pool(quick: bool, workers: int) -> dict:
    """Cold-pool vs warm-pool dispatch over a 2-run campaign sequence.

    The cold run pays worker-process startup inside the timed window —
    what every campaign run paid before the persistent pool existed.
    The warm run times the *second* dispatch through one reused
    :class:`WorkerPool`, whose workers already exist.  Cell outcomes
    must be identical either way.
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
        sink = CollectSink()
        start = time.perf_counter()
        executor.run_cells(variants, cells, sink)
        return time.perf_counter() - start, sink.results

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
            dispatch(executor)  # spawns and warms the workers
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
            executor=CellExecutor(workers=workers, pool=pool),
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


# -- layer 2f: campaign-as-a-service -------------------------------------------


def bench_serve(quick: bool, workers: int) -> dict:
    """Warm-server request throughput vs cold-process campaign runs.

    The serve tentpole's number: a long-lived ``repro serve`` process
    answers campaign requests from concurrent clients on shared warm
    worker pools, so request N never pays interpreter start, imports
    or pool spawn.  The warm leg times ``requests``
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
            warmup.run(spec)  # pool spawn, untimed

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
    # a fresh interpreter, fresh imports, fresh pool.
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
        default=None,
        help="where to write the JSON artifact (default: "
        "benchmarks/out/bench_perf_hotpaths.json, or "
        "bench_perf_hotpaths.quick.json beside it with --quick)",
    )
    args = parser.parse_args(argv)
    if args.out is None:
        args.out = QUICK_OUT_PATH if args.quick else OUT_PATH

    results = {
        "bench": "perf_hotpaths",
        "quick": args.quick,
        "machine": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
        },
        "sampling": bench_sampling(args.quick),
        "campaign": bench_campaign(args.quick, args.workers),
        "campaign_batched": bench_campaign_batched(args.quick, args.workers),
        "faults": bench_faults(args.quick, args.workers),
        "pool": bench_pool(args.quick, args.workers),
        "adaptive": bench_adaptive(args.quick, args.workers),
        "serve": bench_serve(args.quick, args.workers),
        "detector": bench_detector(args.quick),
    }
    single_core = os.cpu_count() == 1
    # Targets are the PR-1 acceptance goals; floors are what CI
    # (.github/workflows/ci.yml) actually gates on — keep them in sync.
    # Floors recorded as met=None were skipped (single-core machine).
    results["criteria"] = {
        "sampling_speedup_target": 5.0,
        "sampling_speedup_met": results["sampling"]["speedup"] >= 5.0,
        "sampling_ci_floor": 3.0,
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
        "note": (
            "campaign/pool speedups need >= workers physical cores; "
            f"this machine has {os.cpu_count()}"
        ),
    }

    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(results, indent=2) + "\n")
    shutdown_pools()  # deterministic teardown of the shared warm pool

    sampling, campaign, batched, pool, adaptive, detector = (
        results["sampling"],
        results["campaign"],
        results["campaign_batched"],
        results["pool"],
        results["adaptive"],
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
    print(f"json: {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
