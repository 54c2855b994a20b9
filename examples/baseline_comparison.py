#!/usr/bin/env python
"""Compare pTest against ConTest-style random noise and CHESS-lite.

The paper positions pTest between ConTest (random interleaving, cheap
but unstructured) and CHESS (systematic model checking, thorough but
explosive).  This script runs all three against the same seeded faults
and prints detection rate, commands spent, and wasted (error-reply)
commands.

The pTest and random sweeps run as one
:class:`~repro.ptest.adaptive.AdaptiveCampaign` round on the batched
work-queue :class:`~repro.ptest.executor.CellExecutor`, as registry
:class:`~repro.workloads.registry.ScenarioRef` variants, so
on a multi-core machine the (variant, seed) cells run in parallel; pass
``--workers 1`` to force the serial path (results are identical either
way).

Run:  python examples/baseline_comparison.py [--workers N]
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.baselines.systematic import SystematicExplorer
from repro.ptest.adaptive import AdaptiveCampaign
from repro.ptest.executor import CellExecutor, CollectSink
from repro.ptest.generator import PatternGenerator
from repro.workloads.scenarios import lifecycle_pfa, philosophers_case2

SEEDS = tuple(range(5))


def run_sweeps(workers: int) -> dict[str, tuple[int, int, int]]:
    """pTest and random sweeps as one campaign over the executor."""
    campaign = AdaptiveCampaign(
        seeds=SEEDS, executor=CellExecutor(workers=workers)
    )
    campaign.add_scenario("ptest", "philosophers", op="cyclic")
    campaign.add_scenario("random", "philosophers_random")
    runs = CollectSink()
    campaign.run(sink=runs)
    summary = {variant: (0, 0, 0) for variant in campaign.variants}
    for cell, run in zip(runs.cells, runs.results):
        found, issued, failed = summary[cell.variant]
        summary[cell.variant] = (
            found + int(run.found_bug),
            issued + run.commands_issued,
            failed + run.commands_failed,
        )
    return summary


def run_systematic() -> tuple[int, int, int]:
    found = runs = 0
    for seed in SEEDS:
        scenario = philosophers_case2(seed=seed)
        generator = PatternGenerator.from_pfa(
            lifecycle_pfa(("TC", "TS", "TR")), seed=seed
        )
        explorer = SystematicExplorer(
            config=scenario.config,
            patterns=generator.generate_batch(3, 3),
            programs=dict(scenario.programs),
            switch_bound=4,
            max_runs=30,
        )
        result = explorer.explore()
        runs += result.executed
        found += int(result.found_bug)
    return found, runs, 0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--workers",
        type=int,
        default=min(4, os.cpu_count() or 1),
        help="campaign process-pool width (default: min(4, cpu_count))",
    )
    args = parser.parse_args()

    print("baseline comparison on the dining-philosophers fault")
    print(f"(detection over {len(SEEDS)} seeds, workers={args.workers})\n")
    sweeps = run_sweeps(args.workers)
    ptest = sweeps["ptest"]
    random_ = sweeps["random"]
    systematic = run_systematic()
    print(f"{'tester':>24} | {'found':>5} | {'effort':>18}")
    print("-" * 56)
    print(
        f"{'pTest (adaptive, cyclic)':>24} | {ptest[0]:>2}/{len(SEEDS)} "
        f"| {ptest[1]:>5} cmds ({ptest[2]} err)"
    )
    print(
        f"{'ConTest-style random':>24} | {random_[0]:>2}/{len(SEEDS)} "
        f"| {random_[1]:>5} cmds ({random_[2]} err)"
    )
    print(
        f"{'CHESS-lite systematic':>24} | {systematic[0]:>2}/{len(SEEDS)} "
        f"| {systematic[1]:>5} full runs"
    )
    print(
        "\nreading: pTest's PFA keeps every command legal and its merger"
        "\naims at the suspension window; random noise burns its budget on"
        "\nerror replies; the systematic explorer also finds it but pays"
        "\nwhole-run granularity (and explodes combinatorially at scale)."
    )


if __name__ == "__main__":
    main()
