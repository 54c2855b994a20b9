"""E10 — positioning: pTest vs ConTest-style random vs CHESS-lite.

The paper's introduction positions pTest against ConTest (random
interleaving noise) and CHESS (systematic exploration).  This bench
runs all three on the schedule-sensitive fault of the ``philosophers``
scenario (its cyclic fork order) and reports detection rate and
effort, plus the systematic explorer's state-space blow-up as pattern
size grows (the "not efficient when searching infinite state spaces"
point).  The benchmark times one cyclic pTest run of that scenario.
"""

from __future__ import annotations

import os

from repro.baselines.systematic import SystematicExplorer, interleavings
from repro.ptest.adaptive import AdaptiveCampaign
from repro.ptest.executor import CellExecutor, CollectSink
from repro.ptest.generator import PatternGenerator
from repro.ptest.patterns import TestPattern
from repro.workloads.scenarios import lifecycle_pfa, philosophers_case2

from conftest import format_table

SEEDS = range(5)
WORKERS = min(4, os.cpu_count() or 1)


def _sweep_rows():
    """pTest and random sweeps dispatched through the campaign executor
    as registry ScenarioRef variants (always process-pool portable)."""
    campaign = AdaptiveCampaign(
        seeds=tuple(SEEDS), executor=CellExecutor(workers=WORKERS)
    )
    campaign.add_scenario("ptest", "philosophers", op="cyclic")
    campaign.add_scenario("random", "philosophers_random")
    sink = CollectSink()
    campaign.run(sink=sink)
    labels = {
        "ptest": "pTest (adaptive)",
        "random": "ConTest-style random",
    }
    results = {variant: [] for variant in campaign.variants}
    for cell, result in zip(sink.cells, sink.results):
        results[cell.variant].append(result)
    rows = []
    for variant, runs in results.items():
        found = sum(int(run.found_bug) for run in runs)
        commands = sum(run.commands_issued for run in runs)
        rows.append(
            (labels[variant], f"{found}/{len(runs)}", f"{commands} commands")
        )
    return rows


def _systematic_row():
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
        found += int(result.found_bug)
        runs += result.executed
    return (
        "CHESS-lite systematic",
        f"{found}/{len(list(SEEDS))}",
        f"{runs} full runs",
    )


def _blowup_rows():
    rows = []
    for size in (2, 3, 4, 5):
        patterns = [
            TestPattern(
                pattern_id=i, symbols=tuple(f"s{j}" for j in range(size))
            )
            for i in range(3)
        ]
        count = sum(1 for _ in interleavings(patterns, limit=100_000))
        rows.append((f"3 patterns x {size}", count))
    return rows


def test_baseline_comparison(benchmark, emit):
    detection = _sweep_rows() + [_systematic_row()]
    blowup = _blowup_rows()
    text = (
        "dining-philosophers fault, detection over "
        + f"{len(list(SEEDS))} seeds:\n"
        + format_table(["tester", "found", "effort"], detection)
        + "\n\nsystematic state-space growth (interleavings to enumerate,"
        + "\ncapped at 100000):\n"
        + format_table(["input", "interleavings"], blowup)
        + "\n\nshape vs paper: the adaptive tool finds the deadlock with a"
        + "\nsmall command budget; unstructured noise wastes its budget on"
        + "\nillegal sequences; bounded systematic search is complete on"
        + "\ntiny inputs but its interleaving count explodes factorially."
    )
    emit("E10_baselines", text)

    assert detection[0][1] == f"{len(list(SEEDS))}/{len(list(SEEDS))}"
    assert blowup[-1][1] > blowup[0][1] * 50

    benchmark.pedantic(
        lambda: philosophers_case2(seed=0, op="cyclic").run(),
        rounds=3,
        iterations=1,
    )
