"""E6 — Test case 2: the dining-philosophers deadlock.

Regenerates the paper's second fault-discovery study and extends it
into the merge-op ablation DESIGN.md calls for: detection rate and
time-to-detection per merge policy on the buggy (cyclic-acquisition)
workload, with the ordered-acquisition control staying clean under
every policy.  The benchmark times one cyclic-op deadlock discovery.
"""

from __future__ import annotations

import os
import statistics

from repro.ptest.adaptive import AdaptiveCampaign
from repro.ptest.detector import AnomalyKind
from repro.ptest.executor import CellExecutor, CollectSink
from repro.workloads.scenarios import philosophers_case2

from conftest import format_table

OPS = ("cyclic", "round_robin", "random", "burst", "weighted")
SEEDS = range(8)
WORKERS = min(4, os.cpu_count() or 1)


def test_case2_philosophers(benchmark, emit):
    # One campaign over every (op, seed) cell, dispatched through the
    # batched work-queue executor as registry ScenarioRef variants; a
    # second, tiny one for the ordered controls.
    executor = CellExecutor(workers=WORKERS)
    sweep = AdaptiveCampaign(seeds=tuple(SEEDS), executor=executor)
    for op in OPS:
        sweep.add_scenario(op, "philosophers", op=op)
    sweep_runs = CollectSink()
    sweep.run(sink=sweep_runs)
    controls = AdaptiveCampaign(seeds=(0,), executor=executor)
    for op in OPS:
        controls.add_scenario(op, "philosophers", op=op, ordered=True)
    control_runs = CollectSink()
    controls.run(sink=control_runs)
    results = {op: [] for op in OPS}
    for cell, result in zip(sweep_runs.cells, sweep_runs.results):
        results[cell.variant].append(result)
    # One seed per control: its one run, by op.
    control_results = dict(
        zip((cell.variant for cell in control_runs.cells), control_runs.results)
    )

    rows = []
    cyclic_found = 0
    for op in OPS:
        detections = [
            result
            for result in results[op]
            if result.found_bug
            and result.report.primary.kind is AnomalyKind.DEADLOCK
        ]
        found = len(detections)
        ticks = [r.report.primary.detected_at for r in detections]
        if op == "cyclic":
            cyclic_found = found
        control = control_results[op]
        rows.append(
            (
                op,
                f"{found}/{len(list(SEEDS))}",
                f"{statistics.mean(ticks):.0f}" if ticks else "-",
                "clean" if not control.found_bug else "FALSE POSITIVE",
            )
        )

    # The cyclic/seed-0 cell is deterministic; reuse the sweep's run.
    sample = results["cyclic"][0]
    records = "\n".join(
        f"  {record.describe()}" for record in sample.report.state_records
    )
    text = (
        "buggy philosophers (cyclic fork order), 3 tasks / 3 forks:\n"
        + format_table(
            ["merge op", "deadlocks found", "mean detect tick", "ordered control"],
            rows,
        )
        + "\n\nsample detection (cyclic op, seed 0):"
        + f"\n  {sample.report.primary.description}"
        + "\nstate records (Definition 2):\n"
        + records
        + "\n\nshape vs paper: the forced cyclic execution sequences drive"
        + "\nall three tasks into the wait-for cycle; ordered acquisition"
        + "\n(the fix) never deadlocks under any policy."
    )
    emit("E6_case2_philosophers", text)

    assert cyclic_found == len(list(SEEDS))

    benchmark.pedantic(
        lambda: philosophers_case2(seed=0, op="cyclic").run(),
        rounds=3,
        iterations=1,
    )
