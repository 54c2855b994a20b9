#!/usr/bin/env python
"""Test case 2 of the paper: hunt the dining-philosophers deadlock.

"We implemented a buggy version of the dining philosophers problem ...
We set the pattern merger of pTest to produce the test pattern that
forced these tasks to complete several set of cyclic execution
sequences ... A potential deadlock situation was also discovered."

This script compares merge policies on the buggy workload (cyclic
acquisition order) and shows the ordered-acquisition control staying
clean, then prints the Definition 2 state records of the deadlocked run.
Finally it reruns that case recording its wait-for-graph deltas
(``record_wait_deltas=True``) and re-confirms the reported cycle offline
with ``audit_deadlocks``.

Run:  python examples/deadlock_hunt.py
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.ptest.detector import AnomalyKind, BugDetector, audit_deadlocks
from repro.workloads.scenarios import philosophers_case2

OPS = ("cyclic", "round_robin", "random", "burst")
SEEDS = range(6)


def main() -> None:
    print("pTest test case 2: buggy dining philosophers (3 tasks, 3 forks)")
    print(f"{'merge op':>12} | {'deadlocks':>9} | mean detect tick")
    print("-" * 44)
    sample_report = None
    for op in OPS:
        found, ticks = 0, []
        for seed in SEEDS:
            result = philosophers_case2(seed=seed, op=op).run()
            if (
                result.found_bug
                and result.report.primary.kind is AnomalyKind.DEADLOCK
            ):
                found += 1
                ticks.append(result.report.primary.detected_at)
                if sample_report is None and op == "cyclic":
                    sample_report = result.report
        mean_tick = sum(ticks) / len(ticks) if ticks else float("nan")
        print(f"{op:>12} | {found:>4}/{len(list(SEEDS)):<4} | {mean_tick:10.0f}")

    print("\ncontrol: ordered acquisition (deadlock-free by design)")
    for op in OPS:
        result = philosophers_case2(seed=0, op=op, ordered=True).run()
        verdict = "CLEAN" if not result.found_bug else "ANOMALY?!"
        print(f"{op:>12} | {verdict}")

    if sample_report is not None:
        print("\nstate records at detection (Definition 2 five-tuples):")
        for record in sample_report.state_records:
            print(f"  {record.describe()}")
        print("\nwait-for cycle:")
        print(f"  {sample_report.primary.description}")

    # Replay the recorded wait-graph deltas through the cycle search.
    test = philosophers_case2(seed=0, op="cyclic")
    test.config = replace(test.config, record_wait_deltas=True)
    result = test.run()
    print(
        f"\nrecorded run: {result.summary().split(':')[0]}, "
        f"{len(result.wait_deltas)} wait-graph delta(s) recorded"
    )
    snapshots = [edges for _tick, edges in result.wait_deltas]
    for (tick, _edges), tids in zip(
        result.wait_deltas, BugDetector.sweep_batch(snapshots)
    ):
        shown = "acyclic" if tids is None else f"cycle tids={tids}"
        print(f"  tick {tick}: {shown}")
    audit = audit_deadlocks([result])
    print(
        f"audit: {audit.confirmed}/{audit.runs} reported deadlock(s) "
        f"re-confirmed from recorded deltas "
        f"(consistent={audit.consistent})"
    )


if __name__ == "__main__":
    main()
