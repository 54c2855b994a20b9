#!/usr/bin/env python
"""Three-round adaptive grid zoom on the dining philosophers.

Round 1 sweeps a 2 x 3 grid — the buggy cyclic-acquisition workload and
its ordered-acquisition control, each across three fork-hold durations.
The ``GridZoom`` policy then narrows the grid around the
highest-detection cell: the clean ``ordered=True`` half is pinned away
after round 1 and the ``hold_steps`` window halves every round, so by
round 3 every seed in the budget runs inside the deadlocking region.
All rounds dispatch through one warm worker pool (watch ``pool_id``
stay constant — round 2+ never pays pool spawn).

Run:  python examples/adaptive_sweep.py
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.ptest.adaptive import AdaptiveCampaign, GridZoom
from repro.ptest.executor import CellExecutor
from repro.ptest.pool import shutdown_pools

ROUNDS = 3
SEEDS = (0, 1, 2)


def main() -> None:
    campaign = AdaptiveCampaign(
        seeds=SEEDS,
        rounds=ROUNDS,
        policy=GridZoom(),
        executor=CellExecutor(workers=2),
    )
    campaign.add_grid(
        "phil",
        "philosophers",
        {"ordered": [False, True], "hold_steps": [15, 30, 60]},
    )
    print(
        f"adaptive philosophers sweep: {ROUNDS} rounds x "
        f"{len(SEEDS)} seeds, grid zoom"
    )
    result = campaign.run()
    for observation in result.rounds:
        print(
            f"\nround {observation.index + 1} "
            f"(pool_id={observation.pool_id}): "
            f"{len(observation.rows)} variant(s), "
            f"{observation.total_detections} detection(s)"
        )
        for row in observation.rows:
            kinds = f"  [{', '.join(row.kinds)}]" if row.kinds else ""
            print(
                f"  {row.variant:<42} {row.detections}/{row.runs}{kinds}"
            )
    print(
        f"\npool stable across rounds: {result.pool_stable}"
        + ("  (stopped early: converged)" if result.stopped_early else "")
    )
    shutdown_pools()


if __name__ == "__main__":
    main()
