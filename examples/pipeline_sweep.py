#!/usr/bin/env python
"""Zoom-then-replay: a composed refinement schedule on one warm pool.

The schedule is one text, ``grid_zoom:2,replay(max_sources=1):2`` —
the value ``repro adapt --schedule`` and a spec's ``schedule`` carry.
Stage 1 (``grid_zoom``, 2 rounds) sweeps the dining philosophers over a
2 x 3 grid — buggy cyclic acquisition vs the ordered control, across
three fork-hold durations — and narrows toward the highest-detection
cell.  Stage 2 (``replay``, 2 rounds) then takes the latest round's
first recorded deadlock interleaving, re-merges it under each of its
merge ops, and re-drives the results as merged-pattern replay cells
across every seed.

The adaptive engine steps through the :class:`PolicyPipeline` the text
parses to, so the warm worker pool and the determinism contract are
exactly those of a single-policy adaptive campaign, and each round
names the stage that owned it.  Each refined round's new refs (the
zoomed grid, then the replay cells) reach the workers with that
round's batches.  Watch ``pool_id`` stay constant: the whole schedule
runs on one pool spawn.

Run:  python examples/pipeline_sweep.py
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.ptest.adaptive import AdaptiveCampaign, parse_pipeline
from repro.ptest.executor import CellExecutor
from repro.ptest.pool import shutdown_pools

SEEDS = (0, 1, 2)
SCHEDULE = "grid_zoom:2,replay(max_sources=1):2"


def main() -> None:
    pipeline = parse_pipeline(SCHEDULE)
    campaign = AdaptiveCampaign(
        seeds=SEEDS,
        rounds=pipeline.total_rounds(),
        policy=pipeline,
        executor=CellExecutor(workers=2),
    )
    campaign.add_grid(
        "phil",
        "philosophers",
        {"ordered": [False, True], "hold_steps": [15, 30, 60]},
    )
    print(
        f"schedule sweep: {pipeline.describe()} x {len(SEEDS)} seeds "
        f"({pipeline.total_rounds()} rounds max)"
    )
    result = campaign.run()
    for observation in result.rounds:
        print(
            f"\nround {observation.index + 1} "
            f"(pool_id={observation.pool_id}, stage={observation.stage}): "
            f"{len(observation.rows)} variant(s), "
            f"{observation.total_detections} detection(s)"
        )
        for row in observation.rows:
            kinds = f"  [{', '.join(row.kinds)}]" if row.kinds else ""
            print(
                f"  {row.variant:<58} {row.detections}/{row.runs}{kinds}"
            )
    print(
        f"\npool stable across the composed schedule: {result.pool_stable}"
        f"; {len(result.rounds)} round(s) on one pool"
        + ("  (stopped early)" if result.stopped_early else "")
    )
    shutdown_pools()


if __name__ == "__main__":
    main()
