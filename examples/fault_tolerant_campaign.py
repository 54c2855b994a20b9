#!/usr/bin/env python
"""Fault-tolerant campaign: survive a hostile execution fabric.

A dining-philosophers deadlock hunt runs under deliberately injected
chaos — seeded transient worker kills and delays from
:class:`repro.ptest.chaos.ChaosSpec`, plus one *planted hang* (a poison
cell that sleeps far past any deadline).  The watchdog's per-cell
deadline detects the hang, the quarantine machinery bisects the batch
down to the offending ``(variant, seed)`` cell, and the campaign still
completes — reporting the same deadlock detections a clean run finds on
the surviving seeds, plus an explicit quarantine ledger for the cell it
had to give up on.

Run:  python examples/fault_tolerant_campaign.py
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.ptest.adaptive import AdaptiveCampaign
from repro.ptest.chaos import ChaosSpec
from repro.ptest.executor import CellExecutor

SEEDS = tuple(range(6))
HUNG_SEED = 3  # the planted poison cell: hangs every time it runs


def build_campaign(chaos: ChaosSpec) -> AdaptiveCampaign:
    executor = CellExecutor(
        workers=2, batch_size=1, chaos=chaos, cell_timeout=2.0, quarantine=True
    )
    campaign = AdaptiveCampaign(seeds=SEEDS, executor=executor)
    campaign.add_scenario("phil", "philosophers", ordered=False, max_ticks=600)
    return campaign


def main() -> None:
    print("fault-tolerant campaign: philosophers deadlock hunt under chaos")

    chaos = ChaosSpec(
        seed=17,
        kill_rate=0.25,  # transient: resubmission re-draws the fate
        delay_rate=0.25,
        delay_s=0.01,
        hang_seeds=frozenset({HUNG_SEED}),  # poison: hangs on every attempt
        hang_s=30.0,
    )
    print(f"chaos: {chaos.describe()}")
    print(f"watchdog: 2.0s/cell; quarantine: on; planted hang: seed {HUNG_SEED}")

    [observation] = build_campaign(chaos).run().rounds
    report = observation.quarantine

    row = observation.rows[0]
    print(
        f"\nsurvived: {row.runs} of {len(SEEDS)} cells ran, "
        f"{row.detections} deadlock detection(s) [{row.kinds or '-'}]"
    )
    print(report.describe())
    for cell in report.cells:
        print(f"  quarantined: {cell.describe()}")

    # The invariant that makes chaos testing trustworthy: completed
    # cells are bit-identical to a clean run over the surviving seeds.
    reference = AdaptiveCampaign(seeds=tuple(s for s in SEEDS if s != HUNG_SEED))
    reference.add_scenario("phil", "philosophers", ordered=False, max_ticks=600)
    clean_row = reference.run().final_rows[0]
    identical = (row.runs, row.detections, row.kinds) == (
        clean_row.runs,
        clean_row.detections,
        clean_row.kinds,
    )
    print(
        "\ncross-check vs clean run on surviving seeds: "
        + ("bit-identical" if identical else "MISMATCH")
    )
    if not identical:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
