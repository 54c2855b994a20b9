"""A4 — ablation: detector thresholds (the starvation monitor's
hand-set progress window).

The starvation monitor's ``progress_window`` trades detection latency
against false positives: too small and ordinary priority waits are
flagged (the low-priority quicksort task legitimately waits thousands
of ticks behind its betters); too large and real starvation is slow to
surface.  This bench sweeps the window on a healthy 16-task stress run
(false-positive rate) and on the lost-wakeup fault (time to detect).
The benchmark times one healthy sweep entry.
"""

from __future__ import annotations

import dataclasses

from repro.ptest.detector import AnomalyKind
from repro.workloads.scenarios import producer_consumer_scenario, stress_case1

from conftest import format_table

WINDOWS = (200, 800, 3_000, 12_000, 50_000)


def _healthy_run(window: int):
    test = stress_case1(seed=0, buggy_gc=False, max_ticks=15_000)
    test.config = dataclasses.replace(test.config, progress_window=window)
    return test.run()


def _faulty_run(window: int):
    test = producer_consumer_scenario(seed=0, faulty=True, max_ticks=40_000)
    test.config = dataclasses.replace(test.config, progress_window=window)
    return test.run()


def test_detector_threshold_ablation(benchmark, emit):
    rows = []
    for window in WINDOWS:
        healthy = _healthy_run(window)
        false_positive = (
            healthy.report.primary.kind.value if healthy.found_bug else "-"
        )
        faulty = _faulty_run(window)
        found_starvation = (
            faulty.found_bug
            and faulty.report.primary.kind is AnomalyKind.STARVATION
        )
        rows.append(
            (
                window,
                false_positive,
                "yes" if found_starvation else "missed",
                faulty.report.primary.detected_at if found_starvation else "-",
            )
        )

    text = (
        "starvation progress_window sweep:\n"
        + format_table(
            [
                "window (ticks)",
                "healthy stress flags",
                "lost-wakeup found",
                "detect tick",
            ],
            rows,
        )
        + "\n\nshape: small windows false-positive on the healthy stress"
        + "\n(low-priority tasks legitimately wait behind 15 higher ones);"
        + "\nlarge windows stay sound but pay proportionally higher"
        + "\ndetection latency on the real starvation.  The case-study"
        + "\nconfigs pick windows above the workload's natural latency."
    )
    emit("A4_detector_thresholds", text)

    by_window = {row[0]: row for row in rows}
    assert by_window[200][1] != "-"  # tight window false-positives
    assert by_window[50_000][1] == "-"  # generous window is sound
    assert by_window[3_000][2] == "yes"  # and still catches the fault

    benchmark.pedantic(lambda: _healthy_run(12_000), rounds=2, iterations=1)
