"""Pattern-duplication metrics.

The paper's future work warns that "the replicated test patterns can
reduce the effectiveness of pTest".  These helpers measure duplication
within pattern batches, empirically and analytically.  Detection rates
are campaign rows, scored against each scenario's registered
expectation (:meth:`~repro.workloads.registry.ScenarioRef.expected`).
"""

from __future__ import annotations

import math
from typing import Sequence


def duplication_rate(patterns: Sequence[Sequence[str]]) -> float:
    """Fraction of patterns in a batch that duplicate an earlier one.

    0.0 = all unique; approaching 1.0 = the batch is mostly replicas
    (the effectiveness concern of the paper's future work).
    """
    if not patterns:
        return 0.0
    seen: set[tuple[str, ...]] = set()
    duplicates = 0
    for pattern in patterns:
        key = tuple(pattern)
        if key in seen:
            duplicates += 1
        else:
            seen.add(key)
    return duplicates / len(patterns)


def unique_pattern_fraction(patterns: Sequence[Sequence[str]]) -> float:
    """Distinct patterns / total patterns."""
    if not patterns:
        return 1.0
    return len({tuple(p) for p in patterns}) / len(patterns)


def expected_distinct_patterns(
    probabilities: Sequence[float], draws: int
) -> float:
    """Analytic expected number of distinct outcomes over ``draws``
    samples of a categorical distribution — the model for duplication
    growth used to cross-check the empirical rate (E9)."""
    if draws < 0:
        raise ValueError(f"draws must be >= 0, got {draws}")
    return float(
        sum(1.0 - math.pow(1.0 - p, draws) for p in probabilities)
    )
