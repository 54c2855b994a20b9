"""Coverage, duplication metrics and profiling-based distribution learning.

Quantifies what the paper leaves qualitative: PFA-transition and
service-pair coverage of a pattern batch (:mod:`repro.analysis.coverage`),
pattern-duplication statistics (:mod:`repro.analysis.metrics`, the
future-work concern about replicated patterns), and learning transition
distributions from executed traces (:mod:`repro.analysis.profiling`).
"""

from repro.analysis.coverage import (
    CoverageReport,
    pattern_transition_coverage,
    service_pair_coverage,
)
from repro.analysis.metrics import duplication_rate, unique_pattern_fraction
from repro.analysis.convergence import (
    ConvergencePoint,
    align_states,
    measure_convergence,
    row_kl_divergence,
)
from repro.analysis.text_report import render_campaign, render_run, render_table
from repro.analysis.profiling import (
    learn_distribution_from_patterns,
    traces_from_result,
)

__all__ = [
    "CoverageReport",
    "pattern_transition_coverage",
    "service_pair_coverage",
    "duplication_rate",
    "unique_pattern_fraction",
    "learn_distribution_from_patterns",
    "traces_from_result",
    "ConvergencePoint",
    "align_states",
    "measure_convergence",
    "row_kl_divergence",
    "render_campaign",
    "render_run",
    "render_table",
]
