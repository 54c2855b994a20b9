"""Golden fixture: every registered scenario at its default parameters.

Each scenario runs bare (``build_scenario(name, seed).run()``) for
:data:`SEEDS` and is reduced to a digest of everything a run reports:
ticks, rounds, command counts, stalls, service counts, anomaly
descriptions, sampled patterns, the bug report's ``to_dict()``, the
tracer's event count and its 60-event tail.  Large values are stored as
SHA-256 hashes.  The fixture pins the simulator's observable behaviour,
so tick-loop optimisations must leave every digest bit-identical.

Regenerate only for a deliberate behaviour change::

    PYTHONPATH=src python tests/test_golden_scenarios.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.workloads.registry import build_scenario, scenario_names

FIXTURE = Path(__file__).with_name("data") / "golden_scenarios.json"

SEEDS = tuple(range(8))


def _sha256(value) -> str:
    text = json.dumps(value, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()


def cell_digest(name: str, seed: int) -> dict:
    """One bare run of scenario ``name`` reduced to its golden digest."""
    test = build_scenario(name, seed)
    result = test.run()
    # RandomTester wraps its own AdaptiveTest and exposes no tracer.
    tracer = getattr(test, "tracer", None)
    report = result.report
    return {
        "ticks": result.ticks,
        "rounds": result.rounds,
        "commands_issued": result.commands_issued,
        "commands_completed": result.commands_completed,
        "commands_failed": result.commands_failed,
        "command_stalls": result.command_stalls,
        "service_counts": dict(sorted(result.service_counts.items())),
        "anomalies": [anomaly.describe() for anomaly in result.anomalies],
        "merged_length": result.merged_length,
        "patterns_sha256": _sha256(result.patterns),
        "report_sha256": _sha256(report.to_dict()) if report else None,
        "trace_recorded": tracer.recorded if tracer is not None else None,
        "trace_tail_sha256": (
            _sha256(tracer.dump(tracer.tail(60))) if tracer is not None else None
        ),
    }


def compute_fixture() -> dict:
    return {
        name: {str(seed): cell_digest(name, seed) for seed in SEEDS}
        for name in scenario_names()
    }


def _golden() -> dict:
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def test_fixture_covers_every_registered_scenario():
    assert sorted(_golden()) == scenario_names()


@pytest.mark.parametrize("name", scenario_names())
def test_scenario_matches_golden(name):
    expected = _golden()[name]
    for seed in SEEDS:
        assert cell_digest(name, seed) == expected[str(seed)], (name, seed)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(
        json.dumps(compute_fixture(), indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {FIXTURE}")
