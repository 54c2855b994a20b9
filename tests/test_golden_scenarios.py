"""Golden fixture: every registered scenario at its default parameters.

Each scenario runs bare (``build_scenario(name, seed).run()``) for
:data:`SEEDS` and is reduced to a digest of everything a run reports:
ticks, rounds, command counts, stalls, service counts, anomaly
descriptions, sampled patterns, the bug report's ``to_dict()``, the
tracer's event count and its 60-event tail.  Large values are stored as
SHA-256 hashes.  The fixture pins the simulator's observable behaviour,
so tick-loop optimisations must leave every digest bit-identical.

The same cells also run through the pool workers' entry point
(``make_batch_table`` + ``run_table_batch``, in process, one
same-variant batch per scenario from a cold worker cache) and must
match the bare digests on every field a result carries.

``--write`` records the fast path, so a bug in the harness drain's
fast-forward could be written into the fixture.  The fixture must
therefore also match the stepwise reference: every cell run again with
``DualCoreSoC.fast_forward`` advancing 0 ticks and
``DualCoreSoC.run_slave`` taking one ``DualCoreSoC.step`` per call, so
that every tick is stepped (one ``step`` call per tick the run reports)
and every sweep tick swept.

Regenerate only for a deliberate behaviour change::

    PYTHONPATH=src python tests/test_golden_scenarios.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.ptest.pool import clear_worker_cache, make_batch_table, run_table_batch
from repro.sim.soc import DualCoreSoC
from repro.workloads.registry import build_scenario, scenario_names, scenario_ref

FIXTURE = Path(__file__).with_name("data") / "golden_scenarios.json"

SEEDS = tuple(range(8))


def _sha256(value) -> str:
    text = json.dumps(value, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()


def result_digest(result) -> dict:
    """The digest fields a ``TestRunResult`` carries by itself."""
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
    }


def cell_digest(name: str, seed: int) -> dict:
    """One bare run of scenario ``name`` reduced to its golden digest."""
    test = build_scenario(name, seed)
    digest = result_digest(test.run())
    # RandomTester wraps its own AdaptiveTest and exposes no tracer.
    tracer = getattr(test, "tracer", None)
    digest["trace_recorded"] = tracer.recorded if tracer is not None else None
    digest["trace_tail_sha256"] = (
        _sha256(tracer.dump(tracer.tail(60))) if tracer is not None else None
    )
    return digest


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


@pytest.mark.parametrize("name", scenario_names())
def test_worker_batch_matches_golden(name):
    expected = _golden()[name]
    table, jobs = make_batch_table([scenario_ref(name)] * len(SEEDS), SEEDS)
    clear_worker_cache()
    try:
        results = run_table_batch(table, jobs)
    finally:
        clear_worker_cache()
    for seed, result in zip(SEEDS, results):
        want = expected[str(seed)]
        got = result_digest(result)
        assert got == {key: want[key] for key in got}, (name, seed)


def test_stepwise_reference_matches_golden(monkeypatch):
    stepped: list = []
    step = DualCoreSoC.step

    def counting_step(self):
        stepped.append(self.now)
        return step(self)

    def step_one_tick(self, limit):
        del limit
        self.step()
        return 1

    monkeypatch.setattr(DualCoreSoC, "step", counting_step)
    monkeypatch.setattr(DualCoreSoC, "fast_forward", lambda self, limit: 0)
    monkeypatch.setattr(DualCoreSoC, "run_slave", step_one_tick)
    golden = _golden()
    for name in scenario_names():
        for seed in SEEDS:
            stepped.clear()
            digest = cell_digest(name, seed)
            assert digest == golden[name][str(seed)], (name, seed)
            assert len(stepped) == digest["ticks"], (name, seed)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(
        json.dumps(compute_fixture(), indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {FIXTURE}")
