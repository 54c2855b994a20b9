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
runs of ticks could be written into the fixture.  The fixture must
therefore also match the stepwise reference: every cell run again with
``DualCoreSoC.run_slave``, the drain's one call, taking one
``DualCoreSoC.step`` per call, so that every tick is stepped (one
``step`` call per tick the run reports) and every sweep tick swept.

The variants fixture pins the round loop off its default path: every
scenario that builds an ``AdaptiveTest`` under each config change of
:data:`VARIANTS` (fire-and-forget commits, issue noise, restarts, an
off-grid budget, other sweep intervals, a faster master) for
:data:`VARIANT_SEEDS`, digested like the golden cells.

Regenerate both fixtures only for a deliberate behaviour change::

    PYTHONPATH=src python tests/test_golden_scenarios.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.ptest.harness import AdaptiveTest
from repro.ptest.pool import make_batch_table, run_table_batch
from repro.sim.soc import DualCoreSoC
from repro.workloads.registry import build_scenario, scenario_names, scenario_ref

FIXTURE = Path(__file__).with_name("data") / "golden_scenarios.json"
VARIANTS_FIXTURE = FIXTURE.with_name("golden_variants.json")

SEEDS = tuple(range(8))
VARIANT_SEEDS = tuple(range(4))

#: Config changes, by name, that take the round loop off its default
#: path.
VARIANTS = {
    "lockstep=False": {"lockstep": False},
    "noise_ticks=3": {"noise_ticks": 3},
    "restart_patterns=True,max_ticks=2000": {
        "restart_patterns": True,
        "max_ticks": 2_000,
    },
    "restart_patterns=True,max_ticks=1997": {
        "restart_patterns": True,
        "max_ticks": 1_997,
    },
    "detector_interval=3": {"detector_interval": 3},
    "max_ticks=997": {"max_ticks": 997},
    "detector_interval=1,progress_window=50": {
        "detector_interval": 1,
        "progress_window": 50,
    },
    "master_steps_per_tick=2": {"master_steps_per_tick": 2},
}

#: Budgets for variants that set none (``quicksort_stress`` runs
#: 200,000 ticks by default).
VARIANT_BUDGETS = {"quicksort_stress": 4_000}


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


def cell_digest(name: str, seed: int, variant: str | None = None) -> dict:
    """One bare run of scenario ``name`` reduced to its golden digest;
    ``variant`` names a :data:`VARIANTS` config change to apply."""
    test = build_scenario(name, seed)
    if variant is not None:
        config = VARIANTS[variant]
        if "max_ticks" not in config and name in VARIANT_BUDGETS:
            config = {**config, "max_ticks": VARIANT_BUDGETS[name]}
        test.config = replace(test.config, **config)
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


def variant_scenarios() -> list[str]:
    """The registered scenarios that build an ``AdaptiveTest``, whose
    config a variant can change."""
    return [
        name
        for name in scenario_names()
        if isinstance(build_scenario(name, 0), AdaptiveTest)
    ]


def compute_variants_fixture() -> dict:
    return {
        name: {
            variant: {
                str(seed): cell_digest(name, seed, variant) for seed in VARIANT_SEEDS
            }
            for variant in VARIANTS
        }
        for name in variant_scenarios()
    }


def _golden(fixture: Path = FIXTURE) -> dict:
    return json.loads(fixture.read_text(encoding="utf-8"))


def test_fixture_covers_every_registered_scenario():
    assert sorted(_golden()) == scenario_names()


@pytest.mark.parametrize("name", scenario_names())
def test_scenario_matches_golden(name):
    expected = _golden()[name]
    for seed in SEEDS:
        assert cell_digest(name, seed) == expected[str(seed)], (name, seed)


def test_variants_fixture_covers_every_adaptive_scenario():
    golden = _golden(VARIANTS_FIXTURE)
    assert sorted(golden) == variant_scenarios()
    for name, variants in golden.items():
        assert sorted(variants) == sorted(VARIANTS), name


@pytest.mark.parametrize("name", variant_scenarios())
def test_variants_match_golden(name):
    expected = _golden(VARIANTS_FIXTURE)[name]
    for variant in VARIANTS:
        for seed in VARIANT_SEEDS:
            got = cell_digest(name, seed, variant)
            assert got == expected[variant][str(seed)], (name, variant, seed)


@pytest.mark.parametrize("name", scenario_names())
def test_worker_batch_matches_golden(name):
    expected = _golden()[name]
    table, jobs = make_batch_table([scenario_ref(name)] * len(SEEDS), SEEDS)
    results = run_table_batch(table, jobs)
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

    def step_one_tick(self, limit, reach=None):
        del limit, reach
        self.step()
        return 1

    monkeypatch.setattr(DualCoreSoC, "step", counting_step)
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
    for path, compute in (
        (FIXTURE, compute_fixture),
        (VARIANTS_FIXTURE, compute_variants_fixture),
    ):
        path.write_text(
            json.dumps(compute(), indent=1, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"wrote {path}")
