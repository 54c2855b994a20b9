"""The perf-bench CI smoke, as a tier-1-tooling test.

Runs ``benchmarks/bench_perf_hotpaths.py --quick`` and asserts exactly
the floors the CI workflow gates on, so the gate is reproducible
locally with ``pytest -m benchsmoke`` instead of copy-pasting the
workflow's steps.  Excluded from plain ``pytest`` runs via the marker
(see ``pytest.ini``): it re-times every hot path, which is signal in
CI and noise inside the regular suite.

Floors and their skip conditions mirror the ``criteria`` block the
bench writes into ``benchmarks/out/bench_perf_hotpaths.json`` — change
them there and here together.
"""

from __future__ import annotations

import importlib.util
import json
import os
from pathlib import Path

import pytest

pytestmark = pytest.mark.benchsmoke

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_PATH = REPO_ROOT / "benchmarks" / "bench_perf_hotpaths.py"
OUT_PATH = REPO_ROOT / "benchmarks" / "out" / "bench_perf_hotpaths.json"


@pytest.fixture(scope="module")
def report() -> dict:
    """One quick bench run per session; later tests read its JSON."""
    spec = importlib.util.spec_from_file_location(
        "bench_perf_hotpaths_smoke", BENCH_PATH
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # --workers 2 matches the CI runner guidance: oversubscribing a
    # small machine only adds scheduling noise to the timing ratios.
    assert module.main(["--quick", "--workers", "2"]) == 0
    return json.loads(OUT_PATH.read_text())


class TestCiFloors:
    def test_sampling_floor(self, report):
        speedup = report["sampling"]["speedup"]
        floor = report["criteria"]["sampling_ci_floor"]
        assert speedup >= floor, (
            f"sampling speedup regressed: {speedup}x < {floor}x"
        )

    def test_sampling_batch_floor(self, report):
        if report["sampling_batch"]["skipped_numpy"]:
            pytest.skip("no numpy: batch path is the scalar fallback")
        speedup = report["sampling_batch"]["speedup"]
        floor = report["criteria"]["sampling_batch_ci_floor"]
        assert speedup >= floor, (
            f"batch sampling speedup regressed: {speedup}x < {floor}x"
        )

    def test_detector_batch_floor(self, report):
        if report["detector_batch"]["skipped_numpy"]:
            pytest.skip("no numpy: batch path is the scalar fallback")
        speedup = report["detector_batch"]["speedup"]
        floor = report["criteria"]["detector_batch_ci_floor"]
        assert speedup >= floor, (
            f"batched detection speedup regressed: {speedup}x < {floor}x"
        )

    def test_detector_floor(self, report):
        speedup = report["detector"]["speedup"]
        floor = report["criteria"]["detector_ci_floor"]
        assert speedup >= floor, (
            f"detector speedup regressed: {speedup}x < {floor}x"
        )

    def test_batched_dispatch_floor(self, report):
        speedup = report["campaign_batched"]["speedup"]
        floor = report["criteria"]["campaign_batched_ci_floor"]
        assert speedup >= floor, (
            f"batched campaign dispatch regressed: {speedup}x < {floor}x"
        )

    def test_faults_recovery_floor(self, report):
        # Bit-identity of rows recovered under 10% injected worker
        # kills is exact on any hardware; the overhead ratio needs
        # real parallelism to measure recovery rather than contention.
        assert report["faults"]["bit_identical"] is True
        if report["faults"]["skipped_parallel_floor"]:
            pytest.skip("single core: recovery ratio is contention noise")
        overhead = report["faults"]["overhead"]
        floor = report["criteria"]["faults_recovery_ci_floor"]
        assert overhead <= floor, (
            f"fault-recovery overhead regressed: {overhead}x > {floor}x"
        )

    def test_warm_pool_floor(self, report):
        if report["pool"]["skipped_parallel_floor"]:
            pytest.skip("single-core machine: warm-pool ratio is noise")
        speedup = report["pool"]["speedup"]
        floor = report["criteria"]["pool_warm_ci_floor"]
        assert speedup >= floor, (
            f"warm-pool dispatch regressed: {speedup}x < {floor}x"
        )

    def test_adaptive_rounds_never_respawn(self, report):
        # Spawn counting is exact on any hardware: never skipped.
        adaptive = report["adaptive"]
        assert report["criteria"]["adaptive_no_respawn_met"], (
            f"adaptive rounds respawned the pool: "
            f"spawns={adaptive['pool_spawns']}, "
            f"pool_stable={adaptive['pool_stable']}"
        )

    def test_pipeline_schedule_never_respawns(self, report):
        assert report["criteria"]["pipeline_no_respawn_met"], (
            f"composed pipeline respawned its pool: "
            f"spawns={report['pipeline']['pool_spawns']}"
        )

    def test_pipeline_prewarm_floor(self, report):
        if report["pipeline"]["skipped_parallel_floor"]:
            pytest.skip(
                "single-core machine: prewarm overlap cannot exist"
            )
        speedup = report["pipeline"]["speedup"]
        floor = report["criteria"]["pipeline_prewarm_ci_floor"]
        assert speedup >= floor, (
            f"prewarmed round-start regressed vs cold: "
            f"{speedup}x < {floor}x"
        )

    def test_serve_floor(self, report):
        # The bit-identity of served rows is asserted inside the bench
        # itself on any hardware; the warm-vs-cold-process ratio needs
        # real parallelism to be a startup-amortisation measurement.
        if report["serve"]["skipped_parallel_floor"]:
            pytest.skip(
                "single core: clients contend with the workers"
            )
        speedup = report["serve"]["speedup"]
        floor = report["criteria"]["serve_ci_floor"]
        assert speedup >= floor, (
            f"warm-server request speedup regressed: "
            f"{speedup}x < {floor}x"
        )

    def test_report_names_this_machine(self, report):
        assert report["quick"] is True
        assert report["machine"]["cpu_count"] == os.cpu_count()
